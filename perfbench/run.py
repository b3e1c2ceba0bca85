"""magheat benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client: it starts one fresh interpreter per run
(``child.py``), waits for it, and starts the next until ``--seconds`` are
used up.  Every run is one ``magheat.harness.run`` call of the workload's
config, checked against ``reference.json``.  With ``--trace 0`` it reports the
medians of the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced runs and reports the per-layer metrics of the median traced run.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from spans import LAYERS, METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0   # one run takes 2-4 s; a whole benchmark run must end in 180 s


def child_env(nproc):
    """The environment of a run: thread pools as set, capped at ``nproc``.

    Unset pools get one thread.  On a 2-core machine two OpenBLAS threads made
    every workload 5-17% slower in wall time and doubled its CPU time, since
    the threads spin while the sparse solvers run single-threaded code.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = ""
    for var in THREAD_VARS:
        value = env.get(var, "")
        env[var] = str(min(int(value), nproc)) if value.isdigit() and int(value) >= 1 else "1"
    return env


def machine_info(env, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "threads": {var: env[var] for var in THREAD_VARS}}


def run_once(name, seed, traced, env, index):
    """One run in a fresh interpreter; returns its result dict."""
    out_dir = OUT / f"{name}-seed{seed}-{index}"
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed),
           "1" if traced else "0", str(out_dir)]
    # the child stamps its ``ready`` line with the same system-wide clock
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": "timed out"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or len(lines) < 2 or len(ready) != 2 or ready[0] != "ready":
        return {"ok": False, "error": f"child exited with {proc.returncode}"}
    result = json.loads(lines[-1])
    result["setup_s"] = float(ready[1]) - t0
    return result


def measure(name, seed, seconds, traced, env):
    """Runs of one workload for ``seconds``: returns (results, plain, traced)."""
    results, plain, layered = [], [], []
    start = time.perf_counter()
    durations = []
    while True:
        with_trace = traced and len(results) % 2 == 1
        t0 = time.perf_counter()
        result = run_once(name, seed, with_trace, env, len(results))
        durations.append(time.perf_counter() - t0)
        results.append(result)
        if not result["ok"]:
            print(f"# {name} run {len(results)} FAILED: {result['error']}", flush=True)
        elif with_trace:
            layered.append(result)
        else:
            plain.append(result)
        elapsed = time.perf_counter() - start
        enough = len(results) >= (2 if traced else 1)
        if enough and elapsed + statistics.median(durations) > seconds:
            return results, plain, layered


def spread_line(metric, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"#   {metric:34s} median {statistics.median(values):.6g} {unit}  "
            f"q1 {q[0]:.6g}  q3 {q[2]:.6g}  n={len(values)}")


def summarize(name, seed, seconds, traced, env):
    """Measure one workload; returns (attempted, failed, metrics)."""
    results, plain, layered = measure(name, seed, seconds, traced, env)
    print(f"# workload {name}: {len(results)} runs, "
          f"{sum(not r['ok'] for r in results)} failed", flush=True)
    metrics = {}
    if plain and not traced:
        for metric, unit in END_TO_END.items():
            values = [r[metric] for r in plain]
            print(spread_line(metric, values, unit), flush=True)
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    # trace overhead: each traced run minus the plain run just before it, so
    # that the machine's drift in speed over a run cancels out
    overheads = [t["layers"]["trace.wall_s"] - p["wall_s"]
                 for p, t in zip(results[0::2], results[1::2])
                 if traced and p["ok"] and t["ok"]]
    if overheads:
        # all layer metrics come from the traced run of median wall time, so
        # its layer self times add up to its trace.wall_s
        layered.sort(key=lambda r: r["layers"]["trace.wall_s"])
        layers = dict(layered[(len(layered) - 1) // 2]["layers"])
        layers["trace.overhead_s"] = statistics.median(overheads)
        for metric, unit in LAYER_METRICS.items():
            metrics[metric] = {"value": layers[metric], "unit": unit}
        wall = layers["trace.wall_s"]
        shares = {layer: layers[f"layer.{layer}.s"] / wall for layer in LAYERS}
        print("#   layer shares of traced wall: " + "  ".join(
            f"{k} {v:.1%}" for k, v in shares.items()), flush=True)
    return len(results), sum(not r["ok"] for r in results), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "magheat" / "__init__.py").is_file():
        sys.exit(f"no magheat sources under {ROOT / 'src'}")

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    print("# machine " + json.dumps(machine_info(env, nproc)), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        n_runs, n_failed, found = summarize(name, args.seed, args.seconds,
                                            bool(args.trace), env)
        attempted += n_runs
        failed += n_failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    if attempted == failed:
        sys.exit("every run failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
