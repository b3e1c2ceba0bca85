"""One timed workload run in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <trace 0|1> <out_dir>

Imports magheat from the checkout's ``src``, builds the workload's config,
field and grid, prints ``ready`` with the time on the system's monotonic clock
(the parent's set-up clock stops there), then times one ``magheat.harness.run``
call, checks what it wrote against ``reference.json`` and prints one JSON line
with the result.  A fresh process
per run keeps module-level caches and peak RSS from leaking between runs.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Relative tolerance of the headline numbers, measured on the workloads:
# another eigsh start vector (seed) or an MMD_AT_PLUS_A column ordering in
# splu moves lambda by <= 4e-15; exact CN solves in place of CG (rtol 1e-10)
# move the final norms by <= 1.2e-10.  Midpoint instead of 3-point Gauss edge
# phases moves every workload by >= 3.2e-9 (lambda by 2e-4), and 16 instead
# of 64 Gauss nodes in alpha_batch move the offset-bump norms by 7.5e-9.
RTOL = 1e-9

import magheat  # noqa: E402
from magheat import harness  # noqa: E402

from workloads import config_dict  # noqa: E402

if Path(magheat.__file__).resolve().parent != ROOT / "src" / "magheat":
    sys.exit(f"magheat imported from {magheat.__file__}, not from {ROOT / 'src'}")


def headline(summary, out):
    """The numbers the correctness gate compares against the reference."""
    if summary["kind"] == "lambda-curve":
        return {"lambda": [[smp["s"], smp["lambda"]] for smp in summary["samples"]]}
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, lines[-1].split(",")))
    final = {"time": float(last["time"]), "l2_norm": float(last["l2_norm"])}
    if last["k_norm"]:
        final["k_norm"] = float(last["k_norm"])
    return {"final": final, "steps": len(lines) - 2}


def mismatches(got, want, path=""):
    """Leaves of ``got`` that differ from ``want`` by more than ``RTOL``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= RTOL * abs(want)):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def check(record, name):
    """Problems with a finished run's outputs; empty when it is correct."""
    out = Path(record.outputs[0]).parent
    summary = json.loads((out / "summary.json").read_text())
    problems = [f"flag {k} is false" for k, v in summary["flags"].items() if not v]
    if not summary["pass"]:
        problems.append("summary pass is false")
    reference = json.loads((HERE / "reference.json").read_text())[name]
    problems += mismatches(headline(summary, out), reference)
    return problems


def main(argv):
    name, seed, traced, out_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    cfg = harness.ExperimentConfig.from_dict(config_dict(name, seed))
    # set-up_s includes one field and grid build; harness.run repeats both
    cfg.build_field()
    cfg.build_grid()
    run = harness.run
    tracer = None
    if traced:
        from spans import Tracer, install, layer_metrics
        tracer = Tracer()
        run = install(tracer)
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)

    result = {"ok": False, "error": None}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        record = run(cfg, out_dir=out_dir)
    except Exception:  # a failed run is counted by the parent, not fatal here
        traceback.print_exc()
        result["error"] = "harness.run raised"
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result["wall_s"] = wall
    result["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    result["peak_rss_mb"] = usage1.ru_maxrss / 1024.0
    if result["error"] is None:
        problems = check(record, name)
        result["ok"] = not problems
        result["error"] = "; ".join(problems) or None
        if tracer is not None:
            out = Path(record.outputs[0]).parent
            written = sum(p.stat().st_size for p in out.iterdir())
            result["layers"] = layer_metrics(tracer, written)
            tracer.write(out_dir.parent / f"trace-{name}-seed{seed}.json")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
