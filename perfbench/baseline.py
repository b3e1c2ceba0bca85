"""Run the benchmark on ten seeds per workload and write ``baseline.json``.

    python3 perfbench/baseline.py

Each workload gets one untraced benchmark run per seed and one traced run,
each as long as ``run_seconds`` in ``BENCHMARK.json``.  For every end-to-end
metric the file keeps the per-seed values, their median and the spread
(q3 - q1) / median that the benchmark's bounds are held to; for the traced run
it keeps the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, ROOT
from workloads import WORKLOADS

SEEDS = list(range(100, 110))
OUT = HERE / "baseline.json"


def bench(name, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0].removeprefix("# machine ")), json.loads(lines[-1])


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in WORKLOADS:
        values, runs, failed = {}, 0, 0
        for seed in SEEDS:
            machine, result = bench(name, seed, seconds, 0)
            runs += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, {"unit": entry["unit"], "values": []})
                values[metric]["values"].append(entry["value"])
        for metric, entry in values.items():
            q1, median, q3 = statistics.quantiles(entry["values"], n=4)
            entry.update(median=median, spread=(q3 - q1) / median)
            print(f"{name:22s} {metric:12s} median {median:9.4f} {entry['unit']:3s} "
                  f"spread {entry['spread']:.3f}", flush=True)
        _, traced = bench(name, SEEDS[0], seconds, 1)
        runs += traced["attempted"]
        failed += traced["failed"]
        baseline["machine"] = machine
        baseline["workloads"][name] = {
            "runs": runs, "failed": failed, "end_to_end": values,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    OUT.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
