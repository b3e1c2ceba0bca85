"""Write ``reference.json``: the headline numbers of every workload.

    python3 perfbench/make_reference.py

Run it on the commit whose numbers the correctness gate should hold later
commits to; it runs each workload once with seed 0 and keeps its headline
numbers (the lambda samples, or the final norms of the trajectory).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from child import HERE, headline, harness
from workloads import WORKLOADS, config_dict


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in WORKLOADS:
            t0 = time.perf_counter()
            cfg = harness.ExperimentConfig.from_dict(config_dict(name, 0))
            record = harness.run(cfg, out_dir=tmp)
            summary_path = Path(record.outputs[0])
            summary = json.loads(summary_path.read_text())
            if not summary["pass"]:
                sys.exit(f"{name}: flags {summary['flags']}")
            reference[name] = headline(summary, summary_path.parent)
            print(f"{name}: {time.perf_counter() - t0:.2f} s", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
