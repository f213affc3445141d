"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload pencil-sweep --runs 10 [--trace 0] [--first-seed 1]

Each run is a fresh interpreter (``run.py`` from the checkout root).  For
every metric it prints the median, the quartiles (``statistics.quantiles``
with ``n=4``), the spread ``(q3 - q1) / median`` and the values of every run,
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    values, failed = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(proc.stdout.strip().splitlines()[-2], file=sys.stderr)
    report = {"workload": args.workload, "runs": args.runs, "failed": failed, "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med if med else None,
                                   "values": vals}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
