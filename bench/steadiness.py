"""Steadiness of the end-to-end metrics over seeds; run from the repository root:

    python3 bench/steadiness.py --runs 10 --first-seed 100

Runs the benchmark command of BENCHMARK.json once per seed on each
workload, one run at a time, with ``run_seconds`` from BENCHMARK.json, and
prints each run's report: every metric with its unit, quartiles and sample
count, and ``fail_frac``. For each workload it then prints ``fail_frac``
over all runs and, for each end-to-end metric, the median of the per-run
values and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = SPEC["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
            print("\n".join("    " + line for line in lines[:-1]), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  fail_frac      {failed / attempted:.6g}  ({failed} of {attempted} samples)")
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {metric['name']:<14} {median:.6g} (one run, no spread)")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:<14} median {median:.6g}  spread {(q3 - q1) / median:.4f}"
                  f"  (bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
