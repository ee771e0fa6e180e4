"""Self-check of the benchmark; run from the repository root:

    python3 bench/selfcheck.py

For every workload in BENCHMARK.json it makes a tiny-size run untraced and
traced, and checks that the last output line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that the run is
correct with no failures, that every metric named in BENCHMARK.json is
reported with its unit (end-to-end metrics never 0), and that the traced
self times plus ``trace.overhead_s`` and ``harness.loop_self_s`` equal
``trace.wall_s``. It then
checks that the benchmark exits non-zero without a result in a directory
that holds only BENCHMARK.json and the benchmark's own files. Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import accounted_s

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    raise SystemExit(1)


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> dict:
    proc = run(workload, trace, ROOT)
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: not correct\n{proc.stdout}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{label}: {m['name']} = {got}")
        if not trace and got["value"] == 0:
            fail(f"{label}: end-to-end metric {m['name']} is 0")
    return {name: entry["value"] for name, entry in metrics.items()}


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        layers = check_result(workload, 1)
        wall = layers["trace.wall_s"]
        gap = accounted_s(layers) - wall
        if abs(gap) > 1e-6 * wall:
            fail(f"{workload}: layers add up to {wall + gap} s of a {wall} s traced wall")
        print(f"ok {workload}: metrics complete, layers cover {wall:.4f} s traced wall")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the program")
    print(f"ok without the program: exit code {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
