"""corral-bandits benchmark: simulated rounds per second for four scenarios.

Usage (from the repository root):

    python3 bench/run.py --workload ensemble-mab --seed 0 --seconds 30 --trace 0

Each sample is one fresh process (``bench/child.py``) that imports
``corral`` from ``src/``, validates a generated config with ``load_config``
and runs it with ``execute``. Samples run one after another until
``--seconds`` have passed. Every sample's outputs are checked: invariant
counts must be zero, ``rounds.csv`` must have one row per round, and the
sha256 of ``rounds.csv`` and ``summary.json`` must equal the pinned digests
(``digests.json``) at the default seed, or the first sample's digests at
any other seed. A failed check counts as a failed run; nothing is retried.

With ``--trace 0`` each sample shares its CPU with the machine-speed
reference (``bench/reference.py``) and the end-to-end metrics are reported
at reference speed. With ``--trace 1`` untraced and traced samples alternate
without the reference, and the per-layer metrics of the traced sample with
the median wall time are reported, plus the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See ``README.md`` in
this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import accounted_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
MIN_SAMPLES = 3
# A run ends within this many seconds whatever --seconds asks for.
HARD_LIMIT_S = 160.0
TINY_DIVISOR = 20

# Reference iterations per CPU second that count as speed 1. The
# end-to-end times are reported as if the machine ran at that speed.
REFERENCE_RATE = 450_000.0

# Child processes stay single-threaded: no BLAS thread pool at numpy import.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

TRUE_PRIOR = [[40, 40]] * 5
WRONG_PRIOR = [[1, 19]] + [[19, 1]] * 4
CONTEXTUAL_POLICIES = [[0, 1], [0, 0], [1, 1], [2, 3], [3, 2], [1, 0], [2, 2], [3, 3]]


def ensemble_mab(seeds, horizon):
    """The README and acceptance ensemble: Thompson (true prior), Thompson
    (wrong prior) and EXP3 on five Bernoulli arms drawn from Beta(40, 40)."""
    return {
        "scenario": "corral-run",
        "horizon": horizon,
        "seeds": seeds,
        "environment": {"kind": "stochastic-mab", "means_prior": TRUE_PRIOR},
        "bases": [
            {"kind": "thompson", "prior": TRUE_PRIOR},
            {"kind": "thompson", "prior": WRONG_PRIOR},
            {"kind": "exp3"},
        ],
        "master": {
            "eta": 0.02,
            "estimator": "shared",
            "restart_policy": "restart-on-doubling",
        },
    }


def contextual_stability(seeds, horizon):
    """Acceptance criterion 6's EXP4 stability test on the 2-context,
    4-arm contextual environment."""
    return {
        "scenario": "stability-test",
        "horizon": horizon,
        "seeds": seeds,
        "rho_levels": [1.0, 4.0, 16.0],
        "environment": {
            "kind": "stochastic-contextual",
            "context_probs": [0.5, 0.5],
            "cond_means": [[0.2, 0.5, 0.65, 0.8], [0.7, 0.25, 0.55, 0.85]],
            "policies": CONTEXTUAL_POLICIES,
        },
        "bases": [{"kind": "exp4", "policies": CONTEXTUAL_POLICIES}],
    }


def adversarial_restart(seeds, horizon):
    """Criterion 4's stress shape at master scale: two EXP3 bases, a large
    master rate and a 2-arm script whose losses flip every 100 rounds."""
    script = [[1.0, 0.0] if (t // 100) % 2 == 0 else [0.0, 1.0] for t in range(horizon)]
    return {
        "scenario": "corral-run",
        "horizon": horizon,
        "seeds": seeds,
        "environment": {"kind": "adversarial-mab", "script": script},
        "bases": [{"kind": "exp3"}, {"kind": "exp3"}],
        "master": {"eta": 0.9, "estimator": "standard"},
    }


def lowerbound_demo(seeds, horizon):
    """The linear-regret demonstration at the acceptance fixture's horizon."""
    return {"scenario": "lowerbound-demo", "horizon": horizon, "seeds": seeds}


# name -> (config builder, horizon, config seeds per sample)
WORKLOADS = {
    "ensemble-mab": (ensemble_mab, 20_000, 1),
    "contextual-stability": (contextual_stability, 20_000, 2),
    "adversarial-restart": (adversarial_restart, 20_000, 1),
    "lowerbound-demo": (lowerbound_demo, 10_000, 2),
}


class SampleFailure(Exception):
    """A sample crashed, broke an invariant or produced unexpected outputs."""


def simulated_rounds(config: dict) -> int:
    per_seed = config["horizon"]
    if config["scenario"] == "stability-test":
        per_seed *= len(config["rho_levels"])
    elif config["scenario"] == "lowerbound-demo":
        per_seed *= 3  # naive master, corral master, matched standalone
    return per_seed * len(config["seeds"])


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(config: dict, out_dir: Path) -> dict:
    """Check one sample's outputs; return the digests of its files."""
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        raise SampleFailure("no summary.json written")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    scenario = config["scenario"]
    if summary.get("scenario") != scenario:
        raise SampleFailure(f"summary scenario {summary.get('scenario')!r}")
    digests = {"summary.json": sha256_of(summary_path)}
    if scenario == "stability-test":
        if not math.isfinite(summary["alpha_hat"]):
            raise SampleFailure(f"alpha_hat {summary['alpha_hat']}")
        return digests
    key = "invariant_violations" if scenario == "corral-run" else "corral_invariants"
    if any(summary[key].values()):
        raise SampleFailure(f"{key} {summary[key]}")
    csv_path = out_dir / "rounds.csv"
    if not csv_path.is_file():
        raise SampleFailure("no rounds.csv written")
    rows = csv_path.read_bytes().count(b"\n") - 1
    expected = config["horizon"] * len(config["seeds"])
    if rows != expected:
        raise SampleFailure(f"rounds.csv has {rows} rows, expected {expected}")
    digests["rounds.csv"] = sha256_of(csv_path)
    return digests


class Reference:
    """The machine-speed reference process, pinned (by inheritance) to the
    parent's CPU and running for the whole life of one sample."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference process did not start")

    def finish(self) -> tuple[int, list]:
        out, _ = self.proc.communicate("stop\n", timeout=30)
        data = json.loads(out)
        return data["slice"], data["marks"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def reference_speed(slice_iterations: int, marks: list, start: float, end: float) -> float:
    """Reference speed over [start, end] on the monotonic clock.

    Iterations per CPU second of the reference between the last mark at or
    before ``start`` and the first mark at or after ``end``, divided by
    REFERENCE_RATE.
    """
    times = [t for t, _ in marks]
    first = bisect.bisect_right(times, start) - 1
    last = bisect.bisect_left(times, end)
    if first < 0 or last >= len(marks):
        raise RuntimeError("the reference did not run for the whole sample")
    cpu_s = marks[last][1] - marks[first][1]
    return slice_iterations * (last - first) / cpu_s / REFERENCE_RATE


def run_child(config, config_path, out_dir, mode: str, deadline: float) -> dict:
    """Run one child process in ``mode`` and check its outputs; raise SampleFailure."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(config_path), str(out_dir), mode]
    spawned = time.monotonic()
    timeout = max(5.0, deadline - spawned)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailure(f"timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise SampleFailure(f"exit code {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SampleFailure("no result printed")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    result["digests"] = check_outputs(config, out_dir)
    if mode == "traced":
        # The layer figures must account for the traced wall time exactly.
        layers = result["layers"]
        gap = accounted_s(layers) - layers["trace.wall_s"]
        if abs(gap) > 1e-6 * layers["trace.wall_s"]:
            raise SampleFailure(f"layer self times miss the traced wall by {gap} s")
    return result


def run_sample(config, config_path, out_dir, traced, deadline, with_reference) -> dict:
    """One sample, beside the reference when ``with_reference``.

    With the reference, the result's ``speed`` is the reference speed over
    its ``execute`` call, and ``setup_s`` is its set-up CPU time at the
    reference speed over that set-up.
    """
    mode = "traced" if traced else "plain"
    if not with_reference:
        return run_child(config, config_path, out_dir, mode, deadline)
    reference = Reference()
    try:
        result = run_child(config, config_path, out_dir, mode, deadline)
        slice_iterations, marks = reference.finish()
    finally:
        reference.close()
    result["speed"] = reference_speed(
        slice_iterations, marks, result["exec_start"], result["exec_end"]
    )
    result["setup_s"] = result["ready_cpu_s"] * reference_speed(
        slice_iterations, marks, result["spawned"], result["ready_monotonic"]
    )
    return result


def read_cpu_times():
    """Aggregate CPU jiffies from /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    return (
        f"{name:<14} {statistics.median(values):.6g} {unit}"
        f"  (median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"
    )


def measure(args, config, config_path, out_root):
    """Run samples until --seconds have passed; return (samples, failures).

    Untraced runs put the reference beside every sample. Traced runs
    alternate untraced and traced samples and use no reference, so that
    per-call times and the tracing overhead are plain wall time.
    """
    samples, failures = [], []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    walls = []
    kinds = [False, True] if args.trace else [False]
    minimum = MIN_SAMPLES if not args.trace else 2 * len(kinds)
    while True:
        elapsed = time.monotonic() - start
        attempted = len(samples) + len(failures)
        typical = statistics.median(walls) if walls else 0.0
        if attempted >= minimum and elapsed + typical * len(kinds) > args.seconds:
            break
        if elapsed + typical > HARD_LIMIT_S - 10.0:
            break
        for traced in kinds:
            out_dir = out_root / f"sample{attempted}"
            attempted += 1
            began = time.monotonic()
            try:
                result = run_sample(
                    config, config_path, out_dir, traced, deadline, not args.trace
                )
            except (SampleFailure, ValueError, KeyError, TypeError) as exc:
                failures.append(f"sample {attempted} ({'traced' if traced else 'plain'}): {exc}")
            else:
                result["traced"] = traced
                samples.append(result)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            walls.append(time.monotonic() - began)
    return samples, failures


def check_digests(samples, failures, pinned):
    """Drop samples whose digests differ from the expected ones; count them failed.

    The expected digests are the pinned ones, or else the first sample's.
    """
    expected = pinned
    kept = []
    for sample in samples:
        if expected is None:
            expected = sample["digests"]
        if sample["digests"] != expected:
            failures.append(f"digests {sample['digests']} differ from {expected}")
        else:
            kept.append(sample)
    return kept


def end_to_end(plain, rounds, lines):
    """Median rate and set-up time at reference speed, and peak memory."""
    raw_rates = [rounds / s["exec_cpu_s"] for s in plain]
    rates = [r / s["speed"] for r, s in zip(raw_rates, plain)]
    setups = [s["setup_s"] for s in plain]
    rss = [s["peak_rss_mb"] for s in plain]
    lines.append(describe("speed", [s["speed"] for s in plain], "x reference"))
    lines.append(describe("cpu rounds/s", raw_rates, "1/s"))
    lines.append(describe("rounds_per_s", rates, "1/s"))
    lines.append(describe("setup_s", setups, "s"))
    lines.append(describe("peak_rss_mb", rss, "MB"))
    return {
        "rounds_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def per_layer(samples, units, lines):
    plain = [s for s in samples if not s["traced"]]
    traced = sorted((s for s in samples if s["traced"]), key=lambda s: s["exec_s"])
    chosen = traced[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["cli.import_s"] = statistics.median(s["import_s"] for s in samples)
    values["cli.load_config_s"] = statistics.median(s["load_config_s"] for s in samples)
    values["runtime.gc_s"] = statistics.median(s["gc_s"] for s in plain)
    values["runtime.gc_gen2_collections"] = statistics.median(
        s["gc_gen2_collections"] for s in plain
    )
    values["trace.overhead_frac"] = (
        statistics.median(s["exec_s"] for s in traced)
        / statistics.median(s["exec_s"] for s in plain)
        - 1.0
    )
    lines.append(
        f"# layers from the traced sample with the median wall "
        f"({len(traced)} traced, {len(plain)} untraced samples)"
    )
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:<40} {values[name]:.6g} {unit}")
    return metrics


def metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help=f"horizon divided by {TINY_DIVISOR} and no pinned digests (self-check)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "corral" / "__init__.py").is_file():
        print(f"error: no corral package under {SRC}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")

    build, horizon, num_seeds = WORKLOADS[args.workload]
    if args.tiny:
        horizon //= TINY_DIVISOR
    config = build([args.seed + i for i in range(num_seeds)], horizon)
    rounds = simulated_rounds(config)
    pinned = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[args.workload]

    # The reference and every sample share one CPU, so the reference sees
    # the same machine speed as the program; child processes inherit this.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # On SIGTERM, unwind so that the running sample and reference are killed
    # and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_1m = os.getloadavg()[0]
    cpu_before = read_cpu_times()
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        samples, failures = measure(args, config, config_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    cpu_after = read_cpu_times()
    samples = check_digests(samples, failures, pinned)
    attempted = len(samples) + len(failures)

    machine = {"nproc": os.cpu_count(), "cpu": cpu, "load_1m_at_start": load_1m}
    if samples:
        machine["python"] = samples[0]["python"]
        machine["numpy"] = samples[0]["numpy"]
    if cpu_before and cpu_after and len(cpu_before) > 7:
        total = sum(cpu_after) - sum(cpu_before)
        machine["steal_frac"] = (cpu_after[7] - cpu_before[7]) / total if total else 0.0
    lines = [
        f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{rounds} simulated rounds per sample, "
        f"pinned digests {'checked' if pinned else 'not pinned at this seed'}",
        f"# machine {json.dumps(machine, sort_keys=True)}",
    ]
    lines += [f"# FAILED {reason}" for reason in failures]
    lines.append(f"fail_frac      {len(failures) / attempted:.6g}  ({len(failures)} of {attempted} runs)")

    plain = [s for s in samples if not s["traced"]]
    have_layers = any(s["traced"] for s in samples) and plain
    if args.trace and have_layers:
        metrics = per_layer(samples, units, lines)
    elif not args.trace and plain:
        metrics = end_to_end(plain, rounds, lines)
    else:
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in units.items()}
    print("\n".join(lines))
    result = {
        "correct": not failures and bool(samples),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
