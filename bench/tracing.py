"""Outside-in tracing of the corral package for the traced benchmark run.

Every traced name is wrapped where its callers look it up: module-level
functions in every package module that imported them by name, base and
environment methods and ``FeedbackPacket.__post_init__`` on their classes,
and ``RoundRecord`` in the harness namespace. Self time comes from a span
stack: each span's duration minus the summed duration of its direct child
spans. A wrapper also costs time outside its own span (the call into it, the
stack push and pop, the bookkeeping), which would land in its caller's self
time. That cost is calibrated once per process on a wrapped no-op, taken
out of the caller's self time for every wrapped call, and reported on its
own as ``trace.overhead_s``. Whatever is left is the harness's own loop
glue, ``harness.loop_self_s``, so the reported layers always add up to the
traced wall time.

A name that a later version of the package no longer has (say, a record
type replaced by columns) is skipped and reads as zero calls.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

BASE_KINDS = ("thompson", "exp3", "exp4", "pathological")
ENV_KINDS = ("stochastic-mab", "stochastic-contextual", "adversarial-mab", "lower-bound")

# Wrapped functions whose calls and self time are reported as ``<name>.calls``
# and ``<name>.us``: (span name, defining module, attribute).
_FUNCTIONS = (
    ("core.importance_weight", "core", "importance_weight"),
    ("core.validate_simplex", "core", "validate_simplex"),
    ("core.sample_index", "core", "sample_index"),
    ("omd.omd_step", "omd", "omd_step"),
    ("omd.solve_lambda", "omd", "solve_lambda"),
    ("master.choose", "master", "choose"),
    ("master.feedback", "master", "feedback"),
    ("master.build_packets", "master", "build_packets"),
    ("master.apply_schedule", "master", "apply_schedule"),
)

# Harness phases reported as seconds per execution: (span name, attributes).
_HARNESS_PHASES = (
    ("harness.build", ("build_environment", "build_base")),
    ("harness.compute_regret", ("compute_regret",)),
    ("harness.records_to_csv", ("records_to_csv",)),
    ("harness.write_outputs", ("write_outputs",)),
)


class Tracer:
    """Span stack plus per-name call counts and self times.

    ``outside_s`` and ``hooked_outside_s`` are the seconds per call that a
    wrapper without and with an ``on_result`` hook spends outside its span
    (see ``calibrate``). They are billed to the wrapper, not to the caller.
    """

    def __init__(self, outside_s=0.0, hooked_outside_s=0.0):
        # stack[-1] accumulates the durations of the open span's direct
        # children plus their wrappers' outside cost; stack[0] is the top
        # level, i.e. the sum of all self times and all outside costs.
        self.stack = [0.0]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.outside_s = outside_s
        self.hooked_outside_s = hooked_outside_s
        self.outside_by_name = {}

    def wrap(self, name, fn, on_result=None):
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        outside_s = self.outside_s if on_result is None else self.hooked_outside_s
        self.outside_by_name[name] = outside_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                stack[-1] += elapsed + outside_s
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def covered_s(self) -> float:
        """Summed self time and outside cost of every wrapped call so far."""
        return self.stack[0]

    def overhead_s(self) -> float:
        """Summed outside cost of every wrapped call so far."""
        return sum(self.calls[name] * cost for name, cost in self.outside_by_name.items())


def calibrate(on_result=None, result=None, calls=20_000, repeats=7) -> float:
    """Seconds per call that a wrapper spends outside its own span.

    Times ``calls`` calls of a two-argument no-op, plain and wrapped. The
    wrapped loop's extra time, less what its span holds, is what the caller
    pays beyond a plain call. Median over ``repeats`` rounds.
    """

    def noop(a, b):
        return result

    probe = Tracer()
    wrapped = probe.wrap("probe", noop, on_result)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop(0, 1)
        plain = clock() - t0
        inside = probe.self_s["probe"]
        t0 = clock()
        for _ in range(calls):
            wrapped(0, 1)
        traced = clock() - t0
        inside = probe.self_s["probe"] - inside
        costs.append((traced - inside - plain) / calls)
    return max(0.0, statistics.median(costs))


def _schedule_counter(counts):
    """``on_result`` hook of ``master.feedback``: count doublings and restarts."""

    def count_schedule(outcome):
        counts["master.doublings"] += len(outcome.doublings)
        counts["master.restarts"] += len(outcome.restarts)

    return count_schedule


# What most rounds return to the schedule counter, for its calibration.
_QUIET_OUTCOME = SimpleNamespace(doublings=[], restarts=[])


def _patch_everywhere(tracer, name, original, modules, attr, on_result=None):
    wrapped = tracer.wrap(name, original, on_result)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _patch_method(tracer, name, cls, attr):
    original = getattr(cls, attr, None)
    if original is not None:
        setattr(cls, attr, tracer.wrap(name, original))


def install(corral) -> Tracer:
    """Wrap the public functions and methods of an imported ``corral`` package."""
    from corral import bases, core, envs, harness, master, omd

    tracer = Tracer(
        calibrate(), calibrate(_schedule_counter(defaultdict(int)), _QUIET_OUTCOME)
    )
    count_schedule = _schedule_counter(tracer.counts)
    modules = (corral, core, omd, master, bases, envs, harness)
    by_name = {"core": core, "omd": omd, "master": master}

    for name, home, attr in _FUNCTIONS:
        original = getattr(by_name[home], attr, None)
        if original is not None:
            hook = count_schedule if name == "master.feedback" else None
            _patch_everywhere(tracer, name, original, modules, attr, hook)

    _patch_method(tracer, "core.feedback_packet", core.FeedbackPacket, "__post_init__")

    base_classes = _classes_by_kind(bases, bases.BaseAlgorithm)
    for kind in BASE_KINDS:
        if kind in base_classes:
            for method in ("propose", "update", "reset"):
                _patch_method(tracer, f"bases.{kind}.{method}", base_classes[kind], method)

    env_classes = _classes_by_kind(envs, envs.Environment)
    for kind in ENV_KINDS:
        if kind in env_classes:
            for method in ("next_context", "loss_of"):
                _patch_method(tracer, f"envs.{kind}.{method}", env_classes[kind], method)
    _patch_method(tracer, "envs.induced.observe", envs.InducedEnvironment, "observe")

    record = getattr(harness, "RoundRecord", None)
    if record is not None:
        harness.RoundRecord = tracer.wrap("harness.round_record", record)
    for name, attrs in _HARNESS_PHASES:
        for attr in attrs:
            original = getattr(harness, attr, None)
            if original is not None:
                _patch_everywhere(tracer, name, original, (harness,), attr)
    return tracer


def _classes_by_kind(module, root) -> dict:
    return {
        obj.kind: obj
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, root) and obj is not root
    }


def layer_metrics(tracer: Tracer, wall_s: float, csv_rows: int, csv_bytes: int) -> dict:
    """Per-layer figures for one traced execution of one config."""
    out = {}

    def per_call(name):
        calls = tracer.calls.get(name, 0)
        out[f"{name}.calls"] = calls
        out[f"{name}.us"] = tracer.self_s[name] / calls * 1e6 if calls else 0.0

    for name, _, _ in _FUNCTIONS:
        per_call(name)
    per_call("core.feedback_packet")
    steps = tracer.calls.get("omd.omd_step", 0)
    out["omd.solver_reach_frac"] = (
        tracer.calls.get("omd.solve_lambda", 0) / steps if steps else 0.0
    )
    out["master.doublings"] = tracer.counts["master.doublings"]
    out["master.restarts"] = tracer.counts["master.restarts"]
    for kind in BASE_KINDS:
        for method in ("propose", "update", "reset"):
            per_call(f"bases.{kind}.{method}")
    for kind in ENV_KINDS:
        for method in ("next_context", "loss_of"):
            per_call(f"envs.{kind}.{method}")
    per_call("envs.induced.observe")
    per_call("harness.round_record")
    for name, _ in _HARNESS_PHASES:
        out[f"{name}_s"] = tracer.self_s[name]
    out["harness.csv_us_per_row"] = (
        tracer.self_s["harness.records_to_csv"] / csv_rows * 1e6 if csv_rows else 0.0
    )
    out["harness.rounds_csv_bytes"] = csv_bytes
    loop_self = wall_s - tracer.covered_s()
    out["harness.loop_self_s"] = loop_self
    out["harness.loop_self_frac"] = loop_self / wall_s
    out["trace.overhead_s"] = tracer.overhead_s()
    out["trace.wall_s"] = wall_s
    return out


def accounted_s(metrics: dict) -> float:
    """Wall time the reported layer figures add up to.

    Sums ``calls * us`` over every per-call span, every harness phase in
    seconds, ``trace.overhead_s`` and ``harness.loop_self_s``; it equals
    ``trace.wall_s`` up to float rounding when no wrapped span is left
    unreported.
    """
    total = metrics["harness.loop_self_s"] + metrics["trace.overhead_s"]
    for key, value in metrics.items():
        if key.endswith(".us"):
            total += metrics[key[: -len(".us")] + ".calls"] * value * 1e-6
    for name, _ in _HARNESS_PHASES:
        total += metrics[f"{name}_s"]
    return total
