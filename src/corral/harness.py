"""Experiment runner: wiring, seeded trials, regret accounting, CSV/JSON output.

A single JSON document configures every scenario; unknown keys are errors so
sweep typos fail loudly. The runner writes one ``rounds.csv`` (one row per
round of every seed, floats at 17 significant digits so files are
byte-stable) and one ``summary.json`` per run. Seeds are independent: every
component draws from its own named stream, so identical configs and seeds
reproduce output byte for byte and aggregation is order-independent. Every
scenario plays its rounds through one loop, ``play``, parameterized by a
feedback router. A run that writes rows keeps them as one ``RoundLog`` of
columns per seed; the CSV, regret and schedule invariants come from those.

Config schema (top-level keys; see the README for worked examples)::

    scenario      "corral-run" | "standalone-run" | "stability-test" |
                  "lowerbound-demo" | "sweep"
    horizon       rounds (>= 2)
    seeds         nonempty list of integers
    environment   {"kind": "stochastic-mab", "means": [...]}
                  {"kind": "stochastic-mab", "means_prior": [[a, b], ...]}
                  {"kind": "adversarial-mab", "script": [[...]] | "script_csv": path}
                  (at least ``horizon`` rows; the first ``horizon`` are played)
                  {"kind": "stochastic-contextual", "context_probs": [...],
                   "cond_means": [[...]], "policies": [[...]]}
                  {"kind": "lower-bound"}
    bases         list of {"kind": "exp3" | "exp4" | "epoch-greedy" |
                  "thompson" | "ucb1" | "pathological", ...kind params}
    master        {"eta": float | "tuned", "regret_target": float,
                   "restart_policy": ..., "estimator": ...}   (corral-run)
    rho_levels    list of range bounds (stability-test)
    demo          {"corral_eta": float, "naive_eta": float}   (lowerbound-demo)
    runs          list of {"name": str, "config": {...}}      (sweep; a sweep
                  sets no other key)
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import master as corral_master
from .bases import (
    BaseAlgorithm,
    EpochGreedy,
    Exp3,
    Exp4,
    PathologicalBase,
    ThompsonSampling,
    Ucb1,
    exp_weights,
)
from .core import (
    ConfigError,
    CorralError,
    FeedbackPacket,
    IntegrityError,
    UNSELECTED,
    UniformStream,
    importance_weight,
    named_rng,
    sample_index,
)
from .envs import (
    AdversarialMAB,
    Environment,
    InducedEnvironment,
    LowerBoundEnv,
    RegretBaseline,
    StochasticContextual,
    StochasticMAB,
)

SCENARIOS = ("corral-run", "standalone-run", "stability-test", "lowerbound-demo", "sweep")

ROUNDS_CSV = "rounds.csv"
SUMMARY_JSON = "summary.json"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_MASTER_KEYS = {"eta", "regret_target", "restart_policy", "estimator"}
_DEMO_KEYS = {"corral_eta", "naive_eta"}

# kind -> key groups; besides "kind", a spec holds exactly one key of each group.
_ENV_KEYS = {
    "stochastic-mab": [("means", "means_prior")],
    "adversarial-mab": [("script", "script_csv")],
    "stochastic-contextual": [("context_probs",), ("cond_means",), ("policies",)],
    "lower-bound": [],
}
_BASE_KEYS = {
    "exp3": [],
    "exp4": [("policies",)],
    "epoch-greedy": [("policies",)],
    "thompson": [("prior",)],
    "ucb1": [],
    "pathological": [("arm_pair",)],
}


def _check_spec(spec: dict, table: dict, what: str) -> None:
    """Reject an unknown kind, unknown keys, and missing or clashing keys."""
    kind = spec.get("kind")
    if kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unknown = set(spec) - {"kind"}.union(*table[kind])
    if unknown:
        raise ConfigError(f"unknown {what} keys for {kind}: {sorted(unknown)}")
    for group in table[kind]:
        if sum(key in spec for key in group) != 1:
            raise ConfigError(f"{kind} needs exactly one of {list(group)}")


def _integer(value, what: str) -> int:
    """An integer config value; ``int`` would truncate 10.9, and read
    ``true`` (a ``bool``) as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    scenario: str
    horizon: int = 0
    seeds: list[int] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    bases: list[dict] = field(default_factory=list)
    master: dict = field(default_factory=dict)
    rho_levels: list[float] = field(default_factory=list)
    demo: dict = field(default_factory=dict)
    runs: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        scenario = raw.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        # Seeds are integers, so a seeds string fails on its first character.
        if isinstance(raw.get("rho_levels"), str):
            raise ConfigError("rho_levels must be a list, got a string")
        try:
            cfg = cls(
                scenario=scenario,
                horizon=_integer(raw.get("horizon", 0), "horizon"),
                seeds=[_integer(s, "seed") for s in raw.get("seeds", [])],
                environment=dict(raw.get("environment", {})),
                bases=[dict(b) for b in raw.get("bases", [])],
                master=dict(raw.get("master", {})),
                rho_levels=[float(r) for r in raw.get("rho_levels", [])],
                demo={k: float(v) for k, v in dict(raw.get("demo", {})).items()},
                runs=[dict(r) for r in raw.get("runs", [])],
            )
            cfg.validate()
        except CorralError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return cfg

    def validate(self) -> None:
        if self.scenario == "sweep":
            if self != ExperimentConfig("sweep", runs=self.runs):
                raise ConfigError("a sweep config sets only 'scenario' and 'runs'")
            if not self.runs:
                raise ConfigError("sweep needs a nonempty 'runs' list")
            for entry in self.runs:
                if set(entry) != {"name", "config"}:
                    raise ConfigError("each sweep run needs exactly 'name' and 'config'")
                ExperimentConfig.from_dict(entry["config"])
            return
        if self.runs:
            raise ConfigError("'runs' is only valid for the sweep scenario")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        unknown = set(self.master) - _MASTER_KEYS
        if unknown:
            raise ConfigError(f"unknown master keys: {sorted(unknown)}")
        estimator = self.master.get("estimator", corral_master.ESTIMATOR_STANDARD)
        if estimator not in corral_master.ESTIMATORS:
            raise ConfigError(f"unknown estimator {estimator!r}")
        policy = self.master.get("restart_policy", corral_master.RESTART_ON_DOUBLING)
        if policy not in corral_master.RESTART_POLICIES:
            raise ConfigError(f"unknown restart policy {policy!r}")
        unknown = set(self.demo) - _DEMO_KEYS
        if unknown:
            raise ConfigError(f"unknown demo keys: {sorted(unknown)}")
        if self.scenario == "lowerbound-demo":
            if self.environment or self.bases:
                raise ConfigError(
                    "lowerbound-demo fixes its own environment and base algorithms"
                )
            # Build the two masters a run builds, once, so that bad rates fail here.
            corral_eta, naive_eta = demo_etas(self.demo, self.horizon)
            corral_master.init_master(corral_eta, 2, self.horizon)
            NaiveRouter(2, naive_eta, np.random.default_rng(0))
            return
        if not self.environment:
            raise ConfigError(f"{self.scenario} needs an environment")
        _check_spec(self.environment, _ENV_KEYS, "environment")
        for spec in self.bases:
            _check_spec(spec, _BASE_KEYS, "base")
        if self.scenario == "corral-run":
            if len(self.bases) < 2:
                raise ConfigError("corral-run needs at least 2 base algorithms")
        elif len(self.bases) != 1:
            raise ConfigError(f"{self.scenario} needs exactly 1 base algorithm")
        if self.scenario == "stability-test":
            if len(self.rho_levels) < 2:
                raise ConfigError("stability-test needs at least 2 rho levels")
            # NaN and +inf fail the range comparison itself.
            if not all(1.0 <= r < math.inf for r in self.rho_levels):
                raise ConfigError(f"rho levels must be finite and >= 1, got {self.rho_levels}")
        # Build what a run builds, once, so that bad values fail here.
        rng = np.random.default_rng(0)
        env = build_environment(self.environment, rng, self.horizon)
        for spec in self.bases:
            build_base(spec, env, self.horizon, 1.0, rng)
        if self.scenario == "corral-run":
            eta0 = master_eta(self.master, len(self.bases), self.horizon)
            corral_master.init_master(eta0, len(self.bases), self.horizon)

    def with_seed_offset(self, offset: int) -> "ExperimentConfig":
        cfg = dataclasses.replace(self, seeds=[s + offset for s in self.seeds])
        if self.scenario == "sweep":
            cfg.runs = [
                {
                    "name": entry["name"],
                    "config": dataclasses.asdict(
                        ExperimentConfig.from_dict(entry["config"]).with_seed_offset(offset)
                    ),
                }
                for entry in self.runs
            ]
        return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_environment(spec: dict, rng, horizon: int) -> Environment:
    """Environment for ``horizon`` rounds of a spec ``ExperimentConfig`` has checked."""
    kind = spec["kind"]
    if kind == "stochastic-mab":
        if "means" in spec:
            means = spec["means"]
        else:
            # Bayesian instance: the arm means themselves are drawn once per
            # run from per-arm Beta priors, using the environment stream.
            means = [float(rng.beta(a, b)) for a, b in spec["means_prior"]]
        return StochasticMAB(means, rng)
    if kind == "adversarial-mab":
        if "script" in spec:
            script = spec["script"]
        else:
            script = np.loadtxt(spec["script_csv"], delimiter=",", ndmin=2)
        if len(script) < horizon:
            raise ConfigError(f"script has {len(script)} rows, fewer than the horizon {horizon}")
        # The baseline is the best arm over the rounds actually played.
        return AdversarialMAB(script[:horizon])
    if kind == "stochastic-contextual":
        return StochasticContextual(
            spec["context_probs"], spec["cond_means"], spec["policies"], rng
        )
    return LowerBoundEnv(rng)


def build_base(
    spec: dict, env: Environment, horizon: int, range_param: float, rng
) -> BaseAlgorithm:
    """Base learner for a spec whose keys ``ExperimentConfig`` has checked."""
    kind = spec["kind"]
    if kind == "exp3":
        return Exp3(env.num_arms, horizon, range_param, rng)
    if kind == "exp4":
        return Exp4(
            spec["policies"], env.num_arms, env.num_contexts, horizon, range_param, rng
        )
    if kind == "epoch-greedy":
        return EpochGreedy(
            spec["policies"], env.num_arms, env.num_contexts, horizon, range_param, rng
        )
    if kind == "thompson":
        prior = spec["prior"]
        if len(prior) != env.num_arms:
            raise ConfigError(
                f"prior covers {len(prior)} arms but environment has {env.num_arms}"
            )
        return ThompsonSampling(prior, range_param, rng)
    if kind == "ucb1":
        return Ucb1(env.num_arms)
    pair = tuple(int(a) for a in spec["arm_pair"])
    if len(pair) != 2 or not all(0 <= a < env.num_arms for a in pair):
        raise ConfigError(f"arm_pair must be 2 arms in [0, {env.num_arms}), got {pair}")
    return PathologicalBase(pair, rng)


def demo_etas(demo: dict, horizon: int) -> tuple[float, float]:
    """The lowerbound demo's corral and naive master rates, with defaults."""
    default_eta = corral_master.tuned_eta(math.sqrt(horizon), horizon, 2)
    return float(demo.get("corral_eta", default_eta)), float(demo.get("naive_eta", 1e-4))


def master_eta(master_spec: dict, num_bases: int, horizon: int) -> float:
    eta = master_spec.get("eta")
    if eta == "tuned":
        target = master_spec.get("regret_target")
        if target is None:
            raise ConfigError("eta 'tuned' needs a 'regret_target'")
        return corral_master.tuned_eta(float(target), horizon, num_bases)
    if eta is None:
        raise ConfigError("master config needs an 'eta'")
    return float(eta)


# ---------------------------------------------------------------------------
# Round logs and summaries
# ---------------------------------------------------------------------------


@dataclass
class RoundLog:
    """The rounds of one played run as columns; row ``t - 1`` is round t.

    ``p_bar``, ``eta`` and ``rho`` (rounds x bases) hold the decision-time
    values of each round; ``fired`` marks the bases whose threshold fired
    at the end of the round.
    """

    run_id: str
    seed: int
    chosen: np.ndarray
    decision: np.ndarray
    raw_loss: np.ndarray
    cum_loss: np.ndarray
    cum_regret: np.ndarray
    p_bar: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    fired: np.ndarray


def round_log(run_id: str, seed: int, losses, baseline: RegretBaseline, router) -> RoundLog:
    """Log of a run ``play`` charged ``losses``, with its router's columns.
    ``np.cumsum`` adds in round order: the bits of a running total."""
    cum_loss = np.cumsum(losses)
    baseline_cum = np.cumsum(np.broadcast_to(baseline.per_round, losses.shape))
    return RoundLog(
        run_id, seed, raw_loss=losses, cum_loss=cum_loss,
        cum_regret=cum_loss - baseline_cum, **router.columns(),
    )


def records_to_csv(logs: list[RoundLog], out) -> None:
    """Write the round logs as CSV rows to the text stream ``out``, one row
    at a time, so no copy of the whole text is held in memory."""
    if not logs:
        raise IntegrityError("no round logs to write")
    m = logs[0].p_bar.shape[1]
    header = (
        ["run_id", "seed", "t", "chosen_base", "decision", "raw_loss", "cum_loss", "cum_regret"]
        + [f"p_bar_{i}" for i in range(m)]
        + [f"eta_{i}" for i in range(m)]
        + [f"rho_{i}" for i in range(m)]
        + ["restart_flags"]
    )
    out.write(",".join(header) + "\n")
    for log in logs:
        floats = np.column_stack(
            (log.raw_loss, log.cum_loss, log.cum_regret, log.p_bar, log.eta, log.rho)
        )
        # "%.17g" % x is format(x, ".17g"): 17 significant digits round-trip
        # a float64 exactly. A "%" in the run id is escaped, not a field.
        prefix = f"{log.run_id},{log.seed},".replace("%", "%%")
        row = prefix + "%d,%d,%d," + ",".join(["%.17g"] * floats.shape[1]) + ",%s\n"
        # ``fired`` as ASCII digits: b"0" or b"1" per base.
        digits = log.fired.view(np.uint8) + 48
        # Row by row: converting whole columns to Python objects at once
        # would hold every row's objects in memory.
        rows = zip(log.chosen.tolist(), log.decision.tolist(), floats, digits)
        for t, (chosen, decision, values, fired) in enumerate(rows, start=1):
            flags = fired.tobytes().decode()
            out.write(row % (t, chosen, decision, *values.tolist(), flags))


def compute_regret(
    logs: list[RoundLog],
    baselines: dict[int, RegretBaseline],
    horizon: int,
) -> dict:
    """Aggregate per-seed regret and re-assert schedule invariants from logs.

    Works purely from the round logs, independent of any master internals:
    checks that every log holds ``horizon`` rounds and measures the final
    regret against the seed's baseline. Also extracts per-base doubling
    counts, the max learning-rate ratio (over bases whose first rate is
    positive) and the threshold-times-probability floor, counting
    violations of each schedule invariant.
    """
    per_seed = []
    violations = {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}
    doubling_cap = math.ceil(math.log2(horizon))
    for log in logs:
        if len(log.raw_loss) != horizon:
            raise IntegrityError(
                f"seed {log.seed}: expected {horizon} rounds, got {len(log.raw_loss)}"
            )
        doubling = log.fired.sum(axis=0).tolist()
        rated = log.eta[0] > 0.0
        max_ratio = float((log.eta[:, rated] / log.eta[0, rated]).max(initial=1.0))
        if max(doubling) > doubling_cap:
            violations["doubling_count"] += 1
        if max_ratio > 5.0:
            violations["eta_cap"] += 1
        # Same non-cancelling form the schedule maintains; the product
        # rho * p_bar can round one ulp below 1.
        if (log.rho < 1.0 / log.p_bar).any():
            violations["rho_pbar"] += 1
        per_seed.append(
            {
                "seed": log.seed,
                "final_regret": float(log.cum_loss[-1]) - baselines[log.seed].cumulative(horizon),
                "doubling_counts": doubling,
                "max_eta_ratio": max_ratio,
                "min_rho_pbar": float((log.rho * log.p_bar).min()),
                "rho_final": log.rho[-1].tolist(),
            }
        )
    finals = [e["final_regret"] for e in per_seed]
    num_bases = len(per_seed[0]["doubling_counts"])
    return {
        "per_seed": per_seed,
        "mean_final_regret": float(np.mean(finals)),
        "stderr_final_regret": _stderr(finals),
        "max_eta_ratio": max(e["max_eta_ratio"] for e in per_seed),
        "doubling_counts_max": [
            max(e["doubling_counts"][i] for e in per_seed) for i in range(num_bases)
        ],
        "rho_final_mean": [
            float(np.mean([e["rho_final"][i] for e in per_seed]))
            for i in range(num_bases)
        ],
        "invariant_violations": violations,
    }


def _stderr(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


# ---------------------------------------------------------------------------
# Baselines over the right comparator classes
# ---------------------------------------------------------------------------


def union_baseline(env: Environment, bases: list[BaseAlgorithm]) -> RegretBaseline:
    """Baseline over the union of the base algorithms' decision spaces.

    Policy bases contribute their policy tables; arm-space bases contribute
    every constant (context-blind) policy.
    """
    if isinstance(env, StochasticContextual):
        union: list[tuple[int, ...]] = []
        constants_added = False
        for base in bases:
            policies = getattr(base, "policies", None)
            if policies is not None:
                union.extend(policies)
            elif not constants_added:
                union.extend((a,) * env.num_contexts for a in range(env.num_arms))
                constants_added = True
        return env.baseline(policies=union)
    return env.baseline()


# ---------------------------------------------------------------------------
# The round loop and its feedback routers
# ---------------------------------------------------------------------------
#
# A router picks whose proposal is played and feeds the round back:
# ``choose(proposals)`` returns the chosen base's index, and
# ``feed(env, chosen, proposals)`` plays its proposal and returns the loss
# the round charges, one packet per base, and the ``(base, range)`` resets
# to apply after every base has updated. A router whose rounds are logged
# keeps their choices and schedule, and ``columns()`` returns them as the
# matching ``RoundLog`` fields. A router that samples owns the generator it
# is given and serves its uniforms through a ``UniformStream``.


class CorralRouter:
    """The CORRAL master samples the base and routes its feedback packets.

    With ``naive_feed`` the bases get the demonstration's naive packets
    instead (see ``_naive_packets``); the master's own update is unchanged.
    """

    def __init__(self, state, rng, estimator: str, naive_feed: bool = False):
        self.state = state
        self.rng = UniformStream(rng)
        self.estimator = estimator
        self.naive_feed = naive_feed
        self.chosen, self.decision, self.p_bar, self.eta, self.rho = [], [], [], [], []
        self.fired = np.zeros((state.horizon, state.num_bases), dtype=bool)
        self._schedule = list(state.eta), list(state.rho)

    def choose(self, proposals: list[int]) -> int:
        return corral_master.choose(self.state, self.rng)

    def feed(self, env, chosen: int, proposals: list[int]):
        state = self.state
        decision = proposals[chosen]
        p_bar = state.p_bar
        # ``feedback`` replaces ``p_bar``, and changes ``eta`` and ``rho`` only
        # when a threshold fires, so rounds share one schedule copy until then.
        eta, rho = self._schedule
        self.chosen.append(chosen)
        self.decision.append(decision)
        self.p_bar.append(p_bar)
        self.eta.append(eta)
        self.rho.append(rho)
        raw = env.loss_of(decision)
        outcome = corral_master.feedback(state, chosen, raw)
        if self.naive_feed:
            packets = _naive_packets(state.num_bases, chosen, raw / p_bar[chosen])
        else:
            packets = corral_master.build_packets(p_bar, proposals, raw, chosen, self.estimator)
        if outcome.doublings:
            self.fired[len(self.chosen) - 1, outcome.doublings] = True
            self._schedule = list(state.eta), list(state.rho)
        resets = [(i, state.rho[i]) for i in outcome.restarts] if outcome.restarts else ()
        return raw, packets, resets

    def columns(self) -> dict:
        names = ("chosen", "decision", "p_bar", "eta", "rho")
        return {name: np.array(getattr(self, name)) for name in names} | {"fired": self.fired}


class StandaloneRouter:
    """One base drives every decision and sees its loss with probability one,
    exactly what it would see running on its own."""

    def __init__(self, base: BaseAlgorithm):
        self.range_param = base.range_param
        self.decision: list[int] = []

    def choose(self, proposals: list[int]) -> int:
        return 0

    def feed(self, env: Environment, chosen: int, proposals: list[int]):
        decision = proposals[0]
        self.decision.append(decision)
        raw = env.loss_of(decision)
        return raw, (importance_weight(raw, 1.0, True),), ()

    def columns(self) -> dict:
        rounds = len(self.decision)
        return {
            "chosen": np.zeros(rounds, dtype=np.int64),
            "decision": np.array(self.decision),
            "p_bar": np.ones((rounds, 1)),
            "eta": np.zeros((rounds, 1)),
            "rho": np.full((rounds, 1), self.range_param),
            "fired": np.zeros((rounds, 1), dtype=bool),
        }


class InducedRouter(StandaloneRouter):
    """One base inside ``InducedEnvironment``; the round charges the emitted
    importance-weighted loss."""

    def feed(self, env: InducedEnvironment, chosen: int, proposals: list[int]):
        selected, emitted = env.observe(proposals[0])
        if not selected:
            return emitted, (UNSELECTED,), ()
        packet = FeedbackPacket(True, emitted, env.sampling_prob, env.last_raw_loss)
        return emitted, (packet,), ()


class NaiveRouter:
    """Exponential weights over importance-weighted loss estimates, with the
    demonstration's naive feed to the bases."""

    def __init__(self, num_bases: int, rate: float, rng):
        if not 0.0 < rate < math.inf:
            raise ConfigError(f"naive learning rate must be finite and > 0, got {rate}")
        self.rate = rate
        self.rng = UniformStream(rng)
        self.cum_est = [0.0] * num_bases
        self.probs: list[float] = []

    def choose(self, proposals: list[int]) -> int:
        self.probs = exp_weights(self.cum_est, self.rate)
        return sample_index(self.rng, self.probs)

    def feed(self, env: Environment, chosen: int, proposals: list[int]):
        raw = env.loss_of(proposals[chosen])
        weighted = raw / self.probs[chosen]
        self.cum_est[chosen] += weighted
        return raw, _naive_packets(len(proposals), chosen, weighted), ()


def _naive_packets(num_bases: int, chosen: int, weighted: float) -> list[FeedbackPacket]:
    """Feedback as a naive master would send it: the importance-weighted
    number is presented to the sampled base as if it were a genuinely
    observed loss, and everyone else gets ``UNSELECTED``."""
    packets = [UNSELECTED] * num_bases
    packets[chosen] = FeedbackPacket(True, weighted, 1.0, weighted)
    return packets


def play(env, bases, router, horizon) -> np.ndarray:
    """Play ``horizon`` rounds; return the loss each round charged."""
    choose = router.choose
    feed = router.feed
    losses: list[float] = []
    charge = losses.append
    for _ in range(horizon):
        ctx = env.next_context()
        proposals = [b.propose(ctx) for b in bases]
        chosen = choose(proposals)
        raw, packets, resets = feed(env, chosen, proposals)
        for base, packet in zip(bases, packets):
            base.update(packet)
        for i, range_param in resets:
            bases[i].reset(range_param)
        charge(raw)
    return np.array(losses)


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def run_corral(config: ExperimentConfig) -> tuple[dict, list[RoundLog]]:
    """Full master-plus-bases loop for every seed; see the module docstring."""
    if config.scenario != "corral-run":
        raise ConfigError(f"expected corral-run config, got {config.scenario}")
    horizon = config.horizon
    num_bases = len(config.bases)
    eta0 = master_eta(config.master, num_bases, horizon)
    restart_policy = config.master.get("restart_policy", corral_master.RESTART_ON_DOUBLING)
    estimator = config.master.get("estimator", corral_master.ESTIMATOR_STANDARD)
    logs: list[RoundLog] = []
    baselines: dict[int, RegretBaseline] = {}
    per_base_regrets: list[list[float]] = []
    for seed in sorted(config.seeds):
        env = build_environment(config.environment, named_rng(seed, "env"), horizon)
        state = corral_master.init_master(eta0, num_bases, horizon, restart_policy)
        range0 = corral_master.initial_range(num_bases)
        bases = [
            build_base(spec, env, horizon, range0, named_rng(seed, f"base.{i}"))
            for i, spec in enumerate(config.bases)
        ]
        router = CorralRouter(state, named_rng(seed, "master"), estimator)
        baselines[seed] = baseline = union_baseline(env, bases)
        losses = play(env, bases, router, horizon)
        logs.append(round_log(f"corral-run:{seed}", seed, losses, baseline, router))
        cum_loss = float(logs[-1].cum_loss[-1])
        per_base_regrets.append(
            [cum_loss - union_baseline(env, [b]).cumulative(horizon) for b in bases]
        )
    summary = compute_regret(logs, baselines, horizon)
    for entry, regs in zip(summary["per_seed"], per_base_regrets):
        entry["per_base_regret"] = regs
    summary["per_base_regret_mean"] = [
        float(np.mean([regs[i] for regs in per_base_regrets]))
        for i in range(num_bases)
    ]
    summary["scenario"] = "corral-run"
    summary["horizon"] = horizon
    summary["eta"] = eta0
    summary["estimator"] = estimator
    summary["restart_policy"] = restart_policy
    return summary, logs


def run_standalone(config: ExperimentConfig) -> tuple[dict, list[RoundLog]]:
    """Counterfactual baseline: the single base drives every decision.

    The base receives a selected packet with sampling probability one every
    round, exactly what it would see running on its own.
    """
    if config.scenario != "standalone-run":
        raise ConfigError(f"expected standalone-run config, got {config.scenario}")
    horizon = config.horizon
    logs: list[RoundLog] = []
    baselines: dict[int, RegretBaseline] = {}
    for seed in sorted(config.seeds):
        env = build_environment(config.environment, named_rng(seed, "env"), horizon)
        base = build_base(config.bases[0], env, horizon, 1.0, named_rng(seed, "base.0"))
        baselines[seed] = baseline = union_baseline(env, [base])
        router = StandaloneRouter(base)
        losses = play(env, [base], router, horizon)
        logs.append(round_log(f"standalone-run:{seed}", seed, losses, baseline, router))
    summary = compute_regret(logs, baselines, horizon)
    summary["scenario"] = "standalone-run"
    summary["horizon"] = horizon
    summary["base_kind"] = config.bases[0]["kind"]
    return summary, logs


def run_stability_test(config: ExperimentConfig) -> dict:
    """Estimate the stability exponent of a base algorithm.

    For each range bound rho the base runs standalone inside the induced
    wrapper with constant sampling probability 1/rho and range parameter
    rho; regret is measured in the emitted weighted losses against the
    inner environment's baseline. The exponent is the least-squares slope
    of log mean regret against log rho at fixed horizon.
    """
    if config.scenario != "stability-test":
        raise ConfigError(f"expected stability-test config, got {config.scenario}")
    horizon = config.horizon
    per_rho = []
    for rho in config.rho_levels:
        regrets = []
        for seed in sorted(config.seeds):
            env = build_environment(config.environment, named_rng(seed, "env"), horizon)
            wrapped = InducedEnvironment(env, 1.0 / rho, named_rng(seed, "wrapper"))
            base = build_base(
                config.bases[0], env, horizon, rho, named_rng(seed, "base.0")
            )
            cum_weighted = np.cumsum(play(wrapped, [base], InducedRouter(base), horizon))
            baseline = union_baseline(env, [base])
            regrets.append(float(cum_weighted[-1]) - baseline.cumulative(horizon))
        mean = float(np.mean(regrets))
        if mean <= 0.0:
            raise IntegrityError(
                f"mean weighted regret {mean} at rho={rho} is not positive; "
                "the exponent fit needs a harder environment or longer horizon"
            )
        per_rho.append(
            {"rho": rho, "mean_regret": mean, "stderr_regret": _stderr(regrets)}
        )
    log_rho = np.log([e["rho"] for e in per_rho])
    log_reg = np.log([e["mean_regret"] for e in per_rho])
    slope = float(np.polyfit(log_rho, log_reg, 1)[0])
    return {
        "scenario": "stability-test",
        "horizon": horizon,
        "base_kind": config.bases[0]["kind"],
        "per_rho": per_rho,
        "alpha_hat": slope,
        # A class attribute, so the last base built speaks for every one.
        "certificate_alpha": base.alpha,
    }


def _half_and_full_regret(baseline: RegretBaseline, cum_loss, horizon: int):
    half = horizon // 2
    return (
        float(cum_loss[half - 1]) - baseline.cumulative(half),
        float(cum_loss[-1]) - baseline.cumulative(horizon),
    )


def run_lowerbound_demo(config: ExperimentConfig) -> tuple[dict, list[RoundLog]]:
    """Race two masters over the pathological base pair on the hard environment.

    Both masters route importance-weighted feedback naively, which shatters
    the lock-in bases; the headline statistic is regret(T) / regret(T/2),
    which sits near 2 when regret grows linearly. Both masters run at rates
    below the adaptation scale of the demo horizon (the naive rate directly,
    the corral rate via tuning for a sqrt-T regret target) so the statistic
    isolates the information failure rather than any tuning transient. The
    matched standalone leg runs the base whose pair carries the cheap losses
    directly on the same environment, where it locks in and stops regretting.

    Returns the summary and the corral leg's round logs.
    """
    if config.scenario != "lowerbound-demo":
        raise ConfigError(f"expected lowerbound-demo config, got {config.scenario}")
    horizon = config.horizon
    corral_eta, naive_eta = demo_etas(config.demo, horizon)
    # (regret at T/2, regret at T) per seed, for each leg.
    legs = {"naive": [], "corral": [], "standalone": []}
    logs: list[RoundLog] = []
    baselines: dict[int, RegretBaseline] = {}

    for seed in sorted(config.seeds):
        # The environment draws only when it is built, so the legs share it.
        env = LowerBoundEnv(named_rng(seed, "env"))
        baselines[seed] = baseline = env.baseline()

        # Naive exponential-weights master.
        bases = [
            PathologicalBase((0, 1), named_rng(seed, "naive.base.0")),
            PathologicalBase((2, 3), named_rng(seed, "naive.base.1")),
        ]
        router = NaiveRouter(2, naive_eta, named_rng(seed, "naive.master"))
        cum_loss = np.cumsum(play(env, bases, router, horizon))
        legs["naive"].append(_half_and_full_regret(baseline, cum_loss, horizon))

        # Corral master, same naive feeding of the bases.
        bases = [
            PathologicalBase((0, 1), named_rng(seed, "corral.base.0")),
            PathologicalBase((2, 3), named_rng(seed, "corral.base.1")),
        ]
        state = corral_master.init_master(corral_eta, 2, horizon)
        rng = named_rng(seed, "corral.master")
        router = CorralRouter(state, rng, corral_master.ESTIMATOR_STANDARD, naive_feed=True)
        losses = play(env, bases, router, horizon)
        logs.append(round_log(f"lowerbound-demo:{seed}", seed, losses, baseline, router))
        legs["corral"].append(_half_and_full_regret(baseline, logs[-1].cum_loss, horizon))

        # Matched standalone: the base whose pair carries the cheap losses.
        base = PathologicalBase(env.cheap_pair, named_rng(seed, "standalone.base"))
        cum_loss = np.cumsum(play(env, [base], StandaloneRouter(base), horizon))
        legs["standalone"].append(_half_and_full_regret(baseline, cum_loss, horizon))

    masters = {}
    for name in ("naive", "corral"):
        ratios = [full / half for half, full in legs[name]]
        masters[name] = {
            "mean_regret_half": float(np.mean([half for half, _ in legs[name]])),
            "mean_regret_full": float(np.mean([full for _, full in legs[name]])),
            "mean_ratio": float(np.mean(ratios)),
            "per_seed_ratio": [float(x) for x in ratios],
        }
    steps = [full - half for half, full in legs["standalone"]]
    summary = {
        "scenario": "lowerbound-demo",
        "horizon": horizon,
        "corral_eta": corral_eta,
        "naive_eta": naive_eta,
        "masters": masters,
        "standalone_matched": {
            "max_regret_step": float(max(steps)),
            "mean_regret_step": float(np.mean(steps)),
        },
    }
    log_summary = compute_regret(logs, baselines, horizon)
    summary["corral_invariants"] = log_summary["invariant_violations"]
    summary["corral_max_eta_ratio"] = log_summary["max_eta_ratio"]
    return summary, logs


# ---------------------------------------------------------------------------
# Output and dispatch
# ---------------------------------------------------------------------------


def _write_atomic(path: str, write) -> None:
    """Call ``write`` on a text stream into ``path.tmp`` and rename that over
    ``path`` only once ``write`` returns; if anything raises, the temporary
    file is removed and ``path`` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_outputs(out_dir, summary: dict, logs: list[RoundLog] | None) -> None:
    """Write ``rounds.csv`` (if there are round logs), then ``summary.json``.

    The CSV is streamed into a temporary file, and each file appears under
    its name only once complete, so a failed run never leaves a
    complete-looking summary beside a missing or truncated CSV, nor a
    leftover ``.tmp`` file.
    """
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    if logs:
        _write_atomic(os.path.join(out_dir, ROUNDS_CSV), lambda out: records_to_csv(logs, out))
    _write_atomic(os.path.join(out_dir, SUMMARY_JSON), lambda out: out.write(text))


def execute(config: ExperimentConfig, out_dir) -> dict:
    """Run any scenario and write its outputs under ``out_dir``."""
    if config.scenario == "corral-run":
        summary, logs = run_corral(config)
    elif config.scenario == "standalone-run":
        summary, logs = run_standalone(config)
    elif config.scenario == "stability-test":
        summary, logs = run_stability_test(config), None
    elif config.scenario == "lowerbound-demo":
        summary, logs = run_lowerbound_demo(config)
    else:
        summary = {"scenario": "sweep", "runs": []}
        for entry in config.runs:
            sub = ExperimentConfig.from_dict(entry["config"])
            execute(sub, os.path.join(out_dir, entry["name"]))
            summary["runs"].append({"name": entry["name"], "scenario": sub.scenario})
        write_outputs(out_dir, summary, None)
        return summary
    write_outputs(out_dir, summary, logs)
    return summary
