"""Experiment runner: wiring, seeded trials, regret accounting, CSV/JSON output.

A single JSON document configures every scenario; unknown keys are errors so
sweep typos fail loudly. The runner writes one ``rounds.csv`` (round records
for all seeds, floats at 17 significant digits so files are byte-stable) and
one ``summary.json`` per run. Seeds are independent: every component draws
from its own named stream, so identical configs and seeds reproduce output
byte for byte and aggregation is order-independent. Every scenario plays its
rounds through one loop, ``play``, parameterized by a feedback router.

Config schema (top-level keys; see the README for worked examples)::

    scenario      "corral-run" | "standalone-run" | "stability-test" |
                  "lowerbound-demo" | "sweep"
    horizon       rounds (>= 2)
    seeds         nonempty list of integers
    environment   {"kind": "stochastic-mab", "means": [...]}
                  {"kind": "stochastic-mab", "means_prior": [[a, b], ...]}
                  {"kind": "adversarial-mab", "script": [[...]] | "script_csv": path}
                  {"kind": "stochastic-contextual", "context_probs": [...],
                   "cond_means": [[...]], "policies": [[...]]}
                  {"kind": "lower-bound"}
    bases         list of {"kind": "exp3" | "exp4" | "epoch-greedy" |
                  "thompson" | "ucb1" | "pathological", ...kind params}
    master        {"eta": float | "tuned", "regret_target": float,
                   "restart_policy": ..., "estimator": ...}   (corral-run)
    rho_levels    list of range bounds (stability-test)
    demo          {"corral_eta": float, "naive_eta": float}   (lowerbound-demo)
    runs          list of {"name": str, "config": {...}}      (sweep)
"""

from __future__ import annotations

import dataclasses
import json
import math
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
        for key in ("seeds", "rho_levels"):
            if isinstance(raw.get(key), str):
                raise ConfigError(f"{key} must be a list, got a string")
        try:
            cfg = cls(
                scenario=scenario,
                horizon=int(raw.get("horizon", 0)),
                seeds=[int(s) for s in raw.get("seeds", [])],
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
            if any(r < 1.0 for r in self.rho_levels):
                raise ConfigError("rho levels must be >= 1")
        # Build what a run builds, once, so that bad values fail here.
        rng = np.random.default_rng(0)
        env = build_environment(self.environment, rng)
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


def build_environment(spec: dict, rng) -> Environment:
    """Environment for a spec whose keys ``ExperimentConfig`` has checked."""
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
            return AdversarialMAB(spec["script"])
        return AdversarialMAB.from_csv(spec["script_csv"])
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
# Round records and summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    """One CSV row: the state the round was played with, plus its outcome.

    ``p_bar``, ``eta`` and ``rho`` hold the decision-time values of round t;
    ``restart_flags`` is an M-character 0/1 string marking the bases whose
    threshold fired at the end of the round.
    """

    run_id: str
    seed: int
    t: int
    chosen_base: int
    decision: int
    raw_loss: float
    cum_loss: float
    cum_regret: float
    p_bar: tuple[float, ...]
    eta: tuple[float, ...]
    rho: tuple[float, ...]
    restart_flags: str


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def records_to_csv(records: list[RoundRecord]) -> str:
    if not records:
        raise IntegrityError("no records to write")
    m = len(records[0].p_bar)
    header = (
        ["run_id", "seed", "t", "chosen_base", "decision", "raw_loss", "cum_loss", "cum_regret"]
        + [f"p_bar_{i}" for i in range(m)]
        + [f"eta_{i}" for i in range(m)]
        + [f"rho_{i}" for i in range(m)]
        + ["restart_flags"]
    )
    lines = [",".join(header)]
    for r in records:
        row = [
            r.run_id,
            str(r.seed),
            str(r.t),
            str(r.chosen_base),
            str(r.decision),
            _fmt(r.raw_loss),
            _fmt(r.cum_loss),
            _fmt(r.cum_regret),
        ]
        row += [_fmt(x) for x in r.p_bar]
        row += [_fmt(x) for x in r.eta]
        row += [_fmt(x) for x in r.rho]
        row.append(r.restart_flags)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def compute_regret(
    records: list[RoundRecord],
    baselines: dict[int, RegretBaseline],
    horizon: int,
) -> dict:
    """Aggregate per-seed regret and re-assert schedule invariants from logs.

    Works purely from round records, independent of any master internals:
    verifies every seed logged exactly ``horizon`` consecutive rounds, that
    raw losses sum exactly to the final cumulative loss, and recomputes the
    regret from raw losses against the baseline. Also extracts per-base
    doubling counts, the max learning-rate ratio and the threshold-times-
    probability floor, counting violations of each schedule invariant.
    """
    by_seed: dict[int, list[RoundRecord]] = {}
    for r in records:
        by_seed.setdefault(r.seed, []).append(r)
    per_seed = []
    violations = {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}
    doubling_cap = math.ceil(math.log2(horizon))
    for seed in sorted(by_seed):
        rows = sorted(by_seed[seed], key=lambda r: r.t)
        if len(rows) != horizon or rows[0].t != 1 or rows[-1].t != horizon:
            raise IntegrityError(
                f"seed {seed}: expected rounds 1..{horizon}, got {len(rows)} rows"
            )
        for a, b in zip(rows, rows[1:]):
            if b.t != a.t + 1:
                raise IntegrityError(f"seed {seed}: missing round between {a.t} and {b.t}")
        cum = 0.0
        for r in rows:
            cum += r.raw_loss
        if cum != rows[-1].cum_loss:
            raise IntegrityError(f"seed {seed}: raw losses do not sum to cum_loss")
        baseline = baselines[seed]
        regret = rows[-1].cum_loss - baseline.cumulative(horizon)
        m = len(rows[0].p_bar)
        doubling = [0] * m
        max_ratio = 1.0
        min_rho_pbar = math.inf
        rho_floor_broken = False
        eta_first = rows[0].eta
        for r in rows:
            for i in range(m):
                if r.restart_flags[i] == "1":
                    doubling[i] += 1
                if eta_first[i] > 0.0:
                    max_ratio = max(max_ratio, r.eta[i] / eta_first[i])
                min_rho_pbar = min(min_rho_pbar, r.rho[i] * r.p_bar[i])
                # Same non-cancelling form the schedule maintains; the
                # product rho * p_bar can round one ulp below 1.
                if r.rho[i] < 1.0 / r.p_bar[i]:
                    rho_floor_broken = True
        if any(d > doubling_cap for d in doubling):
            violations["doubling_count"] += 1
        if max_ratio > 5.0:
            violations["eta_cap"] += 1
        if rho_floor_broken:
            violations["rho_pbar"] += 1
        per_seed.append(
            {
                "seed": seed,
                "final_regret": regret,
                "doubling_counts": doubling,
                "max_eta_ratio": max_ratio,
                "min_rho_pbar": min_rho_pbar,
                "rho_final": list(rows[-1].rho),
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


def per_base_baseline(env: Environment, base: BaseAlgorithm) -> RegretBaseline:
    """Baseline over one base's own decision space."""
    if isinstance(env, StochasticContextual):
        policies = getattr(base, "policies", None)
        if policies is not None:
            return env.baseline(policies=policies)
        return env.arm_baseline()
    return env.baseline()


# ---------------------------------------------------------------------------
# The round loop and its feedback routers
# ---------------------------------------------------------------------------
#
# A router picks whose proposal is played and feeds the round back:
# ``choose(proposals)`` returns the chosen base's index, and
# ``feed(env, chosen, proposals)`` plays its proposal and returns the loss
# the round charges, one packet per base, and the ``(base, range)`` resets
# to apply after every base has updated. A router whose rounds are recorded
# keeps ``row``, the last four ``RoundRecord`` fields of its latest round.


class CorralRouter:
    """The CORRAL master samples the base and routes its feedback packets.

    With ``naive_feed`` the bases get the demonstration's naive packets
    instead (see ``_naive_packets``); the master's own update is unchanged.
    """

    def __init__(self, state, rng, estimator: str, naive_feed: bool = False):
        self.state = state
        self.rng = rng
        self.estimator = estimator
        self.naive_feed = naive_feed
        self.choice = self.row = None

    def choose(self, proposals: list[int]) -> int:
        self.choice = corral_master.choose(self.state, proposals, self.rng)
        return self.choice.base

    def feed(self, env, chosen: int, proposals: list[int]):
        state = self.state
        choice = self.choice
        p_bar = tuple(state.p_bar)
        eta = tuple(state.eta)
        rho = tuple(state.rho)
        raw = env.loss_of(choice.decision)
        outcome = corral_master.feedback(state, choice, raw, proposals, self.estimator)
        packets = outcome.packets
        if self.naive_feed:
            packets = _naive_packets(state.num_bases, chosen, raw / p_bar[chosen])
        doublings = outcome.doublings
        flags = "".join("1" if i in doublings else "0" for i in range(state.num_bases))
        self.row = (p_bar, eta, rho, flags)
        resets = [(i, state.rho[i]) for i in outcome.restarts] if outcome.restarts else ()
        return raw, packets, resets


class StandaloneRouter:
    """One base drives every decision and sees its loss with probability one,
    exactly what it would see running on its own."""

    def __init__(self, base: BaseAlgorithm):
        self.row = ((1.0,), (0.0,), (base.range_param,), "0")

    def choose(self, proposals: list[int]) -> int:
        return 0

    def feed(self, env: Environment, chosen: int, proposals: list[int]):
        raw = env.loss_of(proposals[0])
        return raw, (importance_weight(raw, 1.0, True),), ()


class InducedRouter(StandaloneRouter):
    """One base inside ``InducedEnvironment``; the round charges the emitted
    importance-weighted loss."""

    def feed(self, env: InducedEnvironment, chosen: int, proposals: list[int]):
        selected, emitted = env.observe(proposals[0])
        raw = env.last_raw_loss if selected else None
        return emitted, (FeedbackPacket(selected, emitted, env.sampling_prob, raw),), ()


class NaiveRouter:
    """Exponential weights over importance-weighted loss estimates, with the
    demonstration's naive feed to the bases."""

    def __init__(self, num_bases: int, rate: float, rng):
        self.rate = rate
        self.rng = rng
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


# Packets are immutable, so every naive zero round can share one.
_NAIVE_ZERO_ROUND = FeedbackPacket(False, 0.0, 1.0)


def _naive_packets(num_bases: int, chosen: int, weighted: float) -> list[FeedbackPacket]:
    """Feedback as a naive master would send it: the importance-weighted
    number is presented to the sampled base as if it were a genuinely
    observed loss, and everyone else gets a zero round."""
    packets = [_NAIVE_ZERO_ROUND] * num_bases
    packets[chosen] = FeedbackPacket(True, weighted, 1.0, weighted)
    return packets


def play(env, bases, router, horizon, records=None, run_id="", seed=0, baseline=None):
    """Play ``horizon`` rounds; return the cumulative charged loss at the end
    and after round ``horizon // 2``.

    With a ``records`` list, one ``RoundRecord`` per round is appended to it,
    its regret measured against ``baseline``.
    """
    choose = router.choose
    feed = router.feed
    half = horizon // 2
    cum_loss = half_loss = baseline_cum = 0.0
    for t in range(1, horizon + 1):
        ctx = env.next_context()
        proposals = [b.propose(ctx) for b in bases]
        chosen = choose(proposals)
        raw, packets, resets = feed(env, chosen, proposals)
        for base, packet in zip(bases, packets):
            base.update(packet)
        for i, range_param in resets:
            bases[i].reset(range_param)
        cum_loss += raw
        if t == half:
            half_loss = cum_loss
        if records is not None:
            baseline_cum += baseline.rate_at(t - 1)
            records.append(
                RoundRecord(
                    run_id, seed, t, chosen, proposals[chosen], raw, cum_loss,
                    cum_loss - baseline_cum, *router.row,
                )
            )
    return cum_loss, half_loss


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def run_corral(config: ExperimentConfig) -> tuple[dict, list[RoundRecord]]:
    """Full master-plus-bases loop for every seed; see the module docstring."""
    if config.scenario != "corral-run":
        raise ConfigError(f"expected corral-run config, got {config.scenario}")
    horizon = config.horizon
    num_bases = len(config.bases)
    eta0 = master_eta(config.master, num_bases, horizon)
    restart_policy = config.master.get("restart_policy", corral_master.RESTART_ON_DOUBLING)
    estimator = config.master.get("estimator", corral_master.ESTIMATOR_STANDARD)
    records: list[RoundRecord] = []
    baselines: dict[int, RegretBaseline] = {}
    per_base_regrets: list[list[float]] = []
    for seed in sorted(config.seeds):
        env = build_environment(config.environment, named_rng(seed, "env"))
        state = corral_master.init_master(eta0, num_bases, horizon, restart_policy)
        range0 = corral_master.initial_range(num_bases)
        bases = [
            build_base(spec, env, horizon, range0, named_rng(seed, f"base.{i}"))
            for i, spec in enumerate(config.bases)
        ]
        router = CorralRouter(state, named_rng(seed, "master"), estimator)
        baselines[seed] = baseline = union_baseline(env, bases)
        cum_loss, _ = play(
            env, bases, router, horizon, records, f"corral-run:{seed}", seed, baseline
        )
        per_base_regrets.append(
            [cum_loss - per_base_baseline(env, b).cumulative(horizon) for b in bases]
        )
    summary = compute_regret(records, baselines, horizon)
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
    return summary, records


def run_standalone(config: ExperimentConfig) -> tuple[dict, list[RoundRecord]]:
    """Counterfactual baseline: the single base drives every decision.

    The base receives a selected packet with sampling probability one every
    round, exactly what it would see running on its own.
    """
    if config.scenario != "standalone-run":
        raise ConfigError(f"expected standalone-run config, got {config.scenario}")
    horizon = config.horizon
    records: list[RoundRecord] = []
    baselines: dict[int, RegretBaseline] = {}
    for seed in sorted(config.seeds):
        env = build_environment(config.environment, named_rng(seed, "env"))
        base = build_base(config.bases[0], env, horizon, 1.0, named_rng(seed, "base.0"))
        baselines[seed] = baseline = per_base_baseline(env, base)
        router = StandaloneRouter(base)
        play(env, [base], router, horizon, records, f"standalone-run:{seed}", seed, baseline)
    summary = compute_regret(records, baselines, horizon)
    summary["scenario"] = "standalone-run"
    summary["horizon"] = horizon
    summary["base_kind"] = config.bases[0]["kind"]
    return summary, records


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
    certificate_alpha = None
    for rho in config.rho_levels:
        regrets = []
        for seed in sorted(config.seeds):
            env = build_environment(config.environment, named_rng(seed, "env"))
            wrapped = InducedEnvironment(env, 1.0 / rho, named_rng(seed, "wrapper"))
            base = build_base(
                config.bases[0], env, horizon, rho, named_rng(seed, "base.0")
            )
            if base.certificate is not None:
                certificate_alpha = base.certificate.alpha
            cum_weighted, _ = play(wrapped, [base], InducedRouter(base), horizon)
            baseline = per_base_baseline(env, base)
            regrets.append(cum_weighted - baseline.cumulative(horizon))
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
        "certificate_alpha": certificate_alpha,
    }


def _half_and_full_regret(baseline: RegretBaseline, losses, horizon: int):
    full_loss, half_loss = losses
    return (
        half_loss - baseline.cumulative(horizon // 2),
        full_loss - baseline.cumulative(horizon),
    )


def run_lowerbound_demo(config: ExperimentConfig) -> tuple[dict, list[RoundRecord]]:
    """Race two masters over the pathological base pair on the hard environment.

    Both masters route importance-weighted feedback naively, which shatters
    the lock-in bases; the headline statistic is regret(T) / regret(T/2),
    which sits near 2 when regret grows linearly. Both masters run at rates
    below the adaptation scale of the demo horizon (the naive rate directly,
    the corral rate via tuning for a sqrt-T regret target) so the statistic
    isolates the information failure rather than any tuning transient. The
    matched standalone leg runs the base whose pair carries the cheap losses
    directly on the same environment, where it locks in and stops regretting.

    Returns the summary and the corral leg's round records.
    """
    if config.scenario != "lowerbound-demo":
        raise ConfigError(f"expected lowerbound-demo config, got {config.scenario}")
    horizon = config.horizon
    default_eta = corral_master.tuned_eta(math.sqrt(horizon), horizon, 2)
    corral_eta = float(config.demo.get("corral_eta", default_eta))
    naive_eta = float(config.demo.get("naive_eta", 1e-4))
    # (regret at T/2, regret at T) per seed, for each leg.
    legs = {"naive": [], "corral": [], "standalone": []}
    records: list[RoundRecord] = []
    baselines: dict[int, RegretBaseline] = {}

    for seed in sorted(config.seeds):
        # Naive exponential-weights master.
        env = LowerBoundEnv(named_rng(seed, "env"))
        bases = [
            PathologicalBase((0, 1), named_rng(seed, "naive.base.0")),
            PathologicalBase((2, 3), named_rng(seed, "naive.base.1")),
        ]
        router = NaiveRouter(2, naive_eta, named_rng(seed, "naive.master"))
        losses = play(env, bases, router, horizon)
        legs["naive"].append(_half_and_full_regret(env.baseline(), losses, horizon))

        # Corral master, same naive feeding of the bases.
        env = LowerBoundEnv(named_rng(seed, "env"))
        baselines[seed] = baseline = env.baseline()
        bases = [
            PathologicalBase((0, 1), named_rng(seed, "corral.base.0")),
            PathologicalBase((2, 3), named_rng(seed, "corral.base.1")),
        ]
        state = corral_master.init_master(corral_eta, 2, horizon)
        rng = named_rng(seed, "corral.master")
        router = CorralRouter(state, rng, corral_master.ESTIMATOR_STANDARD, naive_feed=True)
        losses = play(
            env, bases, router, horizon, records, f"lowerbound-demo:{seed}", seed, baseline
        )
        legs["corral"].append(_half_and_full_regret(baseline, losses, horizon))

        # Matched standalone: the base whose pair carries the cheap losses.
        env = LowerBoundEnv(named_rng(seed, "env"))
        base = PathologicalBase(env.cheap_pair, named_rng(seed, "standalone.base"))
        losses = play(env, [base], StandaloneRouter(base), horizon)
        legs["standalone"].append(_half_and_full_regret(env.baseline(), losses, horizon))

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
    log_summary = compute_regret(records, baselines, horizon)
    summary["corral_invariants"] = log_summary["invariant_violations"]
    summary["corral_max_eta_ratio"] = log_summary["max_eta_ratio"]
    return summary, records


# ---------------------------------------------------------------------------
# Output and dispatch
# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_outputs(out_dir, summary: dict, records: list[RoundRecord] | None) -> None:
    """Write ``rounds.csv`` (if there are records), then ``summary.json``.

    The CSV is formatted before anything is written, and each file appears
    under its name only once complete, so a failed run never leaves a
    complete-looking summary beside a missing or truncated CSV.
    """
    csv_text = records_to_csv(records) if records else None
    os.makedirs(out_dir, exist_ok=True)
    if csv_text is not None:
        _write_atomic(os.path.join(out_dir, ROUNDS_CSV), csv_text)
    _write_atomic(
        os.path.join(out_dir, SUMMARY_JSON),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )


def execute(config: ExperimentConfig, out_dir) -> dict:
    """Run any scenario and write its outputs under ``out_dir``."""
    if config.scenario == "corral-run":
        summary, records = run_corral(config)
    elif config.scenario == "standalone-run":
        summary, records = run_standalone(config)
    elif config.scenario == "stability-test":
        summary, records = run_stability_test(config), None
    elif config.scenario == "lowerbound-demo":
        summary, records = run_lowerbound_demo(config)
    else:
        summary = {"scenario": "sweep", "runs": []}
        for entry in config.runs:
            sub = ExperimentConfig.from_dict(entry["config"])
            execute(sub, os.path.join(out_dir, entry["name"]))
            summary["runs"].append({"name": entry["name"], "scenario": sub.scenario})
        write_outputs(out_dir, summary, None)
        return summary
    write_outputs(out_dir, summary, records)
    return summary
