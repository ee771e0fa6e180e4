"""Experiment runner: wiring, seeded trials, regret accounting, CSV/JSON output.

A single JSON document configures every scenario. Its schema is ``_LEVELS``
(each level's keys by its kind) and ``_VALUES`` (every other key's JSON type
and depth); README's key tables describe them. Loading fills in the defaults
and a tuned rate: ``master`` becomes ``{"eta", "estimator",
"restart_policy"}`` and ``demo`` ``{"corral_eta", "naive_eta"}``.

The runner writes one ``rounds.csv`` (one row per round of every seed, floats
at 17 significant digits so files are byte-stable) and one ``summary.json``
per run. Seeds are independent: every component draws from its own named
stream, so identical configs and seeds reproduce output byte for byte and
aggregation is order-independent. One function, ``run_seed``, plays a seed of
any scenario: ``build_legs`` builds its environment and one router per leg,
each with its bases (a standalone leg is an induced leg at sampling
probability one), ``play`` plays every leg over one realization, and
``run_seed`` returns a picklable ``SeedResult`` of leg regrets and, for a run
that writes rows, one ``RoundLog`` of columns and its leg's index. Each
runner summarizes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
import warnings
from array import array
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
    ContractError,
    CorralError,
    FeedbackPacket,
    IntegrityError,
    UNSELECTED,
    UniformStream,
    named_rng,
    sample_index,
    shown,
    trusted_packet,
)
from .envs import (
    BLOCK,
    AdversarialMAB,
    Environment,
    InducedEnvironment,
    LowerBoundEnv,
    StochasticContextual,
    StochasticMAB,
)

ROUNDS_CSV = "rounds.csv"
SUMMARY_JSON = "summary.json"
# Most rows ``records_to_csv`` formats with one call and writes at once.
CSV_BLOCK = 1024


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Each key that holds an object or a list of objects: the object's name in
# messages, whether the key holds a list, its kind key, and its rows of key
# groups by the kind key's value; see ``_check_spec``. "config" is also the
# document itself.
_PLAYED = [("horizon",), ("seeds",)]
_LEVELS = {
    "config": ("config", False, "scenario", {
        "corral-run": [*_PLAYED, ("environment",), ("bases",), ("master",)],
        "standalone-run": [*_PLAYED, ("environment",), ("bases",)],
        "stability-test": [*_PLAYED, ("environment",), ("bases",), ("rho_levels",)],
        "lowerbound-demo": [*_PLAYED, ("demo", None)],
        "sweep": [("runs",)],
    }),
    "runs": ("sweep run", True, None, {None: [("name",), ("config",)]}),
    "master": ("master", False, None, {
        None: [("eta", "regret_target"), ("estimator", None), ("restart_policy", None)],
    }),
    "demo": ("demo", False, None, {None: [("corral_eta", None), ("naive_eta", None)]}),
    "environment": ("environment", False, "kind", {
        "stochastic-mab": [("means", "means_prior")],
        "adversarial-mab": [("script", "script_csv")],
        "stochastic-contextual": [("context_probs",), ("cond_means",), ("policies",)],
        "lower-bound": [],
    }),
    "bases": ("base", True, "kind", {
        "exp3": [], "ucb1": [], "exp4": [("policies",)], "epoch-greedy": [("policies",)],
        "thompson": [("prior",)], "pathological": [("arm_pair",)],
    }),
}
# Every other key's JSON type and depth, by rows of keys that nest 0 (one
# value), 1 (a list) or 2 (a table, a list of lists) deep.
_VALUES = {key: (kind, depth) for kind, rows in {
    "string": ["scenario kind estimator restart_policy script_csv name"],
    "integer": ["horizon", "seeds arm_pair", "policies"],
    "number": ["eta regret_target corral_eta naive_eta", "rho_levels means context_probs",
               "means_prior script cond_means prior"],
}.items() for depth, keys in enumerate(rows) for key in keys.split()}
# The least integer that ``float`` rejects: half an ulp past the largest float.
_FLOAT_OVERFLOW = 2**1024 - 2**970
# Each base kind's class; its ``alpha`` is every such base's exponent.
_BASE_CLASSES = {
    b.kind: b for b in (Exp3, Exp4, EpochGreedy, ThompsonSampling, Ucb1, PathologicalBase)
}


def _check_spec(spec, level: str = "config") -> None:
    """Reject a spec of ``level`` (a key of ``_LEVELS``) that is not an object
    or whose kind, the value of the level's kind key, has no row. Besides the
    kind key, the spec must hold exactly one key of each group of its row, or
    at most one of a group that ends in None, and no other key. Then each
    value is checked in order: by ``_check_value``, or a level's by recursion."""
    what, _, key, table = _LEVELS[level]
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {type(spec).__name__}")
    if key in spec:
        _check_value(spec[key], key)
    kind = spec.get(key)
    if kind not in table:
        raise ConfigError(f"unknown {what} {key} {shown(kind)}")
    name = what if kind is None else f"{kind} {what}"
    groups = table[kind]
    unknown = set(spec) - {key}.union(*groups)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {shown(sorted(unknown))}")
    for group in groups:
        keys = [k for k in group if k is not None]
        found = sum(k in spec for k in keys)
        if found > 1 or found < (group[-1] is not None):
            bound = "at most" if group[-1] is None else "exactly"
            raise ConfigError(f"{name} needs {bound} one of {keys}")
    for k, value in spec.items():
        if k in _VALUES:
            _check_value(value, k)
        elif _LEVELS[k][1] and not isinstance(value, list):
            raise ConfigError(f"{k} takes a list, got {type(value).__name__}")
        else:
            for entry in value if _LEVELS[k][1] else [value]:
                _check_spec(entry, k)


def _check_value(value, key: str, depth: int | None = None) -> None:
    """Reject a raw config value not of its key's JSON type and depth in
    ``_VALUES`` (``depth``, the key's unless given, is what nests inside
    ``value``): Python reads ``true`` as 1 and ``"0.5"`` as 0.5; ``int``
    truncates 1.9. An integer too large for a float fails here too, naming
    its key, not where a float is first made of it."""
    kind, top = _VALUES[key]
    depth = top if depth is None else depth
    if isinstance(value, (dict, list, tuple)) and not top:
        raise ConfigError(f"{key} takes one value, got {type(value).__name__}")
    elif isinstance(value, (list, tuple)) and depth:
        # One set of types per list, and a table's cells as one list: a long
        # float script costs no call per cell or row. Only an integer can be
        # too large for a float, so a list holding one is checked by cell.
        kinds = set(map(type, value))
        if depth == 2 and kinds <= {list, tuple}:
            _check_value(list(itertools.chain.from_iterable(value)), key, 1)
            widths = sorted(set(map(len, value)))
            if len(widths) > 1:
                raise ConfigError(f"{key} rows must have one length, got lengths {widths}")
            if key in ("prior", "means_prior") and widths not in ([], [2]):  # Beta pseudo-counts
                raise ConfigError(f"{key} rows must be [a, b] pairs, got rows of {widths[0]}")
        elif depth == 2 or not kinds <= (set() if kind == "integer" else {float}):
            for v in value:
                _check_value(v, key, depth - 1)
    elif isinstance(value, str):
        if kind != "string":
            raise ConfigError(f"{key} takes no string, got {shown(value)}")
    elif kind == "string":
        raise ConfigError(f"{key} takes a string, got {shown(value)}")
    elif isinstance(value, bool) or not isinstance(
        value, numbers.Integral if kind == "integer" else numbers.Real
    ):
        raise ConfigError(f"{key} takes {kind}s, got {shown(value)}")
    elif depth:
        raise ConfigError(f"{key} takes {('a list', 'a table')[top - 1]}, got {shown(value)}")
    elif isinstance(value, int) and abs(value) >= _FLOAT_OVERFLOW:
        raise ConfigError(f"{key} takes {kind}s a float can hold, "
                          f"got an integer of {len(repr(value).lstrip('-'))} digits")


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
        try:
            _check_spec(raw)
            return cls._from_checked(raw)
        except CorralError:
            raise
        except (TypeError, ValueError, OverflowError, KeyError, RecursionError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    @classmethod
    def _from_checked(cls, raw: dict) -> "ExperimentConfig":
        """The validated config of a document ``_check_spec`` has walked; a
        sweep's runs are built the same way, and not walked again."""
        cfg = cls(
            scenario=raw["scenario"],
            horizon=int(raw.get("horizon", 0)),
            seeds=[int(s) for s in raw.get("seeds", [])],
            environment=raw.get("environment", {}),
            bases=list(raw.get("bases", [])),
            master=raw.get("master", {}),
            rho_levels=[float(r) for r in raw.get("rho_levels", [])],
            demo=raw.get("demo", {}),
            runs=[dict(entry, config=cls._from_checked(entry["config"]))
                  for entry in raw.get("runs", [])],
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check the values the key tables leave open, resolve the master's
        and the demo's settings, and build the first seed's legs."""
        if self.scenario == "sweep":
            if not self.runs:
                raise ConfigError("sweep needs a nonempty 'runs' list")
            # Each run writes to the subdirectory of its name, beside the sweep's own
            # summary file and its temporary twin; a lone surrogate names no path.
            names = [entry["name"] for entry in self.runs]
            reserved = ("", ".", "..", SUMMARY_JSON, SUMMARY_JSON + ".tmp")
            for name in names:
                if (name in reserved or set(name) & {"/", "\0", os.sep, os.altsep}
                        or any("\ud800" <= c <= "\udfff" for c in name)):
                    raise ConfigError("sweep run name must be one path component not in "
                                      f"{reserved}, got {shown(name)}")
            if len(set(names)) != len(names):
                raise ConfigError(f"sweep run names must be distinct, got {shown(names)}")
            return
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {shown(self.seeds)}")
        # ``named_rng`` keys streams on 64-bit seeds; any other seed aliases one.
        if not all(0 <= s < 2**64 for s in self.seeds):
            raise ConfigError(f"seeds must lie in [0, 2**64), got {shown(self.seeds)}")
        if self.scenario == "lowerbound-demo":
            default_eta = corral_master.tuned_eta(math.sqrt(self.horizon), self.horizon, 2)
            self.demo = {"corral_eta": float(self.demo.get("corral_eta", default_eta)),
                         "naive_eta": float(self.demo.get("naive_eta", 1e-4))}
        else:
            spec = self.environment
            if spec["kind"] == "adversarial-mab":
                # Every seed plays this one array; no parsed row is kept.
                script = (_read_script_csv(spec["script_csv"])
                          if "script_csv" in spec else spec["script"])
                self.environment = {"kind": spec["kind"],
                                    "script": np.asarray(script, dtype=np.float64)}
                # Every row is checked, also the rows past the horizon.
                AdversarialMAB(self.environment["script"])
            if self.scenario != "corral-run":
                if len(self.bases) != 1:
                    raise ConfigError(f"{self.scenario} needs exactly 1 base algorithm")
            elif len(self.bases) < 2:
                raise ConfigError("corral-run needs at least 2 base algorithms")
            else:
                eta = self.master.get("eta")
                if eta is None:
                    eta = corral_master.tuned_eta(
                        float(self.master["regret_target"]), self.horizon, len(self.bases))
                self.master = {
                    "eta": float(eta),
                    "estimator": self.master.get("estimator", corral_master.ESTIMATOR_STANDARD),
                    "restart_policy": self.master.get(
                        "restart_policy", corral_master.RESTART_ON_DOUBLING),
                }
                if self.master["estimator"] not in corral_master.ESTIMATORS:
                    raise ConfigError(f"unknown estimator {shown(self.master['estimator'])}")
        if self.scenario == "stability-test":
            levels = self.rho_levels
            if len(levels) < 2:
                raise ConfigError("stability-test needs at least 2 rho levels")
            # NaN and +inf fail the range comparison itself.
            if not all(1.0 <= r < math.inf for r in levels):
                raise ConfigError(f"rho levels must be finite and >= 1, got {shown(levels)}")
            # Equal levels replay identical legs, which add no point to the fit.
            if len(set(levels)) != len(levels):
                raise ConfigError(f"rho levels must be distinct, got {shown(levels)}")
        # Build seed 0's legs (nothing sized by the horizon) so bad values fail here.
        # Every seed's round log, 40 + 8 * bases bytes a round, is held until
        # the outputs are written; a stability test logs no rounds.
        widths = [len(r.bases) for r in build_legs(self, self.seeds[0])[1] if r.logged]
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if widths and len(self.seeds) * self.horizon * (40 + 8 * widths[0]) > memory:
            raise ConfigError(f"the round logs of a horizon of {self.horizon} do not fit in memory")


def _read_script_csv(path) -> np.ndarray:
    """The rows of a ``script_csv`` file. A file that cannot be opened or
    parsed, or that holds no rows (numpy only warns of that), fails."""
    try:
        with warnings.catch_warnings(action="error"):
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError, Warning) as exc:
        raise ConfigError(f"cannot read script_csv {path!r}: {exc}") from exc


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's pairs as a dict; ``json`` would keep a repeated key's last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {shown(key)} in one object")
        obj[key] = value
    return obj


# An int that shows as its literal; named ``int`` for the messages that name a type.
_LiteralInt = type("int", (int,), {"__repr__": lambda self: self.text})


def _parse_int(text: str) -> int:
    """``int(text)``, or for a literal past ``int``'s digit limit the least int
    of its sign that no float holds, which ``_check_value`` rejects by key."""
    try:
        return int(text)
    except ValueError:
        value = _LiteralInt(-_FLOAT_OVERFLOW if text[0] == "-" else _FLOAT_OVERFLOW)
        value.text = text
        return value


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        raw = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


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
            prior = spec["means_prior"]
            # numpy's beta draws 0 for an infinite b and NaN for an infinite a.
            if not all(0.0 < x < math.inf for pair in prior for x in pair):
                raise ConfigError("means_prior pseudo-counts must be finite and > 0, "
                                  f"got {shown(prior)}")
            means = [float(rng.beta(a, b)) for a, b in prior]
        return StochasticMAB(means, rng)
    if kind == "adversarial-mab":
        script = spec["script"]
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
        return Exp3(env.num_arms, horizon, range_param, rng, env.num_contexts)
    if kind in ("exp4", "epoch-greedy"):
        return _BASE_CLASSES[kind](
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
        raise ConfigError(f"arm_pair must be 2 arms in [0, {env.num_arms}), got {shown(pair)}")
    return PathologicalBase(pair, rng)


def build_legs(config: ExperimentConfig, seed: int) -> tuple[Environment, list]:
    """The environment ``seed`` plays and one router per leg, in order, from
    its named streams: a corral run's master; an induced router at probability
    one for a standalone run, and at 1/rho for each rho level of a stability
    test; and the demo's naive, corral and matched standalone routers. Only
    the router of the leg a run logs is ``logged``."""
    horizon = config.horizon
    if config.scenario == "lowerbound-demo":
        env = LowerBoundEnv(named_rng(seed, "env"))
        state = corral_master.init_master(config.demo["corral_eta"], 2, horizon)
        naive, corral = ([PathologicalBase(pair, named_rng(seed, f"{name}.base.{i}"))
                          for i, pair in enumerate([(0, 1), (2, 3)])]
                         for name in ("naive", "corral"))
        # Matched standalone: the base whose pair carries the cheap losses.
        base = PathologicalBase(env.cheap_pair, named_rng(seed, "standalone.base"))
        return env, [
            NaiveRouter(naive, config.demo["naive_eta"], named_rng(seed, "naive.master")),
            CorralRouter(corral, state, named_rng(seed, "corral.master"), naive_packets),
            InducedRouter(base, 1.0, named_rng(seed, "standalone.wrapper")),
        ]
    env = build_environment(config.environment, named_rng(seed, "env"), horizon)
    if config.scenario == "corral-run":
        master = config.master
        state = corral_master.init_master(
            master["eta"], len(config.bases), horizon, master["restart_policy"])
        # Each base's first range is its threshold at the master's start.
        bases = [
            build_base(spec, env, horizon, state.rho[i], named_rng(seed, f"base.{i}"))
            for i, spec in enumerate(config.bases)
        ]
        packets = corral_master.PACKETS[master["estimator"]]
        return env, [CorralRouter(bases, state, named_rng(seed, "master"), packets)]
    logged = config.scenario == "standalone-run"
    return env, [
        InducedRouter(build_base(config.bases[0], env, horizon, rho, named_rng(seed, "base.0")),
                      rho, named_rng(seed, "wrapper"), logged)
        for rho in (config.rho_levels if config.scenario == "stability-test" else [1.0])
    ]


# ---------------------------------------------------------------------------
# Round logs and summaries
# ---------------------------------------------------------------------------


@dataclass
class RoundLog:
    """The rounds of one played run as columns; row ``t - 1`` is round t.

    ``p_bar`` (rounds x bases) holds each round's decision-time values, and
    ``schedule`` the rates as ``(first row, eta, rho, fired)`` entries: one
    at row 0, and one for each round in which a threshold fired, listing
    the bases that fired at the end of the row before it. An entry's rates
    decided its rows up to the next entry's first; a firing in the last
    round leaves an entry with no rows. The columns take 40 + 8 * bases
    bytes a round; ``play`` and the logged router fill them in place.
    """

    run_id: str
    seed: int
    chosen: np.ndarray
    decision: np.ndarray
    raw_loss: np.ndarray
    cum_loss: np.ndarray
    cum_regret: np.ndarray
    p_bar: np.ndarray
    schedule: list[tuple[int, list[float], list[float], list[int]]]


@dataclass
class SeedResult:
    """One seed's play of a scenario as plain data, which pickles: each leg's
    ``(regret at T/2, regret at T)`` in leg order, the logged leg's round log
    and its index into ``regrets`` (0 for a corral or standalone run, 1 for
    the demo), and a corral run's regret against each base's own class."""

    seed: int
    regrets: list[tuple[float, float]] = field(default_factory=list)
    log: RoundLog | None = None
    logged_leg: int | None = None
    per_base_regret: list[float] = field(default_factory=list)


def records_to_csv(logs: list[RoundLog], out) -> None:
    """Write the round logs as CSV rows to the text stream ``out``.

    Each entry of a log's ``schedule`` covers its rows up to the next
    entry's first row, and its rates are formatted once, into a row
    template; the last of its rows also takes the next entry's ``fired``
    flags. The rows are then formatted in blocks of at most ``CSV_BLOCK``
    rows, one ``%`` call and one ``write`` per block, so no more than one
    block of text is held in memory.
    """
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
        rounds = len(log.chosen)
        # The columns after ``t`` and before the schedule's, in row order.
        front = [log.chosen, log.decision, log.raw_loss, log.cum_loss, log.cum_regret, *log.p_bar.T]
        width = 1 + len(front)
        # "%.17g" % x is format(x, ".17g"): 17 significant digits round-trip
        # a float64 exactly. A "%" in the run id is escaped, not a field;
        # the formatted rates and flags hold none.
        prefix = f"{log.run_id},{log.seed},".replace("%", "%%")
        head = prefix + "%d,%d,%d" + ",%.17g" * (len(front) - 2) + ","
        schedule = log.schedule + [(rounds, None, None, ())]
        for (start, eta, rho, _), (stop, _, _, fired) in zip(schedule, schedule[1:]):
            rates = head + ("%.17g," * len(eta + rho)) % tuple(eta + rho)
            flags = "".join("01"[i in fired] for i in range(len(eta)))
            # The entry's rows but its last, then its last with the flags.
            split = max(start, stop - 1)
            for lo, hi, digits in ((start, split, "0" * len(eta)), (split, stop, flags)):
                row = rates + digits + "\n"
                for first in range(lo, hi, CSV_BLOCK):
                    last = min(first + CSV_BLOCK, hi)
                    # The block's fields in row order: field j of each row is
                    # every ``width``-th value from value j.
                    values = [None] * (width * (last - first))
                    values[0::width] = range(first + 1, last + 1)
                    for j, column in enumerate(front, start=1):
                        values[j::width] = column[first:last].tolist()
                    out.write((row * (last - first)) % tuple(values))


def compute_regret(results: list[SeedResult], horizon: int) -> dict:
    """Aggregate per-seed regret and re-assert schedule invariants from the
    seeds' logged legs.

    Works purely from each round log and its leg's regret, independent of
    any master internals: checks that every log holds ``horizon`` rounds and
    reports the regret at T that ``run_seed`` scored. Also extracts per-base
    doubling counts, the max learning-rate ratio (over bases whose first
    rate is positive) and the threshold-times-probability floor from the
    schedule, counting violations of each schedule invariant.
    """
    per_seed = []
    violations = {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}
    doubling_cap = math.ceil(math.log2(horizon))
    for result in results:
        log = result.log
        if len(log.raw_loss) != horizon:
            raise IntegrityError(
                f"seed {log.seed}: expected {horizon} rounds, got {len(log.raw_loss)}"
            )
        fired = [i for entry in log.schedule for i in entry[3]]
        doubling = [fired.count(i) for i in range(log.p_bar.shape[1])]
        eta0 = np.array(log.schedule[0][1])
        ratios, floors, below = [], [], False
        schedule = log.schedule + [(horizon, None, None, ())]
        for (start, eta, entry_rho, _), (stop, *_) in zip(schedule, schedule[1:]):
            if start == stop:
                continue
            # The rows of an entry share its rates, and rounding keeps 1 / p
            # and rho * p monotone, so their least p_bar decides each check;
            # rho * p_bar itself can round one ulp below 1.
            p_min, rho = log.p_bar[start:stop].min(axis=0), np.array(entry_rho)
            ratios.extend(np.array(eta)[eta0 > 0.0] / eta0[eta0 > 0.0])
            below = below or (rho < 1.0 / p_min).any()
            floors.append((rho * p_min).min())
        max_ratio = float(np.max(ratios, initial=1.0))
        if max(doubling) > doubling_cap:
            violations["doubling_count"] += 1
        if max_ratio > 5.0:
            violations["eta_cap"] += 1
        if below:
            violations["rho_pbar"] += 1
        per_seed.append(
            {
                "seed": log.seed,
                "final_regret": result.regrets[result.logged_leg][1],
                "doubling_counts": doubling,
                "max_eta_ratio": max_ratio,
                "min_rho_pbar": float(np.min(floors)),
                "rho_final": rho.tolist(),  # the last entry with rows
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


def union_baseline(env: Environment, bases: list[BaseAlgorithm]) -> float | np.ndarray:
    """Per-round baseline over the union of the base algorithms' decision
    spaces, on every environment: a decision no base can make is no comparator.

    A base with a policy table (EXP3's is the constant policies) contributes
    it; any other base contributes every constant (context-blind) policy.
    Each policy enters once, in order of first appearance.
    """
    constants = [(a,) * env.num_contexts for a in range(env.num_arms)]
    union = dict.fromkeys(
        policy for base in bases for policy in getattr(base, "policies", constants)
    )
    return env.baseline(policies=list(union))


def _total(per_round: float | np.ndarray, rounds: int) -> float:
    """A per-round baseline's loss over its first ``rounds`` rounds: a
    constant times ``rounds``, or the sum of a script column's first rows."""
    if isinstance(per_round, np.ndarray):
        return float(np.sum(per_round[:rounds]))
    return float(per_round) * rounds


# ---------------------------------------------------------------------------
# The round loop and its feedback routers
# ---------------------------------------------------------------------------
#
# A router is a leg: it holds its ``bases``, and ``step(ctx, row)`` plays a
# whole round and returns the loss it charges. Every base proposes, the router
# picks whose proposal is played and reads its loss in ``row``, the bases
# update in index order, and then the master's restarts reset theirs. The
# induced router draws its selection first: a round that does not select its
# base is the base's ``idle``, which stands for that propose and update. A
# ``logged`` router keeps its rounds' choices and schedule, and ``columns()``
# returns them as the matching ``RoundLog`` fields. A router that samples owns
# the generator it is given and serves its uniforms through a ``UniformStream``.


class CorralRouter:
    """The CORRAL master samples the base with ``sample_index``; ``packets(p_bar,
    proposals, raw, chosen)`` makes the bases' feedback from the decision-time
    ``p_bar``: the run's estimator's builder, or the demo's ``naive_packets``.

    Each round's choice, decision and ``p_bar`` are appended to typed
    columns, and each round in which a threshold fires appends the new
    rates and the fired bases to ``schedule`` (see ``RoundLog``)."""

    logged = True

    def __init__(self, bases, state, rng, packets):
        self.bases = bases
        self.state = state
        self.rng = UniformStream(rng)
        self.packets = packets
        self.chosen, self.decision, self.p_bar = array("q"), array("q"), array("d")
        self.schedule = [(0, list(state.eta), list(state.rho), [])]

    def step(self, ctx, row) -> float:
        bases, state = self.bases, self.state
        proposals = [b.propose(ctx) for b in bases]
        p_bar = state.p_bar
        chosen = sample_index(self.rng, p_bar)
        decision = proposals[chosen]
        self.chosen.append(chosen)
        self.decision.append(decision)
        self.p_bar.extend(p_bar)
        raw = row[decision]
        outcome = corral_master.feedback(state, chosen, raw)
        if outcome.doublings:
            entry = (len(self.chosen), list(state.eta), list(state.rho), outcome.doublings)
            self.schedule.append(entry)
        for base, packet in zip(bases, self.packets(p_bar, proposals, raw, chosen)):
            base.update(packet)
        for i in outcome.restarts:
            bases[i].reset(state.rho[i])
        return raw

    def columns(self) -> dict:
        return {
            "chosen": np.frombuffer(self.chosen, dtype=np.int64),
            "decision": np.frombuffer(self.decision, dtype=np.int64),
            "p_bar": np.frombuffer(self.p_bar).reshape(-1, self.state.num_bases),
            "schedule": self.schedule,
        }


class InducedRouter:
    """One base with range ``rho`` behind ``InducedEnvironment`` at sampling
    probability 1/rho, drawn from ``rng``. A selected round proposes, and the
    selection's ``observe`` makes the packet the base sees; the round charges
    its weighted loss. An unselected round idles the base and charges 0.0,
    ``UNSELECTED``'s weighted loss. The base's stream and the selection's are
    independent, so drawing the selection first moves no draw. At rho = 1
    every round is selected and the base sees exactly what it would see on
    its own. Only a ``logged`` router keeps its decisions, so it plays at
    rho = 1, where every round has one."""

    def __init__(self, base, rho: float, rng, logged: bool = False):
        if logged and rho != 1.0:
            raise ContractError(f"a logged induced router plays at rho 1, got {rho}")
        self.bases = [base]
        self.selection = InducedEnvironment(1.0 / rho, rng)
        self.logged = logged
        self.decision = array("q") if logged else None

    def step(self, ctx, row) -> float:
        base, selection = self.bases[0], self.selection
        if not selection.selects():
            base.idle(ctx)
            return 0.0
        decision = base.propose(ctx)
        if self.logged:
            self.decision.append(decision)
        packet = selection.observe(row[decision])
        base.update(packet)
        return packet.weighted_loss

    def columns(self) -> dict:
        rounds = len(self.decision)
        return {
            "chosen": np.zeros(rounds, dtype=np.int64),
            "decision": np.frombuffer(self.decision, dtype=np.int64),
            "p_bar": np.full((rounds, 1), 1.0),
            "schedule": [(0, [0.0], [1.0], [])],
        }


class NaiveRouter:
    """Exponential weights over importance-weighted loss estimates, with the
    demonstration's naive feed to the bases."""

    logged = False

    def __init__(self, bases, rate: float, rng):
        if not 0.0 < rate < math.inf:
            raise ConfigError(f"naive learning rate must be finite and > 0, got {rate}")
        self.bases = bases
        self.rate = rate
        self.rng = UniformStream(rng)
        self.cum_est = [0.0] * len(bases)

    def step(self, ctx, row) -> float:
        bases = self.bases
        proposals = [b.propose(ctx) for b in bases]
        probs = exp_weights(self.cum_est, self.rate)
        chosen = sample_index(self.rng, probs)
        raw = row[proposals[chosen]]
        self.cum_est[chosen] += raw / probs[chosen]
        for base, packet in zip(bases, naive_packets(probs, proposals, raw, chosen)):
            base.update(packet)
        return raw


def naive_packets(probs, proposals, raw: float, chosen: int) -> list[FeedbackPacket]:
    """Feedback as a naive master would send it: the importance-weighted
    number ``raw / probs[chosen]`` is presented to the sampled base as if it
    were a genuinely observed loss, and everyone else gets ``UNSELECTED``."""
    weighted = raw / probs[chosen]
    packets = [UNSELECTED] * len(proposals)
    packets[chosen] = trusted_packet((True, weighted, 1.0, weighted))
    return packets


def play(env, routers, horizon) -> list[np.ndarray]:
    """Play ``env.rounds(horizon)`` with every router in turn, ``BLOCK`` rounds
    at a time through a ``tee``, which a lone router streams; return the
    losses each router's rounds charged."""
    rounds = env.rounds(horizon)
    losses = [array("d") for _ in routers]
    for _ in range(0, horizon, BLOCK):
        blocks = itertools.tee(itertools.islice(rounds, BLOCK), len(routers))
        for router, charged, block in zip(routers, losses, blocks):
            step, charge = router.step, charged.append
            for ctx, row in block:
                charge(step(ctx, row))
    return [np.frombuffer(charged) for charged in losses]


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    """Play each of ``seed``'s legs and score it, once, against the union of
    its bases' classes. ``np.cumsum`` adds in round order: the bits of a
    running total."""
    horizon, half = config.horizon, config.horizon // 2
    result = SeedResult(seed)
    env, routers = build_legs(config, seed)
    for leg, (router, losses) in enumerate(zip(routers, play(env, routers, horizon))):
        baseline = union_baseline(env, router.bases)
        cum_loss = np.cumsum(losses)
        result.regrets.append((
            float(cum_loss[half - 1]) - _total(baseline, half),
            float(cum_loss[-1]) - _total(baseline, horizon),
        ))
        if router.logged:
            baseline_cum = np.cumsum(np.broadcast_to(baseline, losses.shape))
            result.log = RoundLog(
                f"{config.scenario}:{seed}", seed, raw_loss=losses, cum_loss=cum_loss,
                cum_regret=cum_loss - baseline_cum, **router.columns(),
            )
            result.logged_leg = leg
        if config.scenario == "corral-run":
            result.per_base_regret = [
                float(cum_loss[-1]) - _total(union_baseline(env, [b]), horizon)
                for b in router.bases
            ]
    return result


def _run_seeds(config: ExperimentConfig, scenario: str) -> list[SeedResult]:
    if config.scenario != scenario:
        raise ConfigError(f"expected {scenario} config, got {config.scenario}")
    return [run_seed(config, seed) for seed in sorted(config.seeds)]


def run_corral(config: ExperimentConfig) -> tuple[dict, list[RoundLog]]:
    """Full master-plus-bases loop for every seed; see the module docstring."""
    results = _run_seeds(config, "corral-run")
    summary = compute_regret(results, config.horizon)
    for entry, result in zip(summary["per_seed"], results):
        entry["per_base_regret"] = result.per_base_regret
    summary["per_base_regret_mean"] = [
        float(np.mean(regs)) for regs in zip(*(r.per_base_regret for r in results))
    ]
    summary.update(config.master, scenario="corral-run", horizon=config.horizon)
    return summary, [r.log for r in results]


def run_standalone(config: ExperimentConfig) -> tuple[dict, list[RoundLog]]:
    """Counterfactual baseline: the single base drives every decision.

    The base receives a selected packet with sampling probability one every
    round, exactly what it would see running on its own.
    """
    results = _run_seeds(config, "standalone-run")
    summary = compute_regret(results, config.horizon)
    summary["scenario"] = "standalone-run"
    summary["horizon"] = config.horizon
    summary["base_kind"] = config.bases[0]["kind"]
    return summary, [r.log for r in results]


def run_stability_test(config: ExperimentConfig) -> dict:
    """Estimate the stability exponent of a base algorithm.

    For each range bound rho the base runs standalone inside the induced
    environment with constant sampling probability 1/rho and range parameter
    rho; regret is measured in the emitted weighted losses against the
    played environment's baseline. The exponent is the least-squares slope
    of log mean regret against log rho at fixed horizon.
    """
    results = _run_seeds(config, "stability-test")
    per_rho = []
    for leg, rho in enumerate(config.rho_levels):
        rho_regrets = [r.regrets[leg][1] for r in results]
        mean = float(np.mean(rho_regrets))
        if mean <= 0.0:
            raise IntegrityError(
                f"mean weighted regret {mean} at rho={rho} is not positive; "
                "the exponent fit needs a harder environment or longer horizon"
            )
        per_rho.append({"rho": rho, "mean_regret": mean, "stderr_regret": _stderr(rho_regrets)})
    log_rho = [math.log(e["rho"]) for e in per_rho]
    log_reg = [math.log(e["mean_regret"]) for e in per_rho]
    slope = float(np.polyfit(log_rho, log_reg, 1)[0])
    return {
        "scenario": "stability-test",
        "horizon": config.horizon,
        "base_kind": config.bases[0]["kind"],
        "per_rho": per_rho,
        "alpha_hat": slope,
        "certificate_alpha": _BASE_CLASSES[config.bases[0]["kind"]].alpha,
    }


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
    results = _run_seeds(config, "lowerbound-demo")
    masters = {}
    for leg, name in enumerate(("naive", "corral")):
        halves, fulls = zip(*(r.regrets[leg] for r in results))
        if 0.0 in halves:
            seed = results[halves.index(0.0)].seed
            raise IntegrityError(
                f"seed {seed}: the {name} master's regret at T/2 is 0, so "
                "regret(T) / regret(T/2) is undefined; use a longer horizon"
            )
        ratios = [full / half for half, full in zip(halves, fulls)]
        masters[name] = {
            "mean_regret_half": float(np.mean(halves)),
            "mean_regret_full": float(np.mean(fulls)),
            "mean_ratio": float(np.mean(ratios)),
            "per_seed_ratio": ratios,
        }
    steps = [full - half for half, full in (r.regrets[2] for r in results)]
    log_summary = compute_regret(results, config.horizon)
    summary = {
        "scenario": "lowerbound-demo",
        "horizon": config.horizon,
        **config.demo,
        "masters": masters,
        "standalone_matched": {
            "max_regret_step": float(max(steps)),
            "mean_regret_step": float(np.mean(steps)),
        },
        "corral_invariants": log_summary["invariant_violations"],
        "corral_max_eta_ratio": log_summary["max_eta_ratio"],
    }
    return summary, [r.log for r in results]


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


def _check_out_dirs(config: ExperimentConfig, out_dir) -> None:
    """Fail, creating nothing, if ``out_dir`` or a sweep run's subdirectory is
    empty, or it or an ancestor exists but is no directory, or a missing one
    has a name longer than its filesystem takes, or it holds a directory
    named as an output file or its ``.tmp``."""
    path = os.fspath(out_dir)
    if not path:
        raise ConfigError("output path '' is empty")
    for name in (ROUNDS_CSV, SUMMARY_JSON, ROUNDS_CSV + ".tmp", SUMMARY_JSON + ".tmp"):
        if os.path.isdir(os.path.join(path, name)):
            raise ConfigError(f"output file {os.path.join(path, name)!r} is a directory")
    missing = []
    while path and not os.path.isdir(path):
        if os.path.lexists(path):
            raise ConfigError(f"output path {path!r} exists and is not a directory")
        missing.append(path)
        path = os.path.dirname(path)
    name_max = os.pathconf(path or ".", "PC_NAME_MAX")
    for path in missing:
        if len(os.fsencode(os.path.basename(path))) > name_max:
            raise ConfigError(f"output path {path!r} has a name longer than {name_max} bytes")
    for entry in config.runs:
        _check_out_dirs(entry["config"], os.path.join(out_dir, entry["name"]))


def execute(config: ExperimentConfig, out_dir) -> dict:
    """Run any scenario and write its outputs under ``out_dir``."""
    _check_out_dirs(config, out_dir)
    if config.scenario == "corral-run":
        summary, logs = run_corral(config)
    elif config.scenario == "standalone-run":
        summary, logs = run_standalone(config)
    elif config.scenario == "stability-test":
        summary, logs = run_stability_test(config), None
    elif config.scenario == "lowerbound-demo":
        summary, logs = run_lowerbound_demo(config)
    else:
        summary, logs = {"scenario": "sweep", "runs": []}, None
        for entry in config.runs:
            sub = entry["config"]
            execute(sub, os.path.join(out_dir, entry["name"]))
            summary["runs"].append({"name": entry["name"], "scenario": sub.scenario})
    write_outputs(out_dir, summary, logs)
    return summary
