"""The config boundary: README's configs load; a key or value that no config
may hold fails to load; and a mutated digest config either runs to complete
outputs or fails before writing any."""

import contextlib
import copy
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral import harness
from corral.cli import main
from corral.core import ConfigError
from corral.harness import ExperimentConfig
from test_digests import CONFIGS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# The most rounds a mutated config may play.
MAX_HORIZON = 200
SUBCOMMANDS = {"corral-run": "run", "standalone-run": "standalone",
               "stability-test": "stability-test", "lowerbound-demo": "lowerbound-demo",
               "sweep": "sweep"}


def test_readme_configs_load(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block, encoding="utf-8")
        harness.load_config(path)


# ---------------------------------------------------------------------------
# Mutated digest configs
# ---------------------------------------------------------------------------


def specs(value, path=()):
    """The path and level of each object of a digest config: ``("config",
    scenario)``, ``("environment", kind)``, ``("bases", kind)``, or
    ``("master", None)``, ``("demo", None)`` and ``("runs", None)``."""
    if isinstance(value, dict):
        where = next((p for p in reversed(path) if isinstance(p, str)), "config")
        if where in ("config", "environment", "bases"):
            yield path, (where, value.get("scenario" if where == "config" else "kind"))
        else:
            yield path, (where, None)
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from specs(child, path + (key,))


def places(value, path=()):
    """The path of every object entry and of each list's first and last
    element: the places a mutation changes."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
        items = items[:1] + items[1:][-1:]
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from places(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_horizon(value, horizon):
    """A copy of ``value`` with every horizon set to ``horizon``."""
    if isinstance(value, dict):
        return {k: horizon if k == "horizon" else with_horizon(v, horizon)
                for k, v in value.items()}
    if isinstance(value, list):
        return [with_horizon(v, horizon) for v in value]
    return value


# The keys each level holds in some digest config, and a value for each key.
ALLOWED, DONORS = {}, {"typo": 1}
for _config in CONFIGS.values():
    for _path, _level in specs(_config):
        ALLOWED.setdefault(_level, set()).update(at(_config, _path))
        for _key, _value in at(_config, _path).items():
            DONORS.setdefault(_key, _value)
# No key takes a boolean, a null or a non-finite number.
POISONS = [True, False, None, math.nan, math.inf, -math.inf]
ODD_VALUES = POISONS + ["x", "0.5", "tuned", 10**30, 2**64, -1, 0, 0.5, 1e308, -1e308,
                        [], {}, [[]], [1, 1]]


@st.composite
def digest_configs(draw):
    """A digest config at a horizon of at most ``MAX_HORIZON``."""
    name = draw(st.sampled_from(sorted(CONFIGS)))
    return with_horizon(CONFIGS[name], draw(st.integers(2, MAX_HORIZON)))


@st.composite
def misplaced_keys(draw, doc):
    """For each object of ``doc``, a key that no digest config holds at its
    level and a copy of ``doc`` with that key added to that object alone."""
    variants = []
    for path, level in specs(doc):
        # Mostly a key that another kind takes at this level: the likeliest slip.
        sibling = {k for (where, _), keys in ALLOWED.items() if where == level[0]
                   for k in keys} - ALLOWED[level]
        other = set(DONORS) - ALLOWED[level]
        key = draw(st.sampled_from(sorted(sibling if sibling and draw(st.integers(0, 3))
                                          else other)))
        variant = copy.deepcopy(doc)
        at(variant, path)[key] = copy.deepcopy(DONORS[key])
        variants.append((key, variant))
    return variants


@st.composite
def poisoned_values(draw, doc):
    """Copies of ``doc``, each with one of 1-3 of its numbers or strings
    replaced by a value no config may hold: a poison, or a string where a
    number was."""
    leaves = [p for p in places(doc) if not isinstance(at(doc, p), (dict, list))]
    variants = []
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3)):
        numeric = not isinstance(at(doc, path), str)
        value = draw(st.sampled_from(POISONS + ["x", "0.5"] * numeric))
        variant = copy.deepcopy(doc)
        at(variant, path[:-1])[path[-1]] = value
        variants.append(variant)
    return variants


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` changed in 0-3 places (an odd value, a deleted
    key or element, 1-30 levels of nesting, an empty list or object) and
    wrapped in 0-2 sweeps."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(list(places(doc))))
        container, key = at(doc, path[:-1]), path[-1]
        change = draw(st.sampled_from(["odd", "delete", "nest", "empty"]))
        if change == "delete":
            del container[key]
        elif change == "nest":
            for _ in range(draw(st.integers(1, 30))):
                container[key] = [container[key]]
        elif change == "empty":
            container[key] = [] if isinstance(container[key], list) else {}
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        names = draw(st.lists(st.sampled_from(["a", "b", "c", "", "x/y", "summary.json"]),
                              min_size=1, max_size=2))
        doc = {"scenario": "sweep", "runs": [{"name": n, "config": doc} for n in names]}
    return doc


def played(config) -> int:
    """The longest horizon a loaded config plays."""
    if config.scenario == "sweep":
        return max(played(entry["config"]) for entry in config.runs)
    return config.horizon


def assert_complete(config, out):
    """A finished run's outputs: a ``summary.json`` that parses, one
    ``rounds.csv`` row per round per seed where the scenario logs rounds,
    the same under each run of a sweep, and nothing else."""
    files = {p.name for p in out.iterdir()}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == config.scenario
    if config.scenario == "sweep":
        names = [entry["name"] for entry in config.runs]
        assert files == {"summary.json", *names}
        for entry in config.runs:
            assert_complete(entry["config"], out / entry["name"])
    elif config.scenario == "stability-test":
        assert files == {"summary.json"}
    else:
        assert files == {"summary.json", "rounds.csv"}
        with open(out / "rounds.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        assert rows == config.horizon * len(config.seeds)


def assert_failed_partway(config, out):
    """What a run that fails while playing leaves: nothing, or for a sweep
    the complete directories of the runs before the one that failed, whose
    own directory (if a sweep) holds the same, and no sweep ``summary.json``."""
    if not out.exists():
        return
    assert config.scenario == "sweep" and not (out / "summary.json").exists()
    names = [entry["name"] for entry in config.runs]
    present = {p.name for p in out.iterdir()}
    done = len(present)
    assert present == set(names[:done])
    for entry in config.runs[:done - 1]:
        assert_complete(entry["config"], out / entry["name"])
    last = config.runs[done - 1]
    if (out / last["name"] / "summary.json").exists():
        assert_complete(last["config"], out / last["name"])
    else:
        assert_failed_partway(last["config"], out / last["name"])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_mutated_config_runs_whole_or_fails_before_output(tmp_path_factory, data):
    doc = data.draw(digest_configs())
    ExperimentConfig.from_dict(doc)
    for key, variant in data.draw(misplaced_keys(doc)):
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(variant)
    for variant in data.draw(poisoned_values(doc)):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(variant)
    doc = data.draw(mutated(doc))
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "config.json", tmp / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        config = harness.load_config(path)
    except ConfigError:
        config = None
    if config is not None and played(config) > MAX_HORIZON:
        return
    command = SUBCOMMANDS[config.scenario] if config else "run"
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    err = stderr.getvalue()
    if code == 0:
        assert config is not None and err == ""
        assert_complete(config, out)
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        if config is None:
            assert not out.exists()
        else:
            assert_failed_partway(config, out)
