"""The config boundary: README's configs load and its examples run from the
modules the package root binds; a key or value that no config may hold fails
to load; and a mutated digest config either runs to complete outputs or fails
before writing any. Every module but the root, and every test file, reads
each name it imports."""

import ast
import contextlib
import copy
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corral
from corral import harness
from corral.cli import main
from corral.core import ConfigError
from corral.harness import ExperimentConfig
from test_digests import CONFIGS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# The most rounds a mutated config may play.
MAX_HORIZON = 200


def test_readme_configs_load(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block, encoding="utf-8")
        harness.load_config(path)


def test_readme_python_examples_run(capsys):
    # Each example runs as it stands, in a fresh namespace.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def readme_table(header):
    """The cells of each body row of README's table under ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])


def test_readme_key_tables_match_the_loader():
    # The top-level keys by scenario, and the type and depth of every value.
    _, _, kind_key, rows = harness._LEVELS["config"]
    expected = {scenario: ({kind_key}.union(*(g for g in groups if g[-1] is not None)),
                           {k for g in groups if g[-1] is None for k in g[:-1]})
                for scenario, groups in rows.items()}
    readme = {}
    for scenario, keys in readme_table("| Scenario | Keys |"):
        names = re.findall(r"`([^`]+)`", keys)
        readme[scenario.strip("`")] = ({n for n in names if not n.startswith("[")},
                                       {n.strip("[]") for n in names if n.startswith("[")})
    assert readme == expected
    values = {}
    for kind, *cells in readme_table("| Type | One value | A list | A table |"):
        for depth, cell in enumerate(cells):
            for key in re.findall(r"`([^`]+)`", cell):
                assert key not in values
                values[key] = (kind, depth)
    assert values == harness._VALUES


def test_package_root_binds_only_modules():
    # A fresh interpreter: ``import corral`` alone binds the six library
    # modules, which is all ``bench/child.py`` reads through, and no name.
    probe = ("import corral, json; print(json.dumps(sorted(n for n in vars(corral) "
             "if not n.startswith('_')))); corral.harness.load_config, corral.harness.execute")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(corral.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["bases", "core", "envs", "harness", "master", "omd"]
    # Here ``cli`` is bound too, since the tests import it.
    for name, value in vars(corral).items():
        if not name.startswith("_"):
            assert isinstance(value, types.ModuleType) and value.__name__ == f"corral.{name}"
    assert isinstance(corral.__version__, str)


def test_no_module_imports_a_name_it_never_uses():
    # The root binds its modules for others to read; in any other module or
    # test file an import that no code reads is left behind by code that
    # moved away.
    unused = {}
    paths = [*pathlib.Path(corral.__file__).parent.glob("*.py"),
             *pathlib.Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}


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


def typed_paths(value, path=()):
    """The path of every entry of ``value`` whose key ``_VALUES`` types."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        if key in harness._VALUES:
            yield path + (key,)
        else:
            yield from typed_paths(child, path + (key,))


# Scalars of another JSON type than each type's.
MISTYPED = {"string": [5, 0.5, True, False, None],
            "integer": [0.5, 1.0, "1", True, None],
            "number": ["0.5", "x", True, False, None]}


@st.composite
def mistyped(draw, key, value):
    """A value of the wrong JSON type for ``key`` at its depth, or ``value``
    nested one level too deep or (for a list key) too shallow."""
    kind, depth = harness._VALUES[key]
    change = draw(st.sampled_from(["type", "deeper"] + ["shallower"] * bool(depth)))
    if change == "deeper":
        return [value]
    if change == "shallower":
        return value[0]
    bad = draw(st.sampled_from(MISTYPED[kind]))
    for _ in range(depth):
        bad = [bad]
    return bad


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_each_typed_key_rejects_a_wrong_type_or_depth(data):
    # Drawn from ``_VALUES``: a key added to the table is fuzzed here too.
    doc = data.draw(digest_configs())
    for path in typed_paths(doc):
        key = path[-1]
        variant = copy.deepcopy(doc)
        at(variant, path[:-1])[key] = data.draw(mistyped(key, at(doc, path)))
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} takes "):
            ExperimentConfig.from_dict(variant)


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
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main(["--config", str(path), "--out", str(out)])
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
