"""Runner: configs, round logs, regret accounting, scenario behavior, CLI."""

import dataclasses
import io
import json
import math
import os
import pathlib
import pickle
import re
import tomllib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corral import harness
from corral import master as corral_master
from corral.cli import main
from corral.bases import Exp3
from corral.core import (
    UNSELECTED,
    ConfigError,
    ContractError,
    FeedbackPacket,
    IntegrityError,
    NormalizationDriftError,
    UniformStream,
    named_rng,
    sample_index,
)
from corral.envs import AdversarialMAB, LowerBoundEnv
from corral.harness import (
    ExperimentConfig,
    RoundLog,
    SeedResult,
    compute_regret,
    execute,
    records_to_csv,
    run_corral,
    run_lowerbound_demo,
    run_stability_test,
    run_standalone,
)

MAB_ENV = {"kind": "stochastic-mab", "means": [0.1, 0.9]}
# Three rows, fewer than SMALL_RUN's horizon.
SHORT_SCRIPT = {"kind": "adversarial-mab", "script": [[0.0, 1.0]] * 3}
SMALL_RUN = {
    "scenario": "corral-run",
    "horizon": 50,
    "seeds": [0],
    "environment": MAB_ENV,
    "bases": [{"kind": "exp3"}, {"kind": "ucb1"}],
    "master": {"eta": 0.05},
}
SMALL_STANDALONE = {
    "scenario": "standalone-run",
    "horizon": 50,
    "seeds": [0],
    "environment": MAB_ENV,
    "bases": [{"kind": "exp3"}],
}
SMALL_STABILITY = dict(SMALL_STANDALONE, scenario="stability-test", rho_levels=[1.0, 4.0])
SMALL_DEMO = {"scenario": "lowerbound-demo", "horizon": 50, "seeds": [0]}
# An integer literal past the largest float, and what loading one as ``key``
# reports.
HUGE = 10**400


def too_large(key, kind="numbers"):
    return f"{key} takes {kind} a float can hold, got an integer of 401 digits"


def edited(raw: dict, old: str, new: str) -> bytes:
    """``raw`` as JSON text with ``old`` replaced by ``new``: text that
    ``json.dumps`` never writes."""
    text = json.dumps(raw)
    assert old in text
    return text.replace(old, new).encode()


SMALL_CONFIGS = {
    "corral-run": SMALL_RUN,
    "standalone-run": SMALL_STANDALONE,
    "stability-test": SMALL_STABILITY,
    "lowerbound-demo": SMALL_DEMO,
}
CONTEXTUAL_ENV = {
    "kind": "stochastic-contextual",
    "context_probs": [0.5, 0.5],
    "cond_means": [[0.2, 0.7], [0.6, 0.3]],
    "policies": [[0, 1], [1, 0]],
}


def config(**overrides):
    raw = {
        "scenario": "corral-run",
        "horizon": 100,
        "seeds": [0, 1],
        "environment": MAB_ENV,
        "bases": [{"kind": "exp3"}, {"kind": "ucb1"}],
        "master": {"eta": 0.05},
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def small_config(overrides: dict) -> dict:
    """``overrides`` over the small config of their scenario (a corral run
    if they set none); a sweep is taken as it is."""
    if overrides.get("scenario") == "sweep":
        return overrides
    return dict(SMALL_CONFIGS[overrides.get("scenario", "corral-run")], **overrides)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"unknown corral-run config keys: \['typo_key'\]"):
            config(typo_key=1)

    def test_unknown_environment_key(self):
        with pytest.raises(ConfigError, match="unknown stochastic-mab environment keys"):
            config(environment={"kind": "stochastic-mab", "means": [0.1, 0.9], "mean": 1})

    def test_unknown_master_key(self):
        with pytest.raises(ConfigError, match=r"unknown master keys: \['learning_rate'\]"):
            config(master={"eta": 0.05, "learning_rate": 0.1})

    def test_unknown_base_key(self):
        with pytest.raises(ConfigError, match=r"unknown exp3 base keys: \['rate'\]"):
            config(bases=[{"kind": "exp3", "rate": 1}, {"kind": "ucb1"}])

    def test_corral_needs_two_bases(self):
        with pytest.raises(ConfigError, match="corral-run needs at least 2 base algorithms"):
            config(bases=[{"kind": "exp3"}])

    def test_standalone_needs_one_base(self):
        raw = dict(SMALL_STANDALONE, bases=[{"kind": "exp3"}, {"kind": "ucb1"}])
        with pytest.raises(ConfigError, match="standalone-run needs exactly 1 base algorithm"):
            ExperimentConfig.from_dict(raw)

    def test_stability_needs_two_rho_levels(self):
        raw = dict(SMALL_STABILITY, rho_levels=[1.0])
        with pytest.raises(ConfigError, match="stability-test needs at least 2 rho levels"):
            ExperimentConfig.from_dict(raw)

    def test_needs_seeds_and_horizon(self):
        with pytest.raises(ConfigError, match="need at least one seed"):
            config(seeds=[])
        with pytest.raises(ConfigError, match="horizon must be >= 2"):
            config(horizon=1)

    def test_tuned_eta_requires_target(self):
        with pytest.raises(ConfigError, match="tuned master needs exactly one of"):
            config(master={"eta": "tuned"})

    def test_tuned_eta_resolves(self):
        cfg = config(master={"eta": "tuned", "regret_target": 10.0}, horizon=100)
        summary, _ = run_corral(cfg)
        assert summary["eta"] == pytest.approx(
            min(1.0 / (400.0 * math.log(100)), math.sqrt(2.0 / 100))
        )

    def test_seed_offset(self):
        cfg = config(seeds=[0, 1]).with_seed_offset(100)
        assert cfg.seeds == [100, 101]

    def test_seeds_must_fit_in_64_bits(self):
        # Streams are keyed on 64-bit seeds: 2**64 would replay seed 0, and
        # -1 would replay 2**64 - 1.
        top = config(seeds=[2**64 - 1])
        for seeds in ([0, 2**64], [-1]):
            with pytest.raises(ConfigError):
                config(seeds=seeds)
        with pytest.raises(ConfigError):
            config(seeds=[0]).with_seed_offset(-1)
        with pytest.raises(ConfigError):
            top.with_seed_offset(1)

    def test_deep_nesting_is_a_config_error(self):
        means = [0.5]
        for _ in range(100_000):
            means = [means]
        with pytest.raises(ConfigError):
            config(environment={"kind": "stochastic-mab", "means": means})

    def test_sweep_walks_each_run_config_once(self, monkeypatch):
        walked = []
        check = harness._check_spec

        def recording(spec, *args):
            walked.append(spec)
            return check(spec, *args)

        monkeypatch.setattr(harness, "_check_spec", recording)
        runs = [{"name": "one", "config": dict(SMALL_RUN, environment=dict(MAB_ENV))},
                {"name": "two", "config": dict(SMALL_RUN, environment=dict(MAB_ENV))}]
        ExperimentConfig.from_dict({"scenario": "sweep", "runs": runs})
        for entry in runs:
            env = entry["config"]["environment"]
            assert sum(value is env for value in walked) == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scenario": "stability-test", "rho_levels": [True, "4"]},
             "rho_levels takes numbers, got True"),
            ({"scenario": "stability-test", "rho_levels": [1.0, "4"]},
             "rho_levels takes no string, got '4'"),
            ({"master": {"eta": True}}, "eta takes numbers, got True"),
            ({"master": {"eta": "0.5"}}, "eta takes no string, got '0.5'"),
            ({"master": {"eta": "tuned", "regret_target": "2"}},
             "regret_target takes no string, got '2'"),
            ({"scenario": "lowerbound-demo", "demo": {"naive_eta": "1e-3"}},
             "naive_eta takes no string, got '1e-3'"),
            ({"scenario": "lowerbound-demo", "demo": {"corral_eta": True}},
             "corral_eta takes numbers, got True"),
            ({"environment": {"kind": "stochastic-mab", "means": [True, "0.5"]}},
             "means takes numbers, got True"),
            ({"environment": {"kind": "stochastic-mab", "means": [0.1, "0.5"]}},
             "means takes no string, got '0.5'"),
            ({"bases": [{"kind": "thompson", "prior": [[True, "2"], [1, 1]]},
                        {"kind": "ucb1"}]},
             "prior takes numbers, got True"),
            ({"environment": dict(CONTEXTUAL_ENV, context_probs=[0.5, "0.5"])},
             "context_probs takes no string, got '0.5'"),
            ({"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [0.9, True]}]},
             "arm_pair takes integers, got 0.9"),
            ({"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [0, 1.0]}]},
             "arm_pair takes integers, got 1.0"),
            ({"environment": dict(CONTEXTUAL_ENV, policies=[[0.2, 1.9], [True, 0]])},
             "policies takes integers, got 0.2"),
            ({"environment": CONTEXTUAL_ENV,
              "bases": [{"kind": "exp3"}, {"kind": "exp4", "policies": [[0.2, 1.9], [1, 0]]}]},
             "policies takes integers, got 0.2"),
            ({"environment": {"kind": "adversarial-mab",
                              "script": [[0.0, 1.0]] * 99 + [[0, True]]}},
             "script takes numbers, got True"),
            # String keys took numbers, and a boolean or null failed as a number.
            ({"environment": {"kind": True}}, "kind takes a string, got True"),
            ({"bases": [{"kind": None}, {"kind": "ucb1"}]}, "kind takes a string, got None"),
            ({"master": {"eta": 0.05, "estimator": True}}, "estimator takes a string, got True"),
            ({"master": {"eta": 0.05, "restart_policy": 1}},
             "restart_policy takes a string, got 1"),
            ({"environment": {"kind": "adversarial-mab", "script_csv": 5}},
             "script_csv takes a string, got 5"),
            ({"scenario": "sweep", "runs": [{"name": "a", "config": dict(SMALL_RUN, scenario=2)}]},
             "scenario takes a string, got 2"),
            ({"scenario": "sweep", "runs": [{"name": 7, "config": SMALL_RUN}]},
             "name takes a string, got 7"),
        ],
        ids=["rho-levels", "rho-level-string", "eta-bool", "eta-string",
             "regret-target-string", "demo-naive-eta-string", "demo-corral-eta-bool",
             "means", "mean-string", "thompson-prior", "context-probs-string",
             "arm-pair", "arm-pair-fraction", "env-policies", "exp4-policies",
             "script-bool", "env-kind-bool", "base-kind-null", "estimator-bool",
             "restart-policy-number", "script-csv-number", "scenario-number",
             "run-name-number"],
    )
    def test_non_json_numbers_rejected(self, overrides, message):
        # Each of these loaded with the value read as a number (or truncated).
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict(small_config(overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"environment": {"kind": "adversarial-mab", "script": [[0.0, 1.0]] * 99 + [[0.5]]}},
             "script rows must have one length, got lengths [1, 2]"),
            ({"environment": dict(CONTEXTUAL_ENV, cond_means=[[0.2, 0.7], [0.6, 0.3, 0.1]])},
             "cond_means rows must have one length, got lengths [2, 3]"),
            ({"bases": [{"kind": "thompson", "prior": [[1], [1]]}, {"kind": "ucb1"}]},
             "prior rows must be [a, b] pairs, got rows of 1"),
            ({"environment": {"kind": "stochastic-mab", "means_prior": [[1], [2]]}},
             "means_prior rows must be [a, b] pairs, got rows of 1"),
        ],
        ids=["script", "cond-means", "prior", "means-prior"],
    )
    def test_ragged_table_names_its_key(self, overrides, message):
        # Each of these failed as a "malformed config value" naming no key.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(small_config(overrides))

    @pytest.mark.parametrize(
        "names",
        [["a", "a"], ["../escaped"], [7], [""], ["."], [".."], ["a/b"], ["a", "a\0b"],
         ["summary.json"], ["summary.json.tmp"], ["a", "b\ud800"]],
        ids=["duplicate", "parent-escape", "number", "empty", "dot", "dot-dot", "slash",
             "nul", "sweep-summary", "sweep-summary-tmp", "lone-surrogate"],
    )
    def test_sweep_run_names_are_distinct_path_components(self, names):
        runs = [{"name": name, "config": SMALL_RUN} for name in names]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "sweep", "runs": runs})

    def test_script_is_one_array_read_once(self, tmp_path, monkeypatch):
        rows = [[0.2, 0.7], [0.9, 0.1]] * 25
        path = tmp_path / "script.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in rows))
        loads = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            loads.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        inline, from_csv = (
            ExperimentConfig.from_dict(dict(SMALL_RUN, seeds=[0, 1], environment=spec))
            for spec in ({"kind": "adversarial-mab", "script": rows},
                         {"kind": "adversarial-mab", "script_csv": str(path)})
        )
        for cfg in (inline, from_csv):
            script = cfg.environment["script"]
            assert set(cfg.environment) == {"kind", "script"}
            assert script.dtype == np.float64 and script.tolist() == rows
            # Seeds play views of the one array, not copies.
            env = harness.build_environment(cfg.environment, None, cfg.horizon)
            assert np.shares_memory(env.script, script)
        assert bits(run_corral(inline)) == bits(run_corral(from_csv))
        assert len(loads) == 1

    def test_sweep_checks_each_run_once(self, tmp_path, monkeypatch):
        builds = []
        build = harness.build_environment

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(harness, "build_environment", counting)
        runs = [{"name": "one", "config": SMALL_RUN},
                {"name": "two", "config": dict(SMALL_RUN, seeds=[0, 1])}]
        cfg = ExperimentConfig.from_dict({"scenario": "sweep", "runs": runs})
        assert len(builds) == 2
        shifted = cfg.with_seed_offset(5)
        assert len(builds) == 2
        assert [entry["config"].seeds for entry in shifted.runs] == [[5], [5, 6]]
        execute(shifted, tmp_path / "out")
        # Only the per-seed builds: one seed in the first run, two in the second.
        assert len(builds) == 2 + 3


class TestRunCorral:
    def test_smoke_two_rounds(self):
        summary, logs = run_corral(config(horizon=2, seeds=[3]))
        assert [log.seed for log in logs] == [3]
        assert len(logs[0].raw_loss) == 2
        assert logs[0].p_bar[0].tolist() == [0.5, 0.5]
        assert summary["invariant_violations"] == {
            "doubling_count": 0,
            "eta_cap": 0,
            "rho_pbar": 0,
        }

    def test_round_records_accumulate_losses(self):
        _, logs = run_corral(config(horizon=50, seeds=[2]))
        cum = 0.0
        for raw, cum_loss in zip(logs[0].raw_loss.tolist(), logs[0].cum_loss.tolist()):
            cum += raw
            assert cum_loss == cum

    def test_determinism_and_golden_bytes(self, tmp_path):
        cfg = config(horizon=300, seeds=[0, 1, 2], master={"eta": 0.05})
        execute(cfg, tmp_path / "a")
        execute(cfg, tmp_path / "b")
        for name in ("rounds.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_identical_bases_split_mass_symmetrically(self):
        # Two identical exp3 bases on a symmetric environment: the mean
        # final sampling probability of each base is near one half.
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "corral-run",
                "horizon": 3000,
                "seeds": list(range(20)),
                "environment": {"kind": "stochastic-mab", "means": [0.5, 0.5]},
                "bases": [{"kind": "exp3"}, {"kind": "exp3"}],
                "master": {"eta": 0.01},
            }
        )
        _, logs = run_corral(cfg)
        finals = [log.p_bar[-1, 0] for log in logs]
        assert abs(float(np.mean(finals)) - 0.5) <= 0.1

    def test_dominating_base_freezes_regret(self):
        # One arm has constant zero loss; twin index policies both lock it.
        # Pilot puts the last regret increase at round <= 10 over these
        # seeds; assert regret is flat after round 50.
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "corral-run",
                "horizon": 3000,
                "seeds": list(range(20)),
                "environment": {"kind": "adversarial-mab", "script": [[0.0, 1.0]] * 3000},
                "bases": [{"kind": "ucb1"}, {"kind": "ucb1"}],
                "master": {"eta": 0.02},
            }
        )
        _, logs = run_corral(cfg)
        assert len(logs) == 20
        for log in logs:
            curve = log.cum_regret
            # Row t - 1 is round t: flat from round 50 to round 3000.
            assert np.all(curve[50:] <= curve[49:-1] + 1e-12)

    def test_graceful_degradation_with_useless_base(self):
        # A base confined to never-best arms costs at most a constant
        # factor over the good base alone (pilot ratio 2.9; bound 4).
        env4 = {"kind": "stochastic-mab", "means": [0.1, 0.9, 0.9, 0.9]}
        alone = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": 5000,
                "seeds": list(range(20)),
                "environment": env4,
                "bases": [{"kind": "exp3"}],
            }
        )
        s_alone, _ = run_standalone(alone)
        together = ExperimentConfig.from_dict(
            {
                "scenario": "corral-run",
                "horizon": 5000,
                "seeds": list(range(20)),
                "environment": env4,
                "bases": [
                    {"kind": "exp3"},
                    {"kind": "pathological", "arm_pair": [2, 3]},
                ],
                "master": {"eta": 0.02},
            }
        )
        s_together, _ = run_corral(together)
        assert s_together["mean_final_regret"] <= 4.0 * s_alone["mean_final_regret"]

    def test_per_base_regret_reported(self):
        summary, _ = run_corral(config(horizon=100, seeds=[0]))
        assert len(summary["per_base_regret_mean"]) == 2
        assert len(summary["per_seed"][0]["per_base_regret"]) == 2

    def test_contextual_model_selection_scenario(self):
        # Policy learners with different classes plus an arm-space learner;
        # the union baseline spans both policy tables and constant arms.
        env_spec = {
            "kind": "stochastic-contextual",
            "context_probs": [0.5, 0.5],
            "cond_means": [[0.2, 0.8], [0.8, 0.2]],
            "policies": [(0, 1), (1, 0)],
        }
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "corral-run",
                "horizon": 400,
                "seeds": [0, 1],
                "environment": env_spec,
                "bases": [
                    {"kind": "exp4", "policies": [(0, 0), (0, 1)]},
                    {"kind": "epoch-greedy", "policies": [(1, 1), (1, 0)]},
                    {"kind": "exp3"},
                ],
                "master": {"eta": 0.05},
            }
        )
        summary, logs = run_corral(cfg)
        assert [len(log.raw_loss) for log in logs] == [400, 400]
        assert len(summary["per_base_regret_mean"]) == 3
        # Union includes (0, 1), expected loss 0.2; constant arms cost 0.5;
        # so the union baseline rate is 0.2 and per-base comparators differ.
        from corral.envs import StochasticContextual
        from corral.harness import build_base, union_baseline

        env = StochasticContextual(
            env_spec["context_probs"],
            env_spec["cond_means"],
            env_spec["policies"],
            named_rng(0, "env"),
        )
        bases = [
            build_base(spec, env, 400, 1.0, named_rng(0, f"base.{i}"))
            for i, spec in enumerate(cfg.bases)
        ]
        baseline = union_baseline(env, bases)
        assert baseline == pytest.approx(0.2)


class TestRunStandalone:
    def test_exp3_on_easy_stochastic_instance(self):
        # Theory scale sqrt(K T ln K) ~ 118 at T=10^4; pilot mean 122.
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": 10_000,
                "seeds": list(range(20)),
                "environment": MAB_ENV,
                "bases": [{"kind": "exp3"}],
            }
        )
        summary, _ = run_standalone(cfg)
        assert summary["mean_final_regret"] <= 150.0

    def test_thompson_beats_exp3_on_its_environment(self):
        results = {}
        for name, base in (
            ("thompson", {"kind": "thompson", "prior": [[1, 9], [9, 1]]}),
            ("exp3", {"kind": "exp3"}),
        ):
            cfg = ExperimentConfig.from_dict(
                {
                    "scenario": "standalone-run",
                    "horizon": 10_000,
                    "seeds": list(range(20)),
                    "environment": MAB_ENV,
                    "bases": [base],
                }
            )
            results[name], _ = run_standalone(cfg)
        assert (
            results["thompson"]["mean_final_regret"]
            <= results["exp3"]["mean_final_regret"]
        )

    def test_ucb1_on_deterministic_losses(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": 1000,
                "seeds": [0],
                "environment": {"kind": "adversarial-mab", "script": [[0.0, 1.0]] * 1000},
                "bases": [{"kind": "ucb1"}],
            }
        )
        summary, _ = run_standalone(cfg)
        assert summary["mean_final_regret"] == 1.0

    def test_regret_counts_only_the_played_script_rows(self):
        # Arm 0 is best over the 10 played rows and arm 1 over the script.
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": 10,
                "seeds": [0],
                "environment": {
                    "kind": "adversarial-mab",
                    "script": [[0.0, 1.0]] * 10 + [[1.0, 0.0]] * 100,
                },
                "bases": [{"kind": "ucb1"}],
            }
        )
        summary, _ = run_standalone(cfg)
        assert summary["mean_final_regret"] == 1.0

    def test_determinism(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": 200,
                "seeds": [5],
                "environment": MAB_ENV,
                "bases": [{"kind": "exp3"}],
            }
        )
        a, _ = run_standalone(cfg)
        b, _ = run_standalone(cfg)
        assert a == b


class TestComputeRegret:
    @staticmethod
    def log(raw, baseline_rate, p_bar, schedule):
        """A seed-0 round log."""
        rounds = len(raw)
        cum = np.cumsum(raw)
        return RoundLog(
            run_id="x:0",
            seed=0,
            chosen=np.zeros(rounds, dtype=np.int64),
            decision=np.zeros(rounds, dtype=np.int64),
            raw_loss=np.array(raw, dtype=np.float64),
            cum_loss=cum,
            cum_regret=cum - baseline_rate * np.arange(1, rounds + 1),
            p_bar=np.array(p_bar, dtype=np.float64),
            schedule=schedule,
        )

    @staticmethod
    def result(log, baseline):
        """The seed-0 result of ``log``'s one leg, scored as ``run_seed``
        scores a leg against a per-round ``baseline``."""
        rounds, half = len(log.raw_loss), len(log.raw_loss) // 2
        regrets = [(float(log.cum_loss[half - 1]) - harness._total(baseline, half),
                    float(log.cum_loss[-1]) - harness._total(baseline, rounds))]
        return SeedResult(0, regrets=regrets, log=log, logged_leg=0)

    def one_base(self, raw, baseline_rate):
        rounds = len(raw)
        return self.log(raw, baseline_rate, [(1.0,)] * rounds, [(0, [0.0], [2.0], [])])

    def test_zero_loss_zero_baseline(self):
        log = self.one_base([0.0] * 10, 0.0)
        out = compute_regret([self.result(log, 0.0)], 10)
        assert out["mean_final_regret"] == 0.0

    def test_constant_loss_against_baseline(self):
        log = self.one_base([1.0] * 10, 0.4)
        out = compute_regret([self.result(log, 0.4)], 10)
        assert out["mean_final_regret"] == pytest.approx(6.0)

    def test_missing_round_is_integrity_error(self):
        log = self.one_base([0.5] * 3, 0.0)
        with pytest.raises(IntegrityError):
            compute_regret([self.result(log, 0.0)], 4)

    def schedule_run(self, p_bar, schedule):
        """A zero-loss seed-0 run."""
        log = self.log([0.0] * len(p_bar), 0.0, p_bar, schedule)
        return [self.result(log, 0.0)]

    def invariants(self, rounds, p_bar, schedule):
        (result,) = self.schedule_run(p_bar, schedule)
        summary = compute_regret([result], rounds)
        # The reference reads the same log as per-round columns.
        expanded = dataclasses.replace(result, log=expand(result.log))
        assert summary == reference_compute_regret([expanded], rounds)
        return summary

    def test_doubling_count_above_cap_is_counted(self):
        # Four rounds cap each base at ceil(log2 4) = 2 doublings.
        rates = [0.1, 0.1], [4.0, 4.0]
        out = self.invariants(
            4, [(0.5, 0.5)] * 4,
            [(0, *rates, []), (1, *rates, [0]), (2, *rates, [0, 1]), (3, *rates, [0])],
        )
        assert out["doubling_counts_max"] == [3, 1]
        assert out["invariant_violations"] == {"doubling_count": 1, "eta_cap": 0, "rho_pbar": 0}

    def test_eta_ratio_above_cap_is_counted(self):
        out = self.invariants(
            3, [(0.5, 0.5)] * 3,
            [(0, [0.1, 0.1], [4.0, 4.0], []), (1, [0.1, 0.3], [4.0, 4.0], [1]),
             (2, [0.1, 0.6], [4.0, 4.0], [1])],
        )
        assert out["max_eta_ratio"] == 0.6 / 0.1
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 1, "rho_pbar": 0}

    def test_threshold_below_inverse_probability_is_counted(self):
        out = self.invariants(
            3, [(0.5, 0.5), (0.25, 0.75), (0.5, 0.5)],
            [(0, [0.1, 0.1], [4.0, 4.0], []), (1, [0.1, 0.1], [3.0, 4.0], [0]),
             (2, [0.1, 0.1], [4.0, 4.0], [0])],
        )
        assert out["per_seed"][0]["min_rho_pbar"] == 0.75
        assert out["per_seed"][0]["rho_final"] == [4.0, 4.0]
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 1}

    def test_least_p_bar_of_an_entry_decides_its_checks(self):
        # One entry over four rows: the row at p_bar 0.2 is below 1 / rho.
        out = self.invariants(
            4, [(0.5, 0.5), (0.3, 0.7), (0.2, 0.8), (0.5, 0.5)],
            [(0, [0.1, 0.1], [4.0, 4.0], [])],
        )
        assert out["per_seed"][0]["min_rho_pbar"] == 4.0 * 0.2
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 1}

    def test_zero_first_rate_is_left_out_of_the_eta_ratio(self):
        out = self.invariants(
            3, [(0.5, 0.5)] * 3,
            [(0, [0.0, 0.1], [4.0, 4.0], []), (1, [1.0, 0.1], [4.0, 4.0], [0]),
             (2, [2.0, 0.2], [4.0, 4.0], [0, 1])],
        )
        assert out["max_eta_ratio"] == 0.2 / 0.1
        out = self.invariants(
            2, [(0.5, 0.5)] * 2, [(0, [0.0, 0.0], [4.0, 4.0], []), (1, [1.0, 1.0], [4.0, 4.0], [0, 1])]
        )
        assert out["max_eta_ratio"] == 1.0
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}

    def test_firing_in_the_last_round_counts_but_decides_no_row(self):
        # The last entry starts past the last row: its doubling counts, but
        # no row was decided at its rates.
        out = self.invariants(
            2, [(0.5, 0.5)] * 2, [(0, [0.1, 0.1], [4.0, 4.0], []), (2, [0.9, 0.1], [1.0, 4.0], [0])]
        )
        assert out["doubling_counts_max"] == [1, 0]
        assert out["max_eta_ratio"] == 1.0
        assert out["per_seed"][0]["rho_final"] == [4.0, 4.0]
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}

    def test_replaying_baseline_decision_has_near_zero_regret(self):
        # Playing the baseline arm itself: pseudo-regret fluctuates around
        # zero within sampling error.
        from corral.envs import StochasticMAB

        finals = []
        horizon = 2000
        for seed in range(20):
            env = StochasticMAB([0.3, 0.7], named_rng(seed, "env"))
            cum = sum(losses[0] for _, losses in env.rounds(horizon))
            finals.append(cum - 0.3 * horizon)
        mean = float(np.mean(finals))
        stderr = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
        assert abs(mean) <= 3.0 * stderr


# Arm losses (or means) 0.1, 0.5 and 0.9; the table bases cover arms 1 and 2,
# whose best costs 0.5 a round, so T = 200 rounds cost it 100.
SUBSET_ENVS = {
    "stochastic-mab": {"kind": "stochastic-mab", "means": [0.1, 0.5, 0.9]},
    "adversarial-mab": {"kind": "adversarial-mab", "script": [[0.1, 0.5, 0.9]] * 200},
}
SUBSET_TABLE = [[1], [2]]


class TestComparatorClass:
    """Every base is scored against its own class on every environment; a
    table base that leaves out arms is not scored against them."""

    @pytest.mark.parametrize("kind", sorted(SUBSET_ENVS))
    def test_corral_per_base_regret_is_against_each_class(self, kind):
        summary, logs = run_corral(config(
            horizon=200, seeds=[0], environment=SUBSET_ENVS[kind], master={"eta": 0.1},
            bases=[{"kind": "exp4", "policies": SUBSET_TABLE}, {"kind": "ucb1"}],
        ))
        total = float(logs[0].cum_loss[-1])
        entry = summary["per_seed"][0]
        assert entry["per_base_regret"] == pytest.approx([total - 100.0, total - 20.0])
        # The run's own comparator is the union of the classes: every arm.
        assert entry["final_regret"] == pytest.approx(total - 20.0)

    def test_standalone_table_base_is_scored_against_its_table(self):
        summary, logs = run_standalone(ExperimentConfig.from_dict(dict(
            SMALL_STANDALONE, horizon=200, environment=SUBSET_ENVS["stochastic-mab"],
            bases=[{"kind": "epoch-greedy", "policies": SUBSET_TABLE}],
        )))
        total = float(logs[0].cum_loss[-1])
        assert summary["mean_final_regret"] == total - 100.0
        assert logs[0].cum_regret[-1] == total - 100.0


class TestStability:
    def test_rho_one_reduces_to_standalone_exactly(self):
        base_cfg = {
            "horizon": 2000,
            "seeds": list(range(5)),
            "environment": {"kind": "stochastic-mab", "means": [0.2, 0.4, 0.6, 0.8]},
            "bases": [{"kind": "exp3"}],
        }
        stab = ExperimentConfig.from_dict(
            {"scenario": "stability-test", "rho_levels": [1.0, 4.0], **base_cfg}
        )
        alone = ExperimentConfig.from_dict({"scenario": "standalone-run", **base_cfg})
        stab_out = run_stability_test(stab)
        alone_out, _ = run_standalone(alone)
        assert stab_out["per_rho"][0]["mean_regret"] == alone_out["mean_final_regret"]

    def test_non_power_of_two_rho_levels(self):
        # Recovered raw losses must survive the packet's exact-ratio check
        # even when 1/rho is not a power of two.
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "stability-test",
                "horizon": 600,
                "seeds": [0, 1],
                "environment": {"kind": "stochastic-mab", "means": [0.2, 0.8]},
                "bases": [{"kind": "exp3"}],
                "rho_levels": [1.0, 3.0, 7.0],
            }
        )
        out = run_stability_test(cfg)
        assert len(out["per_rho"]) == 3

    def test_reports_certificate_alpha(self):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "stability-test",
                "horizon": 500,
                "seeds": [0, 1],
                "environment": {"kind": "stochastic-mab", "means": [0.1, 0.9]},
                "bases": [{"kind": "exp3"}],
                "rho_levels": [1.0, 4.0],
            }
        )
        out = run_stability_test(cfg)
        assert out["certificate_alpha"] == 0.5
        assert len(out["per_rho"]) == 2


class TestInducedPackets:
    """Every packet ``InducedRouter.step`` gives its base is ``UNSELECTED`` or
    equals the one a router that built each packet would make, field for
    field and with the sign of every zero. A round the base idles counts as
    an ``UNSELECTED`` one."""

    @staticmethod
    def packets(env, rho, horizon=400):
        base = Exp3(env.num_arms, horizon, rho, named_rng(0, "base"))
        router = harness.InducedRouter(base, rho, named_rng(0, "wrapper"))
        step, propose, update, idle = router.step, base.propose, base.update, base.idle
        rows, decisions, packets = [], [], []

        def spy_step(ctx, row):
            rows.append(row)
            return step(ctx, row)

        def spy_propose(ctx):
            decisions.append(propose(ctx))
            return decisions[-1]

        def spy_update(packet):
            packets.append(packet)
            update(packet)

        def spy_idle(ctx):
            decisions.append(None)
            packets.append(UNSELECTED)
            idle(ctx)

        router.step, base.propose, base.update, base.idle = (
            spy_step, spy_propose, spy_update, spy_idle)
        harness.play(env, [router], horizon)
        seen = [(None if d is None else row[d], packet)
                for row, d, packet in zip(rows, decisions, packets, strict=True)]
        return router.selection.sampling_prob, seen

    def check(self, env, rho):
        p, seen = self.packets(env, rho)
        selected = []
        for raw, packet in seen:
            assert isinstance(packet, FeedbackPacket)
            if packet is UNSELECTED:
                continue
            expected = FeedbackPacket(True, raw / p, p, raw)
            assert packet == expected
            for got, want in zip(packet[1:], expected[1:]):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
            selected.append(raw)
        assert selected
        return selected

    @pytest.mark.parametrize("rho", [1.0, 4.0, 16.0])
    def test_stochastic_mab(self, rho):
        env = harness.build_environment(MAB_ENV, named_rng(0, "env"), 400)
        assert set(self.check(env, rho)) == {0.0, 1.0}

    def test_lower_bound(self):
        assert set(self.check(LowerBoundEnv(named_rng(0, "env")), 1.0)) <= {0.1, 0.2, 0.3, 0.4}

    def test_script_keeps_the_sign_of_zero(self):
        values = [0.0, -0.0, 0.5, 1.0]
        env = AdversarialMAB([[v, v] for v in values] * 100)
        signed = [(v, math.copysign(1.0, v)) for v in self.check(env, 1.0)]
        assert set(signed) == {(0.0, 1.0), (-0.0, -1.0), (0.5, 1.0), (1.0, 1.0)}


def test_logged_induced_router_plays_at_rho_one():
    # Only a standalone run logs its induced leg, and it plays at rho 1,
    # where every round is selected and has a decision to log.
    base = Exp3(2, 50, 4.0, named_rng(0, "base"))
    with pytest.raises(ContractError, match="a logged induced router plays at rho 1, got 4.0"):
        harness.InducedRouter(base, 4.0, named_rng(0, "wrapper"), logged=True)
    assert harness.InducedRouter(base, 1.0, named_rng(0, "wrapper"), logged=True).logged


class TestTrustedPath:
    """The routers build packets on the trusted path: with the checked
    entry ``build_packets`` made to raise, every master run plays to the
    end and writes the same bytes."""

    @pytest.mark.parametrize(
        "raw",
        [dict(SMALL_RUN, horizon=400, master={"eta": 0.5, "estimator": estimator})
         for estimator in corral_master.ESTIMATORS] + [dict(SMALL_DEMO, horizon=400)],
        ids=[*corral_master.ESTIMATORS, "lowerbound-demo"],
    )
    def test_routers_call_no_checked_entry(self, tmp_path, raw):
        config = ExperimentConfig.from_dict(raw)
        execute(config, tmp_path / "plain")
        checked = AssertionError("a router called a checked entry")
        with mock.patch.object(corral_master, "build_packets", side_effect=checked):
            execute(config, tmp_path / "patched")
        for name in ("rounds.csv", "summary.json"):
            assert (tmp_path / "patched" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()


class TestLowerBoundDemoSmoke:
    def test_small_demo_runs_and_reports(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "lowerbound-demo", "horizon": 500, "seeds": [0, 1, 2]}
        )
        summary, logs = run_lowerbound_demo(cfg)
        assert set(summary["masters"]) == {"naive", "corral"}
        assert [len(log.raw_loss) for log in logs] == [500] * 3
        assert summary["standalone_matched"]["max_regret_step"] <= 1.0



def bits(value):
    """A value's exact bits: arrays as dtype, shape and bytes, floats as hex."""
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


PER_SEED_CONFIGS = {
    "corral-run": dict(SMALL_RUN, environment=CONTEXTUAL_ENV,
                       bases=[{"kind": "exp4", "policies": [[0, 1], [1, 1]]}, {"kind": "exp3"}]),
    "standalone-run": dict(SMALL_STANDALONE,
                           bases=[{"kind": "thompson", "prior": [[1, 1], [1, 1]]}]),
    "stability-test": SMALL_STABILITY,
    "lowerbound-demo": SMALL_DEMO,
}


def every_router(env, horizon: int) -> list:
    """A router of each kind on ``env``, each with its own bases, from seed
    3's named streams: a corral master at a rate at which thresholds fire,
    the naive master, and induced routers at rho 4 and, logged, at rho 1."""
    specs = [{"kind": "exp3"}, {"kind": "exp4", "policies": [[0, 1], [1, 0]]},
             {"kind": "thompson", "prior": [[1, 1], [2, 1]]}]
    # The bases' and the master's horizon only tunes rates; a master needs 2.
    tuned = max(horizon, 2)

    def bases(name, rho):
        return [harness.build_base(spec, env, tuned, rho, named_rng(3, f"{name}.base.{i}"))
                for i, spec in enumerate(specs)]

    state = corral_master.init_master(2.0, len(specs), tuned)
    return [
        harness.CorralRouter(bases("corral", state.rho[0]), state, named_rng(3, "corral"),
                             corral_master.PACKETS["shared"]),
        harness.NaiveRouter(bases("naive", 1.0), 0.1, named_rng(3, "naive")),
        harness.InducedRouter(bases("rho4", 4.0)[1], 4.0, named_rng(3, "wrapper.4")),
        harness.InducedRouter(bases("rho1", 1.0)[2], 1.0, named_rng(3, "wrapper.1"), True),
    ]


class TestPlay:
    """``play`` runs every router over one realization of its environment, a
    block at a time, and each router plays as if it were alone."""

    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 2500])
    def test_each_router_plays_as_if_alone(self, horizon):
        def environment():
            return harness.build_environment(CONTEXTUAL_ENV, named_rng(3, "env"), horizon)

        env = environment()
        routers = every_router(env, horizon)
        together = harness.play(env, routers, horizon)
        assert len(together) == len(routers)
        for i, (router, losses) in enumerate(zip(routers, together)):
            env = environment()
            alone = every_router(env, horizon)[i]
            assert len(losses) == horizon
            assert bits(harness.play(env, [alone], horizon)) == bits([losses])
            if router.logged:
                expected, got = alone.columns(), router.columns()
                assert bits(list(got.values())) == bits(list(expected.values()))
        # The master's thresholds fired, so its bases were reset mid-play.
        assert len(routers[0].schedule) > 1 or horizon == 1

    def test_a_stability_test_builds_one_environment_per_seed(self):
        cfg = ExperimentConfig.from_dict(
            dict(SMALL_STABILITY, seeds=[0, 1, 2], rho_levels=[1.0, 2.0, 4.0]))
        with mock.patch.object(harness, "build_environment",
                               wraps=harness.build_environment) as built:
            summary = run_stability_test(cfg)
        assert built.call_count == 3
        assert len(summary["per_rho"]) == 3


class TestRunSeed:
    """The per-seed contract parallel workers rely on: a seed's result is the
    same bits whatever other seeds its config holds, and survives a pickle."""

    @pytest.mark.parametrize("scenario", sorted(PER_SEED_CONFIGS))
    def test_seed_result_is_independent_and_pickles(self, scenario):
        alone, among = (
            ExperimentConfig.from_dict(dict(PER_SEED_CONFIGS[scenario], seeds=seeds))
            for seeds in ([3], [1, 3, 7])
        )
        result = harness.run_seed(alone, 3)
        assert result.seed == 3
        assert len(result.regrets) == {"stability-test": 2, "lowerbound-demo": 3}.get(scenario, 1)
        assert (result.log is None) == (scenario == "stability-test")
        assert bits(harness.run_seed(among, 3)) == bits(result)
        assert bits(pickle.loads(pickle.dumps(result))) == bits(result)
        logged_leg = {"stability-test": None, "lowerbound-demo": 1}.get(scenario, 0)
        assert pickle.loads(pickle.dumps(result)).logged_leg == result.logged_leg == logged_leg

    @pytest.mark.parametrize("scenario", ["corral-run", "standalone-run", "lowerbound-demo"])
    def test_logged_leg_is_scored_once(self, scenario):
        # ``compute_regret`` reports the regret at T that ``run_seed`` scored
        # for the logged leg, bit for bit; it scores nothing again.
        cfg = ExperimentConfig.from_dict(dict(PER_SEED_CONFIGS[scenario], seeds=[1, 3, 7]))
        results = [harness.run_seed(cfg, seed) for seed in cfg.seeds]
        summary = compute_regret(results, cfg.horizon)
        assert [e["final_regret"].hex() for e in summary["per_seed"]] == [
            r.regrets[r.logged_leg][1].hex() for r in results
        ]

    def test_runners_summarize_the_seed_results(self):
        cfg = ExperimentConfig.from_dict(dict(PER_SEED_CONFIGS["corral-run"], seeds=[7, 1, 3]))
        summary, logs = run_corral(cfg)
        results = [harness.run_seed(cfg, seed) for seed in (1, 3, 7)]
        assert bits(logs) == bits([r.log for r in results])
        assert [e["final_regret"] for e in summary["per_seed"]] == [r.regrets[0][1] for r in results]
        assert [e["per_base_regret"] for e in summary["per_seed"]] == [
            r.per_base_regret for r in results
        ]

    @pytest.mark.parametrize(
        "runner, scenario",
        [(run_corral, "standalone-run"), (run_standalone, "stability-test"),
         (run_stability_test, "lowerbound-demo"), (run_lowerbound_demo, "corral-run")],
        ids=["corral", "standalone", "stability", "demo"],
    )
    def test_runner_rejects_another_scenario_before_playing(self, runner, scenario):
        cfg = ExperimentConfig.from_dict(SMALL_CONFIGS[scenario])
        with mock.patch.object(harness, "run_seed", side_effect=AssertionError("played")):
            with pytest.raises(ConfigError, match=f"^expected .* config, got {scenario}$"):
                runner(cfg)


@dataclasses.dataclass
class ColumnLog:
    """``RoundLog`` with the schedule as per-round columns, the layout the
    reference routers and writers read: ``eta``, ``rho`` (the decision-time
    rates) and ``fired`` (the bases whose threshold fired at the end of the
    round), each rounds x bases."""

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


def expand(log: RoundLog) -> ColumnLog:
    """``log`` with its schedule entries expanded into per-round columns."""
    rounds, m = log.p_bar.shape
    starts, eta, rho, fired_lists = zip(*log.schedule)
    lengths = np.diff(starts + (rounds,))
    fired = np.zeros((rounds, m), dtype=bool)
    for start, bases in zip(starts[1:], fired_lists[1:]):
        fired[start - 1, list(bases)] = True
    columns = {f.name: getattr(log, f.name) for f in dataclasses.fields(log)}
    del columns["schedule"]
    return ColumnLog(
        **columns,
        eta=np.repeat(np.array(eta, dtype=np.float64).reshape(-1, m), lengths, axis=0),
        rho=np.repeat(np.array(rho, dtype=np.float64).reshape(-1, m), lengths, axis=0),
        fired=fired,
    )


def assert_schedule_is_entries(log: RoundLog) -> None:
    """An entry at row 0 with no firing, then one entry for each round in
    which a threshold fired, in row order, up to one past the last row."""
    starts = [entry[0] for entry in log.schedule]
    assert starts[0] == 0 and log.schedule[0][3] == []
    assert starts == sorted(set(starts)) and starts[-1] <= len(log.chosen)
    assert all(entry[3] for entry in log.schedule[1:])


def reference_compute_regret(results: list[SeedResult], horizon: int) -> dict:
    """The column-reading ``compute_regret``, kept verbatim below this
    docstring over ``ColumnLog``s: ``compute_regret`` must return exactly
    its summary.

    Aggregate per-seed regret and re-assert schedule invariants from the
    seeds' logged legs.
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
        doubling = log.fired.sum(axis=0).tolist()
        # One base's column at a time, so that no check holds a temporary
        # of rounds x bases.
        ratios, floors, below = [], [], False
        for eta, rho, p_bar in zip(log.eta.T, log.rho.T, log.p_bar.T):
            if eta[0] > 0.0:
                ratios.append((eta / eta[0]).max())
            # Same non-cancelling form the schedule maintains; the product
            # rho * p_bar can round one ulp below 1.
            below = below or (rho < 1.0 / p_bar).any()
            floors.append((rho * p_bar).min())
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
                "rho_final": log.rho[-1].tolist(),
            }
        )
    finals = [e["final_regret"] for e in per_seed]
    num_bases = len(per_seed[0]["doubling_counts"])
    return {
        "per_seed": per_seed,
        "mean_final_regret": float(np.mean(finals)),
        "stderr_final_regret": harness._stderr(finals),
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


class ReferenceCorralRouter:
    """The list-built router, kept verbatim below this docstring but for the
    ``logged`` flag ``run_seed`` reads, the round's loss, read from its row of
    losses, the ``bases`` it holds, and its ``step``, which plays the whole
    round as ``play`` did before routers held their bases: every base
    proposes, ``route`` (the router's ``step`` of then) picks the base and
    returns the charged loss, one packet per base and the resets, every base
    updates in index order, and the resets apply. ``CorralRouter`` must log
    exactly its columns.

    The CORRAL master samples the base; ``packets(p_bar, proposals, raw,
    chosen)`` makes the bases' feedback from the decision-time ``p_bar``:
    ``build_packets`` with the run's estimator, or the demo's ``naive_packets``."""

    logged = True

    def __init__(self, bases, state, rng, packets):
        self.bases = bases
        self.state = state
        self.rng = UniformStream(rng)
        self.packets = packets
        self.chosen, self.decision, self.p_bar, self.eta, self.rho = [], [], [], [], []
        self.fired = np.zeros((state.horizon, state.num_bases), dtype=bool)
        self._schedule = list(state.eta), list(state.rho)

    def step(self, ctx, row):
        bases = self.bases
        raw, packets, resets = self.route(row, [b.propose(ctx) for b in bases])
        for base, packet in zip(bases, packets):
            base.update(packet)
        for i, range_param in resets:
            bases[i].reset(range_param)
        return raw

    def route(self, row, proposals: list[int]):
        state = self.state
        chosen = sample_index(self.rng, state.p_bar)
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
        raw = row[decision]
        outcome = corral_master.feedback(state, chosen, raw)
        if outcome.doublings:
            self.fired[len(self.chosen) - 1, outcome.doublings] = True
            self._schedule = list(state.eta), list(state.rho)
        resets = [(i, state.rho[i]) for i in outcome.restarts] if outcome.restarts else ()
        return raw, self.packets(p_bar, proposals, raw, chosen), resets

    def columns(self) -> dict:
        names = ("chosen", "decision", "p_bar", "eta", "rho")
        return {name: np.array(getattr(self, name)) for name in names} | {"fired": self.fired}


class ReferenceInducedRouter(harness.InducedRouter):
    """``InducedRouter`` with its decisions in a list and the list-built
    ``columns``, kept verbatim."""

    def __init__(self, base, rho: float, rng, logged: bool = False):
        super().__init__(base, rho, rng, logged)
        self.range_param = rho
        self.decision = []

    def columns(self) -> dict:
        rounds = len(self.decision)
        return {
            "chosen": np.zeros(rounds, dtype=np.int64),
            "decision": np.array(self.decision),
            "p_bar": np.full((rounds, 1), 1.0 / self.range_param),
            "eta": np.zeros((rounds, 1)),
            "rho": np.full((rounds, 1), self.range_param),
            "fired": np.zeros((rounds, 1), dtype=bool),
        }


def reference_play(env, routers, horizon) -> list[np.ndarray]:
    """The list-built ``play``, leg by leg: the rounds are realized once, as
    one list, and each router plays all of them before the next starts; each
    router's ``step`` plays the whole round.

    Play ``horizon`` rounds; return the losses each router's rounds charged."""
    rounds = list(env.rounds(horizon))
    played = []
    for router in routers:
        step = router.step
        losses: list[float] = []
        charge = losses.append
        for ctx, row in rounds:
            charge(step(ctx, row))
        played.append(np.array(losses))
    return played


def reference_log(cfg: ExperimentConfig, seed: int) -> ColumnLog:
    """``seed``'s round log as the list-built routers and ``play`` make it."""
    with mock.patch.multiple(harness, CorralRouter=ReferenceCorralRouter, RoundLog=ColumnLog,
                             InducedRouter=ReferenceInducedRouter, play=reference_play):
        return harness.run_seed(cfg, seed).log


def flipping_run(horizon: int, period: int, num_bases: int, master: dict) -> dict:
    """A corral run of EXP3 bases on a 2-arm script whose losses flip every
    ``period`` rounds: at a large master rate its thresholds fire often."""
    script = [[1.0, 0.0] if (t // period) % 2 == 0 else [0.0, 1.0] for t in range(horizon)]
    env = {"kind": "adversarial-mab", "script": script}
    return dict(SMALL_RUN, horizon=horizon, environment=env,
                bases=[{"kind": "exp3"}] * num_bases, master=master)


@st.composite
def logged_runs(draw):
    """Corral runs over 2-4 bases (both restart policies and estimators,
    rates at which thresholds fire), standalone runs and demos."""
    horizon = draw(st.integers(2, 300))
    raw = {"horizon": horizon, "seeds": [draw(st.integers(0, 2**32))]}
    scenario = draw(st.sampled_from(["corral-run"] * 4 + ["standalone-run", "lowerbound-demo"]))
    if scenario == "lowerbound-demo":
        return dict(raw, scenario=scenario)
    master = {
        "eta": draw(st.sampled_from([2.0, 0.9, 0.05])),
        "restart_policy": draw(st.sampled_from(corral_master.RESTART_POLICIES)),
        "estimator": draw(st.sampled_from(corral_master.ESTIMATORS)),
    }
    run = flipping_run(horizon, draw(st.integers(1, 60)), draw(st.integers(2, 4)), master)
    if draw(st.booleans()):
        run["environment"] = {"kind": "stochastic-mab", "means": [0.3, 0.6]}
        run["bases"] = draw(st.lists(st.sampled_from(
            [{"kind": "exp3"}, {"kind": "ucb1"}, {"kind": "thompson", "prior": [[1, 1]] * 2}]
        ), min_size=len(run["bases"]), max_size=len(run["bases"])))
    if scenario == "standalone-run":
        del run["master"]
        run.update(scenario=scenario, bases=run["bases"][:1])
    return dict(run, **raw)


class TestRoundColumns:
    """The typed round columns hold the bits the list-built ones held."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(logged_runs())
    def test_match_the_list_built_columns(self, raw):
        cfg = ExperimentConfig.from_dict(raw)
        seed = cfg.seeds[0]
        result = harness.run_seed(cfg, seed)
        assert_schedule_is_entries(result.log)
        assert bits(expand(result.log)) == bits(reference_log(cfg, seed))
        expanded = dataclasses.replace(result, log=expand(result.log))
        assert json.dumps(compute_regret([result], cfg.horizon)) == json.dumps(
            reference_compute_regret([expanded], cfg.horizon))

    @pytest.mark.parametrize("policy", corral_master.RESTART_POLICIES)
    @pytest.mark.parametrize("num_bases", [2, 4])
    def test_logs_with_several_doublings_match(self, policy, num_bases):
        cfg = ExperimentConfig.from_dict(
            flipping_run(400, 50, num_bases, {"eta": 2.0, "restart_policy": policy})
        )
        log = harness.run_seed(cfg, 0).log
        assert_schedule_is_entries(log)
        assert (expand(log).fired.sum(axis=0) >= 2).all()
        assert bits(expand(log)) == bits(reference_log(cfg, 0))

    def test_firing_in_the_last_round_matches_the_reference(self):
        # Seed 0 of this run fires base 1's threshold at the end of round
        # 69, the last: its entry starts past the last row.
        cfg = ExperimentConfig.from_dict(flipping_run(69, 25, 2, {"eta": 2.0}))
        result = harness.run_seed(cfg, 0)
        log = result.log
        *_, before, (first, _, _, fired) = log.schedule
        assert (first, fired) == (69, [1])
        assert_schedule_is_entries(log)
        # The last row carries the flags, at the rates it was decided at.
        text = csv_text(records_to_csv, [log])
        assert text.splitlines()[-1].endswith(",01")
        assert text == csv_text(reference_records_to_csv, [expand(log)])
        summary = compute_regret([result], 69)
        entry = summary["per_seed"][0]
        assert entry["rho_final"] == before[2] == expand(log).rho[-1].tolist()
        assert entry["doubling_counts"] == expand(log).fired.sum(axis=0).tolist()
        assert entry["doubling_counts"][1] == sum(1 in e[3] for e in log.schedule)
        expanded = dataclasses.replace(result, log=expand(log))
        assert json.dumps(summary) == json.dumps(reference_compute_regret([expanded], 69))

    @pytest.mark.parametrize("scenario", sorted(PER_SEED_CONFIGS))
    def test_only_the_logged_leg_keeps_its_decisions(self, scenario):
        cfg = ExperimentConfig.from_dict(PER_SEED_CONFIGS[scenario])
        env, routers = harness.build_legs(cfg, 0)
        logged = {"stability-test": [False, False], "lowerbound-demo": [False, True, False]}
        assert [router.logged for router in routers] == logged.get(scenario, [True])
        harness.play(env, routers, cfg.horizon)
        for router in routers:
            kept = getattr(router, "decision", None)
            assert len(kept) == cfg.horizon if router.logged else kept is None

    @pytest.mark.parametrize("num_bases", [2, 4])
    def test_a_run_grows_by_at_most_twice_its_column_bytes(self, num_bases):
        # Every round logs 40 bytes of scalar columns and 8 per base, its
        # p_bar double. Growth past twice that means the run keeps per-round
        # objects besides its columns.
        horizon = 20_000
        cfg = config(horizon=horizon, seeds=[0], bases=[{"kind": "ucb1"}] * num_bases)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_corral(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2.0 * (40 + 8 * num_bases) * horizon


def reference_records_to_csv(logs: list[RoundLog], out) -> None:
    """The row-by-row writer, kept verbatim below this docstring:
    ``records_to_csv`` must write exactly its text.

    Write the round logs as CSV rows to the text stream ``out``, one row
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


# Rates equal under == but not in bits or text (0.0, -0.0), equal in text
# but not in bits (nan, -nan), and the extremes a hostile log could hold.
_RATES = st.sampled_from(
    [0.0, -0.0, 1.0, 0.1, 5e-324, 1e308, math.inf, -math.inf, math.nan, -math.nan]
) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _schedules(draw, rows, m):
    """A schedule over ``rows`` rows: an entry at row 0, and up to 4 more at
    rows in [1, rows], each with 1-m fired bases. Each entry's rates are
    the last entry's with one flipped (``-0.0`` beside ``0.0``, ``-inf``
    beside ``inf``) or redrawn."""
    eta, rho = (draw(st.lists(_RATES, min_size=m, max_size=m)) for _ in range(2))
    schedule = [(0, eta, rho, [])]
    firsts = draw(st.sets(st.integers(1, rows), max_size=4)) if rows else ()
    for first in sorted(firsts):
        eta, rho = list(eta), list(rho)
        rates, i = draw(st.sampled_from([eta, rho])), draw(st.integers(0, m - 1))
        rates[i] = -rates[i] if draw(st.booleans()) else draw(_RATES)
        fired = draw(st.sets(st.integers(0, m - 1), min_size=1))
        schedule.append((first, eta, rho, sorted(fired)))
    return schedule


@st.composite
def round_logs(draw):
    """1-3 random round logs over the same 1-4 bases, with schedules."""
    m = draw(st.integers(1, 4))
    logs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 24))
        values = draw(arrays(np.float64, (n, 3 + m), elements=_RATES))
        logs.append(RoundLog(
            run_id=draw(st.text(alphabet="ab%d,:", max_size=6)),
            seed=draw(st.integers(-5, 10**12)),
            chosen=draw(arrays(np.int64, n, elements=st.integers(0, m - 1))),
            decision=draw(arrays(np.int64, n, elements=st.integers(0, 9))),
            raw_loss=values[:, 0],
            cum_loss=values[:, 1],
            cum_regret=values[:, 2],
            p_bar=values[:, 3:],
            schedule=draw(_schedules(n, m)),
        ))
    return logs


def csv_text(write, logs) -> str:
    out = io.StringIO()
    write(logs, out)
    return out.getvalue()


class TestCsvFormat:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(round_logs(), st.integers(1, 7))
    def test_matches_reference_byte_for_byte(self, logs, block):
        # Small blocks end inside segments and segments end inside blocks.
        with mock.patch.object(harness, "CSV_BLOCK", block):
            expected = csv_text(reference_records_to_csv, [expand(log) for log in logs])
            assert csv_text(records_to_csv, logs) == expected

    def test_real_run_with_doublings_matches_reference(self):
        # 2 seeds x 2,500 rows cross blocks of CSV_BLOCK rows, and the master's
        # doublings split each log into segments.
        cfg = config(
            horizon=2500,
            environment={"kind": "stochastic-mab", "means": [0.3, 0.7, 0.5]},
            bases=[{"kind": "exp3"}, {"kind": "ucb1"},
                   {"kind": "thompson", "prior": [[1, 1]] * 3}],
            master={"eta": 0.3},
        )
        _, logs = run_corral(cfg)
        assert all(len(log.schedule) > 1 for log in logs)
        assert len(logs[0].chosen) > 2 * harness.CSV_BLOCK
        expected = csv_text(reference_records_to_csv, [expand(log) for log in logs])
        assert csv_text(records_to_csv, logs) == expected

    def test_header_and_precision(self):
        _, logs = run_corral(config(horizon=3, seeds=[0]))
        out = io.StringIO()
        records_to_csv(logs, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == (
            "run_id,seed,t,chosen_base,decision,raw_loss,cum_loss,cum_regret,"
            "p_bar_0,p_bar_1,eta_0,eta_1,rho_0,rho_1,restart_flags"
        )
        assert len(lines) == 4
        # 17 significant digits round-trip float64 exactly.
        row = lines[1].split(",")
        assert float(row[8]) == logs[0].p_bar[0, 0]

    def test_percent_in_run_id_is_written_as_is(self):
        _, logs = run_corral(config(horizon=3, seeds=[0]))
        out = io.StringIO()
        records_to_csv([dataclasses.replace(logs[0], run_id="50%d")], out)
        assert out.getvalue().split("\n")[1].startswith("50%d,0,1,")

    def test_failed_csv_leaves_no_outputs(self, tmp_path, monkeypatch):
        def broken(logs, out):
            out.write("run_id,seed,t\ncorral-run:0,0,")
            raise IntegrityError("formatting failed")

        monkeypatch.setattr(harness, "records_to_csv", broken)
        with pytest.raises(IntegrityError):
            execute(config(horizon=3, seeds=[0]), tmp_path / "out")
        assert not (tmp_path / "out" / "rounds.csv").exists()
        assert not (tmp_path / "out" / "rounds.csv.tmp").exists()
        assert not (tmp_path / "out" / "summary.json").exists()


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {
                "scenario": "corral-run",
                "horizon": 50,
                "seeds": [0],
                "environment": MAB_ENV,
                "bases": [{"kind": "exp3"}, {"kind": "ucb1"}],
                "master": {"eta": 0.05},
            },
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "rounds.csv").exists()
        assert (out_dir / "summary.json").exists()
        printed = capsys.readouterr().out
        assert "mean_final_regret" in printed

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {
                "scenario": "standalone-run",
                "horizon": 50,
                "seeds": [0],
                "environment": MAB_ENV,
                "bases": [{"kind": "exp3"}],
            },
        )
        assert main(["standalone", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_scenario_subcommand_mismatch(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            {
                "scenario": "corral-run",
                "horizon": 50,
                "seeds": [0],
                "environment": MAB_ENV,
                "bases": [{"kind": "exp3"}, {"kind": "ucb1"}],
                "master": {"eta": 0.05},
            },
        )
        assert main(["standalone", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"bases": [{"kind": "exp4"}, {"kind": "exp3"}]},
             "exp4 base needs exactly one of ['policies']"),
            ({"bases": [{"kind": "thompson"}, {"kind": "exp3"}]},
             "thompson base needs exactly one of ['prior']"),
            ({"horizon": "x"}, "horizon takes no string, got 'x'"),
            ({"seeds": "ab"}, "seeds takes no string, got 'ab'"),
            ({"master": {"eta": 0.05, "estimator": "fancy"}}, "unknown estimator 'fancy'"),
            ({"master": {"eta": 0.05, "restart_policy": "sometimes"}},
             "unknown restart policy 'sometimes'"),
            ({"seeds": "12"}, "seeds takes no string, got '12'"),
            ({"seeds": [3, 3]}, "seeds must be distinct, got [3, 3]"),
            ({"environment": {"kind": "stochastic-mab", "means": "ab"}},
             "means takes no string, got 'ab'"),
            ({"master": {"eta": "fast"}}, "eta takes no string, got 'fast'"),
            ({"master": {}}, "master needs exactly one of ['eta']"),
            ({"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [1]}]},
             "arm_pair must be 2 arms in [0, 2), got (1,)"),
            ({"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [0, 7]}]},
             "arm_pair must be 2 arms in [0, 2), got (0, 7)"),
            ({"scenario": "lowerbound-demo", "demo": {"corral_eta": "fast"}},
             "corral_eta takes no string, got 'fast'"),
            ({"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": dict(SMALL_RUN, master={"eta": "fast"})},
            ]}, "eta takes no string, got 'fast'"),
            ({"environment": SHORT_SCRIPT}, "script has 3 rows, fewer than the horizon 50"),
            ({"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": dict(SMALL_RUN, environment=SHORT_SCRIPT)},
            ]}, "script has 3 rows, fewer than the horizon 50"),
            ({"scenario": "sweep", "seeds": [1, 1], "runs": [{"name": "a", "config": SMALL_RUN}]},
             "unknown sweep config keys: ['seeds']"),
            ({"scenario": "sweep", "horizon": "7", "runs": [{"name": "a", "config": SMALL_RUN}]},
             "unknown sweep config keys: ['horizon']"),
            ({"scenario": "sweep", "environment": {"kind": "nope"},
              "runs": [{"name": "a", "config": SMALL_RUN}]},
             "unknown sweep config keys: ['environment']"),
            ({"master": {"eta": math.inf}}, "learning rate must be finite and > 0, got inf"),
            # Both tuned the rate to 0.0, which failed naming the learning rate.
            ({"master": {"eta": "tuned", "regret_target": math.inf}},
             "regret_target must be finite and > 0, got inf"),
            ({"master": {"eta": "tuned", "regret_target": 1e308}},
             "regret_target 1e+308 tunes the learning rate to 0.0"),
            ({"scenario": "lowerbound-demo", "demo": {"naive_eta": -50.0}},
             "naive learning rate must be finite and > 0, got -50.0"),
            ({"scenario": "lowerbound-demo", "demo": {"naive_eta": math.nan}},
             "naive learning rate must be finite and > 0, got nan"),
            ({"scenario": "lowerbound-demo", "demo": {"corral_eta": -1.0}},
             "learning rate must be finite and > 0, got -1.0"),
            ({"scenario": "lowerbound-demo", "demo": {"corral_eta": math.inf}},
             "learning rate must be finite and > 0, got inf"),
            ({"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": dict(SMALL_DEMO, demo={"naive_eta": -50.0})},
            ]}, "naive learning rate must be finite and > 0, got -50.0"),
            ({"bases": [{"kind": "thompson", "prior": [[math.nan, 1.0], [1.0, 1.0]]},
                        {"kind": "exp3"}]},
             "prior pseudo-counts must be finite and > 0, got (nan, 1.0)"),
            ({"bases": [{"kind": "thompson", "prior": [[math.inf, 1.0], [1.0, 1.0]]},
                        {"kind": "exp3"}]},
             "prior pseudo-counts must be finite and > 0, got (inf, 1.0)"),
            ({"environment": dict(CONTEXTUAL_ENV, cond_means=[[0.2, math.nan], [0.5, 0.5]])},
             "conditional means must lie in [0, 1]"),
            ({"environment": dict(CONTEXTUAL_ENV, context_probs=[math.nan, 1.0])},
             "context distribution must be positive and sum to 1"),
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[1.0, math.nan])},
            ]}, "rho levels must be finite and >= 1, got [1.0, nan]"),
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[1.0, math.inf])},
            ]}, "rho levels must be finite and >= 1, got [1.0, inf]"),
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[4.0, 4.0])},
            ]}, "rho levels must be distinct, got [4.0, 4.0]"),
            ({"scenario": "sweep", "environment": SHORT_SCRIPT,
              "runs": [{"name": "a", "config": SMALL_RUN}]},
             "unknown sweep config keys: ['environment']"),
            ({"horizon": 10.9}, "horizon takes integers, got 10.9"),
            ({"seeds": [1.7]}, "seeds takes integers, got 1.7"),
            ({"seeds": [True]}, "seeds takes integers, got True"),
            ({"seeds": [0, 2**64]}, "seeds must lie in [0, 2**64)"),
            ({"seeds": [-1]}, "seeds must lie in [0, 2**64), got [-1]"),
            # Keys that no check read: each loaded and was ignored.
            ({"scenario": "standalone-run", "master": {"eta": 0.05}},
             "unknown standalone-run config keys: ['master']"),
            ({"scenario": "lowerbound-demo", "master": {"eta": 0.05}},
             "unknown lowerbound-demo config keys: ['master']"),
            ({"scenario": "standalone-run", "demo": {"naive_eta": 1e-3}},
             "unknown standalone-run config keys: ['demo']"),
            ({"scenario": "standalone-run", "rho_levels": [1.0, 4.0]},
             "unknown standalone-run config keys: ['rho_levels']"),
            ({"scenario": "lowerbound-demo", "rho_levels": [1.0, 4.0]},
             "unknown lowerbound-demo config keys: ['rho_levels']"),
            ({"master": {"eta": 0.05, "regret_target": 10.0}},
             "unknown master keys: ['regret_target']"),
            ({"scenario": "lowerbound-demo", "environment": {}},
             "unknown lowerbound-demo config keys: ['environment']"),
            # Values that loaded: numpy's beta draws 0 for an infinite b, and
            # rows past the horizon went unchecked.
            ({"environment": {"kind": "stochastic-mab", "means_prior": [[1, math.inf], [1, 1]]}},
             "means_prior pseudo-counts must be finite and > 0"),
            ({"environment": {"kind": "adversarial-mab",
                              "script": [[0.0, 1.0]] * 50 + [[math.nan, 0.0]]}},
             "script entries must lie in [0, 1]"),
            ({"scenario": "sweep", "runs": [[["name", "a"], ["config", SMALL_RUN]]]},
             "sweep run must be an object, got list"),
            # A list for a key that takes one value fails naming the key;
            # numpy would read a list of CSV lines as the script's rows.
            ({"master": {"eta": [0.8]}}, "eta takes one value, got list"),
            ({"horizon": [5]}, "horizon takes one value, got list"),
            ({"scenario": "lowerbound-demo", "demo": {"corral_eta": [[0.3]]}},
             "corral_eta takes one value, got list"),
            ({"environment": {"kind": "adversarial-mab", "script_csv": ["0.1,0.9"] * 50}},
             "script_csv takes one value, got list"),
            # A value nested deeper or shallower than its key takes fails
            # naming the key, not as a malformed value.
            ({"seeds": [[0]]}, "seeds takes integers, got [0]"),
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[[1.0], [4.0]])},
            ]}, "rho_levels takes numbers, got [1.0]"),
            ({"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [[0, 1]]}]},
             "arm_pair takes integers, got [0, 1]"),
            ({"environment": dict(CONTEXTUAL_ENV, context_probs=[[0.5, 0.5]])},
             "context_probs takes numbers, got [0.5, 0.5]"),
            ({"bases": [{"kind": "thompson", "prior": [1, 1]}, {"kind": "exp3"}]},
             "prior takes a table, got 1"),
            # A 400-digit integer is past the largest float: each raised a
            # bare OverflowError, which escaped as a traceback, and then
            # failed naming no key.
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[1.0, HUGE])},
            ]}, too_large("rho_levels")),
            ({"master": {"eta": HUGE}}, too_large("eta")),
            ({"master": {"eta": "tuned", "regret_target": HUGE}}, too_large("regret_target")),
            ({"scenario": "lowerbound-demo", "demo": {"naive_eta": HUGE}}, too_large("naive_eta")),
            ({"environment": {"kind": "adversarial-mab", "script": [[0, HUGE]] * 50}},
             too_large("script")),
            ({"environment": {"kind": "stochastic-mab", "means": [0.1, HUGE]}},
             too_large("means")),
            ({"environment": {"kind": "stochastic-mab", "means_prior": [[1, HUGE], [1, 1]]}},
             too_large("means_prior")),
            ({"bases": [{"kind": "thompson", "prior": [[HUGE, 1], [1, 1]]}, {"kind": "exp3"}]},
             too_large("prior")),
            ({"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, horizon=HUGE)},
            ]}, too_large("horizon", "integers")),
            ({"scenario": "standalone-run",
              "environment": {"kind": "adversarial-mab", "script": [[0.2, 0.8], [0.5]]}},
             "script rows must have one length, got lengths [1, 2]"),
            # A round log takes at least 40 bytes a round: 10**11 rounds are
            # 4 TB, past any machine this runs on. Nothing is allocated for
            # the horizon when the config is checked.
            ({"horizon": 10**11},
             "the round logs of a horizon of 100000000000 do not fit in memory"),
            ({"scenario": "lowerbound-demo", "horizon": 10**11},
             "the round logs of a horizon of 100000000000 do not fit in memory"),
            ({"bogus": 1}, "unknown corral-run config keys: ['bogus']"),
            # Config text, not overrides. A UTF-16 byte-order mark is not UTF-8.
            (b"\xff\xfe{", "config is not UTF-8 text"),
            (b'{"scenario": ', "config is not valid JSON"),
            # ``json`` alone keeps a repeated key's last value.
            (edited(SMALL_STANDALONE, '"horizon": 50', '"horizon": 10, "horizon": 50'),
             "config repeats key 'horizon'"),
            (edited(SMALL_STANDALONE, '"means": [0.1, 0.9]',
                    '"means": [0.1, 0.9], "means": [0.9, 0.1]'),
             "config repeats key 'means'"),
            (b"[" * 100_000 + b"]" * 100_000, "config nests too deeply"),
            # Python converts no integer literal of more than 4,300 digits:
            # json raised that as a bare ValueError, which escaped as a
            # traceback.
            (edited(SMALL_STANDALONE, '"horizon": 50', '"horizon": ' + "9" * 5000),
             "config is not valid JSON: Exceeds the limit (4300 digits)"),
            # json reads the literal 1e400 as inf, which json.dumps never writes.
            (edited(SMALL_RUN, '"eta": 0.05', '"eta": "tuned", "regret_target": 1e400'),
             "regret_target must be finite and > 0, got inf"),
        ],
        ids=["exp4-no-policies", "thompson-no-prior", "horizon", "seeds", "estimator",
             "restart-policy", "seeds-string", "seeds-duplicate", "means", "eta",
             "eta-missing", "arm-pair-short", "arm-pair-range", "demo-eta", "sweep-eta",
             "script-short", "sweep-script-short", "sweep-seeds", "sweep-horizon",
             "sweep-environment", "eta-inf", "regret-target-inf", "regret-target-overflow",
             "demo-naive-eta-negative", "demo-naive-eta-nan",
             "demo-corral-eta-negative", "demo-corral-eta-inf", "sweep-demo-naive-eta",
             "thompson-prior-nan", "thompson-prior-inf", "cond-means-nan",
             "context-probs-nan", "rho-level-nan", "rho-level-inf", "rho-level-repeated",
             "sweep-script", "horizon-fraction",
             "seed-fraction", "seed-bool", "seed-past-64-bits", "seed-negative",
             "standalone-master", "demo-master", "standalone-demo", "standalone-rho-levels",
             "demo-rho-levels", "regret-target-beside-eta", "demo-environment-empty",
             "means-prior-inf", "script-nan-past-horizon", "sweep-run-pairs",
             "eta-list", "horizon-list", "demo-corral-eta-list", "script-csv-list",
             "seeds-nested", "rho-levels-nested", "arm-pair-nested", "context-probs-nested",
             "prior-flat", "huge-rho-level", "huge-eta", "huge-regret-target",
             "huge-naive-eta", "huge-script-cell", "huge-means", "huge-means-prior",
             "huge-thompson-prior", "huge-stability-horizon", "script-ragged",
             "horizon-past-memory", "demo-horizon-past-memory", "unknown-key", "not-utf8",
             "json-truncated", "repeated-key-top", "repeated-key-environment", "deep-nesting",
             "integer-past-digit-limit", "regret-target-1e400"],
    )
    def test_malformed_config_fails_before_output(self, tmp_path, capsys, source, message):
        # ``source`` is overrides of a small config, or the config file's bytes.
        if isinstance(source, bytes):
            path, command = tmp_path / "config.json", "run"
            path.write_bytes(source)
        else:
            raw = small_config(source)
            path = self.write_config(tmp_path, raw)
            command = {"corral-run": "run", "standalone-run": "standalone",
                       "lowerbound-demo": "lowerbound-demo", "sweep": "sweep"}[raw["scenario"]]
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.load_config(path)
        out_dir = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "names", [["a", "a"], ["../escaped"], [7], ["summary.json"], ["summary.json.tmp"],
                  ["a", "b\ud800"]],
        ids=["duplicate", "parent-escape", "number", "summary", "summary-tmp",
             "lone-surrogate"],
    )
    def test_bad_sweep_run_name_writes_nothing(self, tmp_path, capsys, names):
        # A lone surrogate (the JSON "b\ud800") once passed the load, so run
        # "a" played and wrote its outputs before "b" failed to make its directory.
        runs = [{"name": name, "config": SMALL_RUN} for name in names]
        path = self.write_config(tmp_path, {"scenario": "sweep", "runs": runs})
        out_dir = tmp_path / "out" / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def assert_fails_before_output(self, capsys, argv, out_dir):
        assert main(argv + ["--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_dir.exists()
        return err

    @pytest.mark.parametrize(
        "eta, num_bases",
        [pytest.param(eta, 2, id=str(eta)) for eta in (1e10, 1e12)]
        + [pytest.param(eta, 3, id=f"{eta}-three-bases") for eta in (1e10, 1e12)],
    )
    def test_eta_too_large_for_float_precision_fails_naming_it(
        self, tmp_path, capsys, eta, num_bases
    ):
        # At 1e9 this run plays; at 1e10 and past it the OMD step's q drifts
        # from sum one at round 4 over two bases (the master's scalar path)
        # and round 5 over three (its generic path), which failed naming no key.
        bases = [{"kind": "exp3"}, {"kind": "ucb1"}, {"kind": "exp3"}][:num_bases]
        raw = {"scenario": "corral-run", "horizon": 2000, "seeds": [0],
               "environment": {"kind": "stochastic-mab", "means": [0.2, 0.8]},
               "bases": bases, "master": {"eta": eta}}
        with pytest.raises(NormalizationDriftError):
            run_corral(ExperimentConfig.from_dict(raw))
        path = self.write_config(tmp_path, raw)
        err = self.assert_fails_before_output(capsys, ["run", "--config", path], tmp_path / "o")
        assert err.startswith(f"error: round {num_bases + 2}: ")
        assert "the master's eta is too large" in err

    def test_demo_ratio_without_half_regret_fails_before_output(self, tmp_path, capsys):
        # At horizon 2 both masters of seeds 6 and 7 have no regret at T/2,
        # so regret(T) / regret(T/2) has no value.
        path = self.write_config(
            tmp_path, {"scenario": "lowerbound-demo", "horizon": 2, "seeds": [6, 7]}
        )
        argv = ["lowerbound-demo", "--config", path]
        err = self.assert_fails_before_output(capsys, argv, tmp_path / "o")
        assert "seed 6: the naive master" in err

    def test_negative_seed_offset_fails_before_output(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL_RUN)
        argv = ["run", "--config", path, "--seed-offset", "-1"]
        self.assert_fails_before_output(capsys, argv, tmp_path / "o")

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty"])
    def test_unreadable_script_csv_fails_before_output(self, tmp_path, capsys, kind):
        # numpy raises on a missing file or a directory and only warns on
        # an empty file: each is one typed error naming the key and path.
        script = tmp_path / "script.csv"
        if kind == "directory":
            script.mkdir()
        elif kind == "empty":
            script.write_text("")
        env = {"kind": "adversarial-mab", "script_csv": str(script)}
        path = self.write_config(tmp_path, dict(SMALL_CONFIGS["standalone-run"], environment=env))
        message = f"cannot read script_csv {str(script)!r}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match=re.escape(message)):
                harness.load_config(path)
        assert caught == []
        err = self.assert_fails_before_output(capsys, ["standalone", "--config", path],
                                              tmp_path / "o")
        assert message in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_fails_before_output(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        message = f"cannot read config {str(path)!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.load_config(path)
        argv = ["run", "--config", str(path)]
        assert message in self.assert_fails_before_output(capsys, argv, tmp_path / "o")

    @pytest.mark.parametrize(
        "kind", ["file", "under-file", "sweep", "long-name", "sweep-long-name"]
    )
    def test_bad_out_fails_before_playing(self, tmp_path, capsys, kind):
        # ``--out`` naming a file, a path under one, or a name longer than
        # the filesystem takes would fail only when the outputs are written,
        # after every seed has played. In a sweep, run ``a`` could play and
        # write in full before ``b`` failed.
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        name = "x" * (name_max + 1) if kind.endswith("long-name") else "b"
        out, command, raw = tmp_path / "out", "standalone", SMALL_STANDALONE
        if kind.startswith("sweep"):
            out.mkdir()
            command = "sweep"
            raw = {"scenario": "sweep", "runs": [{"name": run, "config": SMALL_STANDALONE}
                                                 for run in ("a", name)]}
        bad = out / name
        if kind.endswith("long-name"):
            message = f"output path {str(bad)!r} has a name longer than {name_max} bytes"
        else:
            blocker = bad if kind == "sweep" else out
            blocker.write_text("keep\n")
            message = f"output path {str(blocker)!r} exists and is not a directory"
        path = self.write_config(tmp_path, raw)

        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        target = bad if kind in ("under-file", "long-name") else out
        with mock.patch.object(harness, "run_seed", side_effect=AssertionError("played")):
            assert main([command, "--config", path, "--out", str(target)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert tree() == before

    @pytest.mark.parametrize(
        "occupied",
        ["", "D/summary.json", "D/rounds.csv", "D/rounds.csv.tmp", "D/summary.json.tmp",
         "sweep:D/summary.json", "sweep:D/b/summary.json", "sweep:D/b/rounds.csv.tmp"],
    )
    def test_out_that_cannot_take_the_outputs_fails_before_playing(
        self, tmp_path, capsys, monkeypatch, occupied
    ):
        # An empty --out, or an output file (or its .tmp) that is a
        # directory, would fail only when the outputs are written, after
        # every seed has played: ``occupied`` is made a directory.
        monkeypatch.chdir(tmp_path)
        command, raw = "standalone", SMALL_STANDALONE
        if occupied.startswith("sweep:"):
            occupied, command = occupied[len("sweep:"):], "sweep"
            raw = {"scenario": "sweep", "runs": [{"name": name, "config": SMALL_STANDALONE}
                                                 for name in ("a", "b")]}
        if occupied:
            out, message = "D", f"output file {occupied!r} is a directory"
            (tmp_path / occupied).mkdir(parents=True)
        else:
            out, message = "", "output path '' is empty"
        path = self.write_config(tmp_path, raw)
        before = sorted(tmp_path.rglob("*"))
        with mock.patch.object(harness, "run_seed", side_effect=AssertionError("played")):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                execute(ExperimentConfig.from_dict(raw), out)
            assert main([command, "--config", path, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_console_script_is_main(self):
        # CI runs the installed script only to check pip's wrapper around it.
        with open(pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"corral": "corral.cli:main"}

    def test_seed_offset_matches_shifted_config(self, tmp_path):
        base = {
            "scenario": "standalone-run",
            "horizon": 80,
            "seeds": [0, 1],
            "environment": MAB_ENV,
            "bases": [{"kind": "exp3"}],
        }
        path_a = self.write_config(tmp_path, base)
        shifted = dict(base, seeds=[10, 11])
        path_b = tmp_path / "shifted.json"
        path_b.write_text(json.dumps(shifted))
        main(["standalone", "--config", path_a, "--out", str(tmp_path / "a"), "--seed-offset", "10", "--quiet"])
        main(["standalone", "--config", str(path_b), "--out", str(tmp_path / "b"), "--quiet"])
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == (
            tmp_path / "b" / "rounds.csv"
        ).read_bytes()

    def test_sweep_creates_nested_outputs(self, tmp_path):
        sub = {
            "scenario": "standalone-run",
            "horizon": 40,
            "seeds": [0],
            "environment": MAB_ENV,
            "bases": [{"kind": "exp3"}],
        }
        path = self.write_config(
            tmp_path,
            {
                "scenario": "sweep",
                "runs": [
                    {"name": "first", "config": sub},
                    {"name": "second", "config": dict(sub, horizon=60)},
                ],
            },
        )
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "s"), "--quiet"]) == 0
        assert (tmp_path / "s" / "first" / "rounds.csv").exists()
        assert (tmp_path / "s" / "second" / "summary.json").exists()
        assert (tmp_path / "s" / "summary.json").exists()

    def test_nested_sweep_takes_seed_offset(self, tmp_path):
        inner = {"scenario": "sweep", "runs": [{"name": "run", "config": SMALL_RUN}]}
        path = self.write_config(
            tmp_path, {"scenario": "sweep", "runs": [{"name": "inner", "config": inner}]}
        )
        out = tmp_path / "s"
        assert main(["sweep", "--config", path, "--out", str(out), "--seed-offset", "7",
                     "--quiet"]) == 0
        summary = json.loads((out / "inner" / "run" / "summary.json").read_text())
        assert [e["seed"] for e in summary["per_seed"]] == [7]
