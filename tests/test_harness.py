"""Runner: configs, round logs, regret accounting, scenario behavior, CLI."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from corral import harness
from corral.cli import main
from corral.core import ConfigError, IntegrityError, named_rng
from corral.envs import RegretBaseline
from corral.harness import (
    ExperimentConfig,
    RoundLog,
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
SMALL_STABILITY = {
    "scenario": "stability-test",
    "horizon": 50,
    "seeds": [0],
    "environment": MAB_ENV,
    "bases": [{"kind": "exp3"}],
    "rho_levels": [1.0, 4.0],
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


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config(typo_key=1)

    def test_unknown_environment_key(self):
        with pytest.raises(ConfigError):
            config(environment={"kind": "stochastic-mab", "means": [0.1, 0.9], "mean": 1})

    def test_unknown_master_key(self):
        with pytest.raises(ConfigError):
            config(master={"eta": 0.05, "learning_rate": 0.1})

    def test_unknown_base_key(self):
        with pytest.raises(ConfigError):
            config(bases=[{"kind": "exp3", "rate": 1}, {"kind": "ucb1"}])

    def test_corral_needs_two_bases(self):
        with pytest.raises(ConfigError):
            config(bases=[{"kind": "exp3"}])

    def test_standalone_needs_one_base(self):
        with pytest.raises(ConfigError):
            config(scenario="standalone-run")

    def test_stability_needs_two_rho_levels(self):
        with pytest.raises(ConfigError):
            config(scenario="stability-test", bases=[{"kind": "exp3"}], rho_levels=[1.0])

    def test_needs_seeds_and_horizon(self):
        with pytest.raises(ConfigError):
            config(seeds=[])
        with pytest.raises(ConfigError):
            config(horizon=1)

    def test_tuned_eta_requires_target(self):
        with pytest.raises(ConfigError):
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
        assert baseline.per_round == pytest.approx(0.2)


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
    def log(raw, baseline_rate, p_bar, eta, rho, fired):
        """A seed-0 round log with one schedule row per round."""
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
            eta=np.array(eta, dtype=np.float64),
            rho=np.array(rho, dtype=np.float64),
            fired=np.array(fired, dtype=bool),
        )

    def one_base(self, raw, baseline_rate):
        rounds = len(raw)
        return self.log(
            raw, baseline_rate, [(1.0,)] * rounds, [(0.0,)] * rounds, [(2.0,)] * rounds,
            [(0,)] * rounds,
        )

    def test_zero_loss_zero_baseline(self):
        log = self.one_base([0.0] * 10, 0.0)
        out = compute_regret([log], {0: RegretBaseline(0, 0.0)}, 10)
        assert out["mean_final_regret"] == 0.0

    def test_constant_loss_against_baseline(self):
        log = self.one_base([1.0] * 10, 0.4)
        out = compute_regret([log], {0: RegretBaseline(0, 0.4)}, 10)
        assert out["mean_final_regret"] == pytest.approx(6.0)

    def test_missing_round_is_integrity_error(self):
        log = self.one_base([0.5] * 3, 0.0)
        with pytest.raises(IntegrityError):
            compute_regret([log], {0: RegretBaseline(0, 0.0)}, 4)

    def schedule_run(self, p_bar, eta, rho, fired):
        """A zero-loss seed-0 run with one schedule row per round."""
        return [self.log([0.0] * len(p_bar), 0.0, p_bar, eta, rho, fired)]

    def invariants(self, rounds, p_bar, eta, rho, fired):
        run = self.schedule_run(p_bar, eta, rho, fired)
        return compute_regret(run, {0: RegretBaseline(0, 0.0)}, rounds)

    def test_doubling_count_above_cap_is_counted(self):
        # Four rounds cap each base at ceil(log2 4) = 2 doublings.
        out = self.invariants(
            4, [(0.5, 0.5)] * 4, [(0.1, 0.1)] * 4, [(4.0, 4.0)] * 4,
            [(1, 0), (1, 1), (1, 0), (0, 0)],
        )
        assert out["doubling_counts_max"] == [3, 1]
        assert out["invariant_violations"] == {"doubling_count": 1, "eta_cap": 0, "rho_pbar": 0}

    def test_eta_ratio_above_cap_is_counted(self):
        out = self.invariants(
            3, [(0.5, 0.5)] * 3, [(0.1, 0.1), (0.1, 0.3), (0.1, 0.6)], [(4.0, 4.0)] * 3,
            [(0, 0)] * 3,
        )
        assert out["max_eta_ratio"] == 0.6 / 0.1
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 1, "rho_pbar": 0}

    def test_threshold_below_inverse_probability_is_counted(self):
        out = self.invariants(
            3, [(0.5, 0.5), (0.25, 0.75), (0.5, 0.5)], [(0.1, 0.1)] * 3,
            [(4.0, 4.0), (3.0, 4.0), (4.0, 4.0)], [(0, 0)] * 3,
        )
        assert out["per_seed"][0]["min_rho_pbar"] == 0.75
        assert out["per_seed"][0]["rho_final"] == [4.0, 4.0]
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 1}

    def test_zero_first_rate_is_left_out_of_the_eta_ratio(self):
        out = self.invariants(
            3, [(0.5, 0.5)] * 3, [(0.0, 0.1), (1.0, 0.1), (2.0, 0.2)], [(4.0, 4.0)] * 3,
            [(0, 0)] * 3,
        )
        assert out["max_eta_ratio"] == 0.2 / 0.1
        out = self.invariants(
            2, [(0.5, 0.5)] * 2, [(0.0, 0.0), (1.0, 1.0)], [(4.0, 4.0)] * 2, [(0, 0)] * 2
        )
        assert out["max_eta_ratio"] == 1.0
        assert out["invariant_violations"] == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}

    def test_replaying_baseline_decision_has_near_zero_regret(self):
        # Playing the baseline arm itself: pseudo-regret fluctuates around
        # zero within sampling error.
        from corral.envs import StochasticMAB

        finals = []
        horizon = 2000
        for seed in range(20):
            env = StochasticMAB([0.3, 0.7], named_rng(seed, "env"))
            cum = 0.0
            for _ in range(horizon):
                env.next_context()
                cum += env.loss_of(0)
            finals.append(cum - 0.3 * horizon)
        mean = float(np.mean(finals))
        stderr = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
        assert abs(mean) <= 3.0 * stderr


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


class TestLowerBoundDemoSmoke:
    def test_small_demo_runs_and_reports(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "lowerbound-demo", "horizon": 500, "seeds": [0, 1, 2]}
        )
        summary, logs = run_lowerbound_demo(cfg)
        assert set(summary["masters"]) == {"naive", "corral"}
        assert [len(log.raw_loss) for log in logs] == [500] * 3
        assert summary["standalone_matched"]["max_regret_step"] <= 1.0


class TestCsvFormat:
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
        "overrides",
        [
            {"bases": [{"kind": "exp4"}, {"kind": "exp3"}]},
            {"bases": [{"kind": "thompson"}, {"kind": "exp3"}]},
            {"horizon": "x"},
            {"seeds": "ab"},
            {"master": {"eta": 0.05, "estimator": "fancy"}},
            {"master": {"eta": 0.05, "restart_policy": "sometimes"}},
            {"seeds": "12"},
            {"seeds": [3, 3]},
            {"environment": {"kind": "stochastic-mab", "means": "ab"}},
            {"master": {"eta": "fast"}},
            {"master": {}},
            {"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [1]}]},
            {"bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [0, 7]}]},
            {"scenario": "lowerbound-demo", "environment": {}, "bases": [],
             "demo": {"corral_eta": "fast"}},
            {"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": dict(SMALL_RUN, master={"eta": "fast"})},
            ]},
            {"environment": SHORT_SCRIPT},
            {"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": dict(SMALL_RUN, environment=SHORT_SCRIPT)},
            ]},
            {"scenario": "sweep", "seeds": [1, 1], "runs": [{"name": "a", "config": SMALL_RUN}]},
            {"scenario": "sweep", "horizon": "7", "runs": [{"name": "a", "config": SMALL_RUN}]},
            {"scenario": "sweep", "environment": {"kind": "nope"},
             "runs": [{"name": "a", "config": SMALL_RUN}]},
            {"master": {"eta": math.inf}},
            {"scenario": "lowerbound-demo", "environment": {}, "bases": [],
             "demo": {"naive_eta": -50.0}},
            {"scenario": "lowerbound-demo", "environment": {}, "bases": [],
             "demo": {"naive_eta": math.nan}},
            {"scenario": "lowerbound-demo", "environment": {}, "bases": [],
             "demo": {"corral_eta": -1.0}},
            {"scenario": "lowerbound-demo", "environment": {}, "bases": [],
             "demo": {"corral_eta": math.inf}},
            {"scenario": "sweep", "runs": [
                {"name": "first", "config": SMALL_RUN},
                {"name": "second", "config": {"scenario": "lowerbound-demo", "horizon": 50,
                                              "seeds": [0], "demo": {"naive_eta": -50.0}}},
            ]},
            {"bases": [{"kind": "thompson", "prior": [[math.nan, 1.0], [1.0, 1.0]]},
                       {"kind": "exp3"}]},
            {"bases": [{"kind": "thompson", "prior": [[math.inf, 1.0], [1.0, 1.0]]},
                       {"kind": "exp3"}]},
            {"environment": dict(CONTEXTUAL_ENV, cond_means=[[0.2, math.nan], [0.5, 0.5]])},
            {"environment": dict(CONTEXTUAL_ENV, context_probs=[math.nan, 1.0])},
            {"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[1.0, math.nan])},
            ]},
            {"scenario": "sweep", "runs": [
                {"name": "a", "config": dict(SMALL_STABILITY, rho_levels=[1.0, math.inf])},
            ]},
            {"horizon": 10.9},
            {"seeds": [1.7]},
            {"seeds": [True]},
        ],
        ids=["exp4-no-policies", "thompson-no-prior", "horizon", "seeds", "estimator",
             "restart-policy", "seeds-string", "seeds-duplicate", "means", "eta",
             "eta-missing", "arm-pair-short", "arm-pair-range", "demo-eta", "sweep-eta",
             "script-short", "sweep-script-short", "sweep-seeds", "sweep-horizon",
             "sweep-environment", "eta-inf", "demo-naive-eta-negative", "demo-naive-eta-nan",
             "demo-corral-eta-negative", "demo-corral-eta-inf", "sweep-demo-naive-eta",
             "thompson-prior-nan", "thompson-prior-inf", "cond-means-nan",
             "context-probs-nan", "rho-level-nan", "rho-level-inf", "horizon-fraction",
             "seed-fraction", "seed-bool"],
    )
    def test_malformed_config_fails_before_output(self, tmp_path, capsys, overrides):
        raw = dict(SMALL_RUN, **overrides)
        if raw["scenario"] == "sweep":
            raw = overrides
        path = self.write_config(tmp_path, raw)
        with pytest.raises(ConfigError):
            harness.load_config(path)
        out_dir = tmp_path / "o"
        command = {"corral-run": "run", "lowerbound-demo": "lowerbound-demo", "sweep": "sweep"}
        assert main([command[raw["scenario"]], "--config", path, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out_dir.exists()

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "corral-run", "bogus": 1})
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

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
