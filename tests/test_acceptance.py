"""Acceptance suite: one test per criterion, printing a pass line each.

All scenario configurations and thresholds were registered from pilot runs
before being frozen here; every run is seeded, so the suite is
deterministic end to end.
"""

import math

import numpy as np
import pytest

from corral.harness import (
    ExperimentConfig,
    execute,
    run_corral,
    run_lowerbound_demo,
    run_stability_test,
    run_standalone,
)
from corral.master import ESTIMATOR_SHARED, ESTIMATOR_STANDARD, build_packets
from corral.omd import bregman_log_barrier, omd_step, solve_lambda

SEEDS_20 = list(range(20))

CONTEXTUAL_ENV = {
    "kind": "stochastic-contextual",
    "context_probs": [0.5, 0.5],
    "cond_means": [[0.2, 0.5, 0.65, 0.8], [0.7, 0.25, 0.55, 0.85]],
    "policies": [[0, 1], [0, 0], [1, 1], [2, 3], [3, 2], [1, 0], [2, 2], [3, 3]],
}

# Prior-ensemble scenario: arm means are drawn per run from tight Beta
# priors so the true-prior learner faces a hard instance; the wrong prior
# is confidently inverted. The master rate is registered at the sqrt(M/T)
# scale (0.02 for M=3, T=20000) from the pilot sweep.
ENSEMBLE_HORIZON = 20_000
TRUE_PRIOR = [[40, 40]] * 5
WRONG_PRIOR = [[1, 19]] + [[19, 1]] * 4
WRONG_PRIOR_2 = [[19, 1], [19, 1], [1, 19], [19, 1], [19, 1]]
ENSEMBLE_ENV = {"kind": "stochastic-mab", "means_prior": TRUE_PRIOR}
ENSEMBLE_ETA = 0.02


@pytest.fixture(scope="module")
def demo_results():
    cfg = ExperimentConfig.from_dict(
        {"scenario": "lowerbound-demo", "horizon": 10_000, "seeds": list(range(50))}
    )
    return run_lowerbound_demo(cfg)


@pytest.fixture(scope="module")
def ensemble_results():
    bases = [
        {"kind": "thompson", "prior": TRUE_PRIOR},
        {"kind": "thompson", "prior": WRONG_PRIOR},
        {"kind": "exp3"},
    ]
    standalones = {}
    for label, base in zip(("thompson-true", "thompson-wrong", "exp3"), bases):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": ENSEMBLE_HORIZON,
                "seeds": SEEDS_20,
                "environment": ENSEMBLE_ENV,
                "bases": [base],
            }
        )
        summary, _ = run_standalone(cfg)
        standalones[label] = summary["mean_final_regret"]
    cfg = ExperimentConfig.from_dict(
        {
            "scenario": "corral-run",
            "horizon": ENSEMBLE_HORIZON,
            "seeds": SEEDS_20,
            "environment": ENSEMBLE_ENV,
            "bases": bases,
            "master": {"eta": ENSEMBLE_ETA, "estimator": "shared"},
        }
    )
    summary, _ = run_corral(cfg)
    return {"standalones": standalones, "corral": summary}


@pytest.fixture(scope="module")
def model_selection_results():
    cfg = ExperimentConfig.from_dict(
        {
            "scenario": "corral-run",
            "horizon": ENSEMBLE_HORIZON,
            "seeds": SEEDS_20,
            "environment": ENSEMBLE_ENV,
            "bases": [
                {"kind": "thompson", "prior": TRUE_PRIOR},
                {"kind": "thompson", "prior": WRONG_PRIOR},
                {"kind": "thompson", "prior": WRONG_PRIOR_2},
            ],
            "master": {"eta": ENSEMBLE_ETA, "estimator": "shared"},
        }
    )
    summary, logs = run_corral(cfg)
    # Row t - 1 of a log is round t.
    early = float(np.mean([log.cum_regret[2_000 - 1] / 2_000 for log in logs]))
    late = float(
        np.mean([log.cum_regret[ENSEMBLE_HORIZON - 1] / ENSEMBLE_HORIZON for log in logs])
    )
    return {"summary": summary, "rate_early": early, "rate_late": late}


def oracle_lambda(p, losses, rates, grid_points=1_000_000, refinements=2):
    """Fine-grid scan with local refinement; independent of the solver."""
    inv_p = np.asarray([1.0 / x for x in p])
    losses = np.asarray(losses, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    lo, hi = float(losses.min()), float(losses.max())
    if lo == hi:
        return lo
    for stage in range(refinements + 1):
        n = grid_points if stage == 0 else 1000
        lams = np.linspace(lo, hi, n + 1)
        f = np.zeros_like(lams)
        valid = np.ones(lams.shape, dtype=bool)
        for ip, r, l in zip(inv_p, rates, losses):
            den = ip + r * (l - lams)
            valid &= den > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                f += np.where(den > 0.0, 1.0 / den, np.inf)
        above = ~valid | (f > 1.0)
        idx = int(np.argmax(above))
        if not above[idx]:
            idx = len(lams) - 1
        lo, hi = float(lams[max(idx - 1, 0)]), float(lams[idx])
    return 0.5 * (lo + hi)


def test_criterion_1_omd_solver_matches_grid_oracle():
    rng = np.random.default_rng(20240817)
    worst_gap = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(m)).tolist()
        losses = (rng.random(m) * 100.0).tolist()
        rates = (rng.random(m) * 10.0 + 1e-9).tolist()
        lam = solve_lambda(p, losses, rates)
        lam_oracle = oracle_lambda(p, losses, rates)
        worst_gap = max(worst_gap, abs(lam - lam_oracle))
        assert abs(lam - lam_oracle) <= 1e-6
        q = omd_step(p, losses, rates)
        assert abs(sum(q) - 1.0) <= 1e-9
        assert min(q) > 0.0
    # Worked quadratic instances.
    assert solve_lambda([0.5, 0.5], [1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        (3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9
    )
    assert solve_lambda(
        [1 / 3, 1 / 3, 1 / 3], [3.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    ) == pytest.approx(3.0 - math.sqrt(6.0), abs=1e-9)
    print(f"\nACCEPTANCE 1 PASS: solver vs oracle on 1000 instances, "
          f"worst |dlam| = {worst_gap:.3e}")


def test_criterion_2_update_satisfies_telescoped_regret_bound():
    rng = np.random.default_rng(107)
    m, t_len = 4, 50
    worst_slack = math.inf
    for _ in range(100):
        p = rng.dirichlet(np.ones(m)).tolist()
        trajectory, loss_seq, rate_seq = [p], [], []
        for _ in range(t_len):
            losses = (rng.random(m) * 5.0).tolist()
            rates = (rng.random(m) * 2.0 + 0.01).tolist()
            loss_seq.append(losses)
            rate_seq.append(rates)
            p = omd_step(p, losses, rates)
            trajectory.append(p)
        for _ in range(10):
            u = rng.dirichlet(np.ones(m)).tolist()
            lhs = rhs = 0.0
            for t in range(t_len):
                pt, nxt = trajectory[t], trajectory[t + 1]
                losses, rates = loss_seq[t], rate_seq[t]
                lhs += sum((pt[i] - u[i]) * losses[i] for i in range(m))
                rhs += bregman_log_barrier(rates, u, pt)
                rhs -= bregman_log_barrier(rates, u, nxt)
                rhs += sum(rates[i] * pt[i] ** 2 * losses[i] ** 2 for i in range(m))
            slack = rhs - lhs
            worst_slack = min(worst_slack, slack)
            assert slack >= -1e-8
    print(f"\nACCEPTANCE 2 PASS: summed regret-bound slack >= {worst_slack:.3e} "
          f"over 100 sequences x 10 comparators")


def test_criterion_3_estimators_are_exactly_unbiased():
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        p_bar = rng.dirichlet(np.ones(m)).tolist()
        proposals = [int(rng.integers(4)) for _ in range(m)]
        losses = {d: float(rng.random()) for d in set(proposals)}
        for estimator in (ESTIMATOR_STANDARD, ESTIMATOR_SHARED):
            expected = [0.0] * m
            for chosen in range(m):
                packets = build_packets(
                    p_bar, proposals, losses[proposals[chosen]], chosen, estimator
                )
                for i in range(m):
                    expected[i] += p_bar[chosen] * packets[i].weighted_loss
            for i in range(m):
                gap = abs(expected[i] - losses[proposals[i]])
                worst = max(worst, gap)
                assert gap <= 1e-12
    print(f"\nACCEPTANCE 3 PASS: exact estimator expectation, worst gap {worst:.3e}")


def test_criterion_4_schedule_invariants_across_suite(
    demo_results, ensemble_results, model_selection_results
):
    demo_summary, _ = demo_results
    # A deliberately hostile run: large rate and regime-flipping losses force
    # many threshold events, stressing the schedule bounds.
    stress_cfg = ExperimentConfig.from_dict(
        {
            "scenario": "corral-run",
            "horizon": 2_000,
            "seeds": list(range(5)),
            "environment": {
                "kind": "adversarial-mab",
                "script": [
                    [1.0, 0.0] if (t // 100) % 2 == 0 else [0.0, 1.0]
                    for t in range(2_000)
                ],
            },
            "bases": [{"kind": "exp3"}, {"kind": "exp3"}],
            "master": {"eta": 0.9},
        }
    )
    stress_summary, _ = run_corral(stress_cfg)
    checked = {
        "lowerbound-demo": demo_summary["corral_invariants"],
        "ensemble": ensemble_results["corral"]["invariant_violations"],
        "model-selection": model_selection_results["summary"]["invariant_violations"],
        "doubling-stress": stress_summary["invariant_violations"],
    }
    for name, violations in checked.items():
        assert violations == {"doubling_count": 0, "eta_cap": 0, "rho_pbar": 0}, name
    assert demo_summary["corral_max_eta_ratio"] <= 5.0
    assert ensemble_results["corral"]["max_eta_ratio"] <= 5.0
    assert stress_summary["max_eta_ratio"] <= 5.0
    cap = math.ceil(math.log2(ENSEMBLE_HORIZON))
    assert all(d <= cap for d in ensemble_results["corral"]["doubling_counts_max"])
    stress_cap = math.ceil(math.log2(2_000))
    assert all(d <= stress_cap for d in stress_summary["doubling_counts_max"])
    assert max(stress_summary["doubling_counts_max"]) >= 3, "stress run too tame"
    print("\nACCEPTANCE 4 PASS: zero schedule-invariant violations "
          f"across {len(checked)} experiment logs "
          f"(stress doublings {stress_summary['doubling_counts_max']}, "
          f"max rate ratio {stress_summary['max_eta_ratio']:.3f})")


def test_criterion_5_lower_bound_demo_is_linear(demo_results):
    summary, _ = demo_results
    for master in ("naive", "corral"):
        ratio = summary["masters"][master]["mean_ratio"]
        assert 1.8 <= ratio <= 2.2, master
    step = summary["standalone_matched"]["max_regret_step"]
    assert step <= 1.0
    print("\nACCEPTANCE 5 PASS: regret(T)/regret(T/2) = "
          f"{summary['masters']['naive']['mean_ratio']:.3f} (naive), "
          f"{summary['masters']['corral']['mean_ratio']:.3f} (corral); "
          f"matched standalone step {step:.2e}")


def test_criterion_6_stability_exponents_near_half():
    runs = {
        "exp3": {
            "environment": {"kind": "stochastic-mab", "means": [0.2, 0.4, 0.6, 0.8]},
            "bases": [{"kind": "exp3"}],
        },
        "exp4": {
            "environment": CONTEXTUAL_ENV,
            "bases": [{"kind": "exp4", "policies": CONTEXTUAL_ENV["policies"]}],
        },
    }
    fitted = {}
    for name, pieces in runs.items():
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "stability-test",
                "horizon": 20_000,
                "seeds": SEEDS_20,
                "rho_levels": [1.0, 4.0, 16.0],
                **pieces,
            }
        )
        out = run_stability_test(cfg)
        fitted[name] = out["alpha_hat"]
        assert out["certificate_alpha"] == 0.5
        assert 0.35 <= out["alpha_hat"] <= 0.65, name
    print(f"\nACCEPTANCE 6 PASS: fitted exponents exp3 = {fitted['exp3']:.3f}, "
          f"exp4 = {fitted['exp4']:.3f} (certificates 0.5)")


def test_criterion_7_explore_first_rate_in_horizon():
    regrets = {}
    for horizon in (2_000, 16_000):
        cfg = ExperimentConfig.from_dict(
            {
                "scenario": "standalone-run",
                "horizon": horizon,
                "seeds": SEEDS_20,
                "environment": CONTEXTUAL_ENV,
                "bases": [
                    {"kind": "epoch-greedy", "policies": CONTEXTUAL_ENV["policies"]}
                ],
            }
        )
        summary, _ = run_standalone(cfg)
        regrets[horizon] = summary["mean_final_regret"]
    exponent = math.log(regrets[16_000] / regrets[2_000]) / math.log(8.0)
    assert 0.55 <= exponent <= 0.80
    print(f"\nACCEPTANCE 7 PASS: regret exponent in horizon = {exponent:.3f} "
          f"(theory 2/3)")


def test_criterion_8_ensemble_beats_worst_tracks_best(ensemble_results):
    corral_regret = ensemble_results["corral"]["mean_final_regret"]
    standalones = ensemble_results["standalones"]
    worst = max(standalones.values())
    best = min(standalones.values())
    assert corral_regret <= 0.5 * worst
    assert corral_regret <= 5.0 * best
    print(f"\nACCEPTANCE 8 PASS: ensemble regret {corral_regret:.1f} <= "
          f"0.5 x worst ({0.5 * worst:.1f}) and <= 5 x best ({5.0 * best:.1f})")


def test_criterion_9_model_selection_is_sublinear(model_selection_results):
    early = model_selection_results["rate_early"]
    late = model_selection_results["rate_late"]
    assert late <= 0.5 * early
    print(f"\nACCEPTANCE 9 PASS: regret/T fell from {early:.4f} at T=2000 "
          f"to {late:.4f} at T=20000 (ratio {late / early:.3f})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    sub_corral = {
        "scenario": "corral-run",
        "horizon": 2_000,
        "seeds": [0, 1],
        "environment": {"kind": "stochastic-mab", "means": [0.1, 0.5, 0.9]},
        "bases": [
            {"kind": "exp3"},
            {"kind": "thompson", "prior": [[1, 1]] * 3},
        ],
        "master": {"eta": 0.05, "estimator": "shared"},
    }
    sweep = {
        "scenario": "sweep",
        "runs": [
            {"name": "corral", "config": sub_corral},
            {
                "name": "alone",
                "config": {
                    "scenario": "standalone-run",
                    "horizon": 1_000,
                    "seeds": [0, 1],
                    "environment": {"kind": "stochastic-mab", "means": [0.1, 0.9]},
                    "bases": [{"kind": "exp3"}],
                },
            },
            {
                "name": "stability",
                "config": {
                    "scenario": "stability-test",
                    "horizon": 1_000,
                    "seeds": [0, 1],
                    "environment": {"kind": "stochastic-mab", "means": [0.2, 0.8]},
                    "bases": [{"kind": "exp3"}],
                    "rho_levels": [1.0, 4.0],
                },
            },
            {
                "name": "demo",
                "config": {
                    "scenario": "lowerbound-demo",
                    "horizon": 1_000,
                    "seeds": [0, 1],
                },
            },
        ],
    }
    cfg = ExperimentConfig.from_dict(sweep)
    execute(cfg, tmp_path / "a")
    execute(cfg, tmp_path / "b")
    compared = 0
    for sub in ("", "corral", "alone", "stability", "demo"):
        for name in ("rounds.csv", "summary.json"):
            path_a = tmp_path / "a" / sub / name
            path_b = tmp_path / "b" / sub / name
            assert path_a.exists() == path_b.exists()
            if path_a.exists():
                assert path_a.read_bytes() == path_b.read_bytes(), (sub, name)
                compared += 1
    assert compared >= 6
    print(f"\nACCEPTANCE 10 PASS: {compared} output files byte-identical "
          "across two executions")
