"""Environments: losses, baselines, the hard instance, the induced wrapper."""

import math

import numpy as np
import pytest

from corral.core import ConfigError, named_rng, sample_index
from corral.envs import (
    AdversarialMAB,
    InducedEnvironment,
    LowerBoundEnv,
    StochasticContextual,
    StochasticMAB,
)
from corral.bases import Exp3
from corral.harness import build_environment, union_baseline


class TestStochasticMAB:
    def test_baseline_is_argmin_mean(self):
        env = StochasticMAB([0.1, 0.9], named_rng(0, "env"))
        baseline = env.baseline()
        assert baseline.best_decision == 0
        assert baseline.per_round == pytest.approx(0.1)
        assert baseline.cumulative(10) == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_index(self):
        env = StochasticMAB([0.4, 0.4, 0.4], named_rng(0, "env"))
        assert env.baseline().best_decision == 0

    def test_losses_are_bernoulli_with_configured_mean(self):
        env = StochasticMAB([0.3, 0.6], named_rng(1, "env"))
        totals = np.zeros(2)
        n = 100_000
        for _ in range(n):
            env.next_context()
            totals += [env.loss_of(0), env.loss_of(1)]
        assert abs(totals[0] / n - 0.3) <= 0.01
        assert abs(totals[1] / n - 0.6) <= 0.01

    def test_mean_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            StochasticMAB([0.5, 1.2], named_rng(0, "env"))


class TestAdversarialMAB:
    def test_alternating_script_tie_breaks_low(self):
        script = [[1.0, 0.0] if t % 2 == 0 else [0.0, 1.0] for t in range(100)]
        env = AdversarialMAB(script)
        baseline = env.baseline()
        assert baseline.best_decision == 0
        assert baseline.cumulative(100) == pytest.approx(50.0)

    def test_constant_script_baseline(self):
        env = AdversarialMAB([[0.7, 0.2, 0.9]] * 10)
        assert env.baseline().best_decision == 1

    def test_zero_column_is_baseline(self):
        env = AdversarialMAB([[0.5, 0.0], [0.9, 0.0]])
        baseline = env.baseline()
        assert baseline.best_decision == 1
        assert baseline.cumulative(2) == 0.0

    def test_rows_emitted_in_order(self):
        env = AdversarialMAB([[0.1, 0.2], [0.3, 0.4]])
        env.next_context()
        assert env.loss_of(1) == 0.2
        env.next_context()
        assert env.loss_of(0) == 0.3
        with pytest.raises(ConfigError):
            env.next_context()

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "script.csv"
        path.write_text("0.1,0.9\n0.3,0.2\n")
        spec = {"kind": "adversarial-mab", "script_csv": str(path)}
        env = build_environment(spec, None, 2)
        assert env.script.shape == (2, 2)
        assert env.baseline().best_decision == 0

    def test_entries_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            AdversarialMAB([[0.1, 1.4]])


class TestStochasticContextual:
    def test_single_context_reduces_to_mab(self):
        env = StochasticContextual(
            [1.0], [[0.2, 0.7]], [(0,), (1,)], named_rng(2, "env")
        )
        baseline = env.baseline()
        assert baseline.best_decision == 0
        assert baseline.per_round == pytest.approx(0.2)
        mab = StochasticMAB([0.2, 0.7], named_rng(2, "env"))
        assert baseline.per_round == mab.baseline().per_round

    def test_pointwise_dominating_policy_is_baseline(self):
        env = StochasticContextual(
            [0.5, 0.5],
            [[0.1, 0.9], [0.8, 0.2]],
            [(0, 1), (0, 0), (1, 1), (1, 0)],
            named_rng(3, "env"),
        )
        baseline = env.baseline()
        assert baseline.best_decision == 0
        assert baseline.per_round == pytest.approx(0.15)

    def test_baseline_matches_bruteforce_enumeration(self):
        rng = named_rng(4, "env")
        probs = [0.3, 0.7]
        cond = [[0.4, 0.6], [0.55, 0.15]]
        policies = [(0, 0), (0, 1), (1, 0), (1, 1)]
        env = StochasticContextual(probs, cond, policies, rng)
        brute = [
            sum(p * cond[c][pol[c]] for c, p in enumerate(probs)) for pol in policies
        ]
        baseline = env.baseline()
        assert baseline.best_decision == int(np.argmin(brute))
        assert baseline.per_round == pytest.approx(min(brute))

    def test_arm_baseline_uses_constant_policies(self):
        env = StochasticContextual(
            [0.5, 0.5],
            [[0.1, 0.9], [0.8, 0.2]],
            [(0, 1)],
            named_rng(5, "env"),
        )
        # An arm-space base contributes every constant policy, and only those.
        arm = union_baseline(env, [Exp3(2, 10, 1.0, named_rng(5, "base"))])
        # Constant arms cost 0.45 and 0.55 in expectation.
        assert arm.per_round == pytest.approx(0.45)

    def test_contexts_within_declared_set(self):
        env = StochasticContextual(
            [0.2, 0.8], [[0.5, 0.5], [0.5, 0.5]], [(0, 0)], named_rng(6, "env")
        )
        for _ in range(500):
            assert env.next_context() in (0, 1)

    @pytest.mark.parametrize(
        "probs, cond",
        [
            ([0.5, 0.5], [[0.2, math.nan], [0.5, 0.5]]),
            ([0.5, 0.5], [[0.2, math.inf], [0.5, 0.5]]),
            ([math.nan, 1.0], [[0.2, 0.4], [0.5, 0.5]]),
            ([math.inf, 1.0], [[0.2, 0.4], [0.5, 0.5]]),
        ],
        ids=["cond-nan", "cond-inf", "probs-nan", "probs-inf"],
    )
    def test_non_finite_spec_rejected(self, probs, cond):
        with pytest.raises(ConfigError):
            StochasticContextual(probs, cond, [(0, 1)], named_rng(0, "env"))


class TestBlockStreamLosses:
    """The environments draw their uniforms in blocks, yet every realized
    loss equals the one-call-per-round numpy formula on a twin generator."""

    ROUNDS = 5_000

    def test_mab_matches_array_draws(self):
        means = [0.0, 0.2, 0.5, 0.8, 1.0]
        env = StochasticMAB(means, named_rng(21, "env"))
        twin = named_rng(21, "env")
        for _ in range(self.ROUNDS):
            assert env.next_context() == 0
            expected = (twin.random(len(means)) < np.array(means)).astype(np.float64)
            assert [env.loss_of(d) for d in range(len(means))] == expected.tolist()
        assert env.rng.random() == twin.random()

    def test_contextual_matches_array_draws(self):
        probs = [0.2, 0.5, 0.3]
        cond = np.array([[0.2, 0.5, 0.65, 0.8], [0.7, 0.25, 0.0, 1.0], [0.5] * 4])
        env = StochasticContextual(probs, cond, [(0, 1, 2)], named_rng(22, "env"))
        twin = named_rng(22, "env")
        for _ in range(self.ROUNDS):
            context = sample_index(twin, probs)
            assert env.next_context() == context
            expected = (twin.random(4) < cond[context]).astype(np.float64)
            assert [env.loss_of(d) for d in range(4)] == expected.tolist()
        assert env.rng.random() == twin.random()


class TestLowerBoundEnv:
    def test_loss_structure(self):
        for seed in range(40):
            env = LowerBoundEnv(named_rng(seed, "env"))
            pair_a = sorted([env.losses[0], env.losses[1]])
            pair_b = sorted([env.losses[2], env.losses[3]])
            assert sorted([tuple(pair_a), tuple(pair_b)]) == [
                (0.1, 0.2),
                (0.3, 0.4),
            ]
            assert env.baseline().per_round == pytest.approx(0.1)
            assert env.losses[env.baseline().best_decision] == 0.1
            assert set(env.cheap_pair) <= {0, 1, 2, 3}

    def test_both_orientations_occur(self):
        cheap_first = {LowerBoundEnv(named_rng(s, "env")).cheap_pair for s in range(40)}
        assert cheap_first == {(0, 1), (2, 3)}

    def test_losses_constant_after_draw(self):
        env = LowerBoundEnv(named_rng(7, "env"))
        first = [env.loss_of(a) for a in range(4)]
        for _ in range(100):
            env.next_context()
            assert [env.loss_of(a) for a in range(4)] == first

    def test_playing_best_action_has_zero_regret(self):
        env = LowerBoundEnv(named_rng(8, "env"))
        best = env.baseline().best_decision
        regret = sum(env.loss_of(best) - 0.1 for _ in range(50))
        assert regret == 0.0

    def test_wrong_pair_costs_at_least_two_tenths(self):
        env = LowerBoundEnv(named_rng(9, "env"))
        dear = (2, 3) if env.cheap_pair == (0, 1) else (0, 1)
        for arm in dear:
            assert env.loss_of(arm) - 0.1 >= 0.2 - 1e-12


class TestInducedEnvironment:
    def test_unit_probability_is_identity(self):
        inner = StochasticMAB([0.3, 0.6], named_rng(10, "env"))
        inner_twin = StochasticMAB([0.3, 0.6], named_rng(10, "env"))
        wrapped = InducedEnvironment(inner, 1.0, named_rng(10, "wrapper"))
        for _ in range(200):
            wrapped.next_context()
            inner_twin.next_context()
            selected, emitted = wrapped.observe(0)
            assert selected
            assert emitted == inner_twin.loss_of(0)

    def test_quarter_probability_scales_by_four(self):
        env = AdversarialMAB([[0.8, 0.0]] * 10)
        wrapped = InducedEnvironment(env, 0.25, named_rng(11, "wrapper"))
        seen = set()
        for _ in range(10):
            wrapped.next_context()
            selected, emitted = wrapped.observe(0)
            seen.add((selected, emitted))
        assert seen <= {(True, 3.2), (False, 0.0)}
        assert (True, 3.2) in seen

    def test_exact_two_point_unbiasedness(self):
        for prob in np.linspace(0.05, 1.0, 20):
            for loss in np.linspace(0.0, 1.0, 11):
                weighted = loss / prob
                assert prob * weighted + (1 - prob) * 0.0 == pytest.approx(
                    loss, abs=1e-14
                )

    def test_empirical_mean_matches_inner(self):
        env = StochasticMAB([0.3, 0.6], named_rng(1, "env"))
        wrapped = InducedEnvironment(env, 0.25, named_rng(1, "wrapper"))
        total = 0.0
        n = 100_000
        for _ in range(n):
            wrapped.next_context()
            total += wrapped.observe(0)[1]
        assert abs(total / n - 0.3) <= 0.02

    def test_schedule_validation(self):
        env = StochasticMAB([0.5, 0.5], named_rng(12, "env"))
        with pytest.raises(ConfigError):
            InducedEnvironment(env, 0.0, named_rng(12, "wrapper"))
        with pytest.raises(ConfigError):
            InducedEnvironment(env, 1.5, named_rng(12, "wrapper"))


class TestRawLossRangeFuzz:
    def test_all_kinds_emit_unit_interval_losses(self):
        # 10^6 realized losses across the environment kinds.
        rng = named_rng(14, "fuzz")
        env_mab = StochasticMAB([0.2, 0.5, 0.8], named_rng(14, "env-a"))
        script = (rng.random((1000, 3))).tolist()
        env_ctx = StochasticContextual(
            [0.5, 0.5],
            [[0.2, 0.8], [0.6, 0.4]],
            [(0, 1)],
            named_rng(14, "env-b"),
        )
        env_lb = LowerBoundEnv(named_rng(14, "env-c"))
        for _ in range(111_000):
            env_mab.next_context()
            env_ctx.next_context()
            env_lb.next_context()
            for env, k in ((env_mab, 3), (env_ctx, 2), (env_lb, 4)):
                for a in range(k):
                    assert 0.0 <= env.loss_of(a) <= 1.0
        env_adv = AdversarialMAB(script)
        for _ in range(1000):
            env_adv.next_context()
            for a in range(3):
                assert 0.0 <= env_adv.loss_of(a) <= 1.0
