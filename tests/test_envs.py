"""Environments: realized rounds, baselines, the hard instance, the
selection step of the induced environment."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral.core import (
    ConfigError,
    FeedbackPacket,
    UNSELECTED,
    UniformStream,
    named_rng,
    sample_index,
)
from corral.envs import (
    AdversarialMAB,
    Environment,
    InducedEnvironment,
    LowerBoundEnv,
    StochasticContextual,
    StochasticMAB,
)
from corral.bases import Exp3, Exp4
from corral.harness import ExperimentConfig, _total, build_environment, union_baseline


class TestStochasticMAB:
    def test_baseline_is_argmin_mean(self):
        env = StochasticMAB([0.1, 0.9], named_rng(0, "env"))
        baseline = env.baseline()
        assert baseline == 0.1
        assert _total(baseline, 10) == pytest.approx(1.0)

    def test_losses_are_bernoulli_with_configured_mean(self):
        env = StochasticMAB([0.3, 0.6], named_rng(1, "env"))
        n = 100_000
        totals = np.sum([losses for _, losses in env.rounds(n)], axis=0)
        assert abs(totals[0] / n - 0.3) <= 0.01
        assert abs(totals[1] / n - 0.6) <= 0.01

    def test_mean_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            StochasticMAB([0.5, 1.2], named_rng(0, "env"))

    def test_class_baseline_is_its_least_mean(self):
        env = StochasticMAB([0.1, 0.5, 0.9], named_rng(0, "env"))
        assert env.baseline(policies=[(2,), (1,)]) == 0.5
        assert env.baseline(policies=[(2,)]) == 0.9


class ReferenceStochasticMAB(Environment):
    """The stand-alone Bernoulli environment ``StochasticMAB`` replaced, kept
    verbatim below this docstring but for ``baseline``, which returns the
    per-round loss alone, and the arms' uniforms, drawn one
    ``random()`` call each: ``StochasticMAB`` must draw, lose and score
    exactly as it does."""

    kind = "stochastic-mab"

    def __init__(self, means, rng):
        means = [float(m) for m in means]
        if len(means) < 2:
            raise ConfigError(f"need at least 2 arms, got {len(means)}")
        for m in means:
            if not 0.0 <= m <= 1.0:
                raise ConfigError(f"arm mean must be in [0, 1], got {m}")
        self.means = np.array(means)
        self._means = means
        self.num_arms = len(means)
        self.rng = UniformStream(rng)
        self._uniforms: list[float] = []

    def next_context(self) -> int:
        self._uniforms = [self.rng.random() for _ in range(self.num_arms)]
        return 0

    def loss_of(self, decision: int) -> float:
        return 1.0 if self._uniforms[decision] < self._means[decision] else 0.0

    def baseline(self) -> float:
        best = int(np.argmin(self.means))
        return float(self.means[best])


class TestBaselineValue:
    """``baseline`` returns the per-round loss itself: a float for the
    stochastic and lower-bound environments, a script's float64 column."""

    @pytest.mark.parametrize("spec", [
        {"kind": "stochastic-mab", "means": [0.3, 0.6]},
        {"kind": "stochastic-contextual", "context_probs": [0.4, 0.6],
         "cond_means": [[0.1, 0.9], [0.8, 0.2]], "policies": [[0, 1], [1, 1]]},
        {"kind": "lower-bound"},
    ], ids=lambda spec: spec["kind"])
    def test_stochastic_and_lower_bound_return_a_float(self, spec):
        env = build_environment(spec, named_rng(0, "env"), 10)
        assert type(env.baseline()) is float
        assert type(env.baseline(policies=[(1,) * env.num_contexts])) is float

    def test_script_returns_its_float64_column(self):
        env = build_environment({"kind": "adversarial-mab", "script": np.eye(3)}, None, 3)
        for baseline in (env.baseline(), env.baseline(policies=[(2,)])):
            assert isinstance(baseline, np.ndarray)
            assert (baseline.dtype, baseline.shape) == (np.float64, (3,))


class TestStochasticMABIsOneContext:
    """``StochasticMAB`` is the one-context ``StochasticContextual`` and
    plays and scores exactly as the stand-alone class did."""

    @pytest.mark.parametrize(
        "means", [[0.1, 0.9], [0.4, 0.4, 0.4], [0.0, 0.2, 0.5, 0.8, 1.0], [0.7, 0.3], [1, 0]]
    )
    def test_matches_the_reference(self, means):
        env = StochasticMAB(means, named_rng(23, "env"))
        ref = ReferenceStochasticMAB(means, named_rng(23, "env"))
        assert isinstance(env, StochasticContextual)
        assert (env.num_arms, env.num_contexts) == (ref.num_arms, 1)
        assert_plays_as(env, ref, 3_000)
        assert env.rng.random() == ref.rng.random()
        assert env.baseline().hex() == ref.baseline().hex()

    @pytest.mark.parametrize(
        "means", [[0.5], [], [0.5, 1.2], [-0.1, 0.5], [0.5, math.nan], [0.5, math.inf]]
    )
    def test_rejects_what_the_reference_rejects(self, means):
        with pytest.raises(ConfigError):
            ReferenceStochasticMAB(means, named_rng(0, "env"))
        with pytest.raises(ConfigError):
            StochasticMAB(means, named_rng(0, "env"))


class TestAdversarialMAB:
    def test_alternating_script_tie_breaks_low(self):
        script = [[1.0, 0.0] if t % 2 == 0 else [0.0, 1.0] for t in range(100)]
        env = AdversarialMAB(script)
        baseline = env.baseline()
        # Both columns total 50; the baseline is arm 0's.
        assert baseline.tolist() == [row[0] for row in script]
        assert _total(baseline, 100) == pytest.approx(50.0)

    def test_constant_script_baseline(self):
        env = AdversarialMAB([[0.7, 0.2, 0.9]] * 10)
        assert env.baseline().tolist() == [0.2] * 10

    def test_zero_column_is_baseline(self):
        env = AdversarialMAB([[0.5, 0.0], [0.9, 0.0]])
        baseline = env.baseline()
        assert baseline.tolist() == [0.0, 0.0]
        assert _total(baseline, 2) == 0.0

    def test_rows_emitted_in_order(self):
        env = AdversarialMAB([[0.1, 0.2], [0.3, 0.4]])
        assert list(env.rounds(2)) == [(0, [0.1, 0.2]), (0, [0.3, 0.4])]
        assert list(env.rounds(1)) == [(0, [0.1, 0.2])]
        # A script shorter than the horizon fails when its environment is built.
        with pytest.raises(ConfigError, match="script has 2 rows, fewer than the horizon 3"):
            build_environment({"kind": "adversarial-mab", "script": env.script}, None, 3)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "script.csv"
        path.write_text("0.1,0.9\n0.3,0.2\n")
        spec = {"kind": "adversarial-mab", "script_csv": str(path)}
        cfg = ExperimentConfig.from_dict({
            "scenario": "standalone-run", "horizon": 2, "seeds": [0], "environment": spec,
            "bases": [{"kind": "ucb1"}],
        })
        env = build_environment(cfg.environment, None, 2)
        assert env.script.shape == (2, 2)
        assert env.baseline().tolist() == [0.1, 0.3]

    def test_entries_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            AdversarialMAB([[0.1, 1.4]])

    def test_class_baseline_is_its_best_arm_ties_low(self):
        # Arm 0, outside the class, totals 0; arms 1 and 2 both total 1.
        env = AdversarialMAB([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert env.baseline().tolist() == [0.0, 0.0]
        assert env.baseline(policies=[(2,), (1,)]).tolist() == [1.0, 0.0]
        assert env.baseline(policies=[(2,)]).tolist() == [0.0, 1.0]
        exp4 = Exp4([(2,), (1,)], 3, 1, 2, 1.0, named_rng(0, "base"))
        assert union_baseline(env, [exp4]).tolist() == [1.0, 0.0]


class TestStochasticContextual:
    def test_single_context_reduces_to_mab(self):
        env = StochasticContextual(
            [1.0], [[0.2, 0.7]], [(0,), (1,)], named_rng(2, "env")
        )
        baseline = env.baseline()
        assert baseline == pytest.approx(0.2)
        mab = StochasticMAB([0.2, 0.7], named_rng(2, "env"))
        assert baseline == mab.baseline()

    def test_pointwise_dominating_policy_is_baseline(self):
        env = StochasticContextual(
            [0.5, 0.5],
            [[0.1, 0.9], [0.8, 0.2]],
            [(0, 1), (0, 0), (1, 1), (1, 0)],
            named_rng(3, "env"),
        )
        assert env.baseline() == pytest.approx(0.15)

    def test_baseline_matches_bruteforce_enumeration(self):
        rng = named_rng(4, "env")
        probs = [0.3, 0.7]
        cond = [[0.4, 0.6], [0.55, 0.15]]
        policies = [(0, 0), (0, 1), (1, 0), (1, 1)]
        env = StochasticContextual(probs, cond, policies, rng)
        brute = [
            sum(p * cond[c][pol[c]] for c, p in enumerate(probs)) for pol in policies
        ]
        assert env.baseline() == pytest.approx(min(brute))

    def test_arm_baseline_uses_constant_policies(self):
        env = StochasticContextual(
            [0.5, 0.5],
            [[0.1, 0.9], [0.8, 0.2]],
            [(0, 1)],
            named_rng(5, "env"),
        )
        # An arm-space base contributes every constant policy, and only those;
        # EXP3 is built for the environment's contexts, as ``build_base`` does.
        arm = union_baseline(env, [Exp3(2, 10, 1.0, named_rng(5, "base"), 2)])
        # Constant arms cost 0.45 and 0.55 in expectation.
        assert arm == pytest.approx(0.45)

    def test_contexts_within_declared_set(self):
        env = StochasticContextual(
            [0.2, 0.8], [[0.5, 0.5], [0.5, 0.5]], [(0, 0)], named_rng(6, "env")
        )
        assert {context for context, _ in env.rounds(500)} == {0, 1}

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
        for context, losses in env.rounds(self.ROUNDS):
            assert context == 0
            expected = (twin.random(len(means)) < np.array(means)).astype(np.float64)
            assert losses == expected.tolist()
        assert env.rng.random() == twin.random()

    def test_contextual_matches_array_draws(self):
        probs = [0.2, 0.5, 0.3]
        cond = np.array([[0.2, 0.5, 0.65, 0.8], [0.7, 0.25, 0.0, 1.0], [0.5] * 4])
        env = StochasticContextual(probs, cond, [(0, 1, 2)], named_rng(22, "env"))
        twin = named_rng(22, "env")
        for context, losses in env.rounds(self.ROUNDS):
            assert context == sample_index(twin, probs)
            expected = (twin.random(4) < cond[context]).astype(np.float64)
            assert losses == expected.tolist()
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
            assert env.baseline() == 0.1
            assert set(env.cheap_pair) <= {0, 1, 2, 3}

    def test_both_orientations_occur(self):
        cheap_first = {LowerBoundEnv(named_rng(s, "env")).cheap_pair for s in range(40)}
        assert cheap_first == {(0, 1), (2, 3)}

    def test_losses_constant_after_draw(self):
        env = LowerBoundEnv(named_rng(7, "env"))
        assert list(env.rounds(100)) == [(0, env.losses)] * 100

    def test_playing_best_action_has_zero_regret(self):
        env = LowerBoundEnv(named_rng(8, "env"))
        best = env.losses.index(env.baseline())
        regret = sum(losses[best] - 0.1 for _, losses in env.rounds(50))
        assert regret == 0.0

    def test_class_baseline_is_its_least_loss(self):
        for seed in range(8):
            env = LowerBoundEnv(named_rng(seed, "env"))
            dear = [a for a in range(4) if a not in env.cheap_pair]
            assert env.baseline(policies=[(a,) for a in reversed(dear)]) == 0.3
            assert env.baseline(policies=[(a,) for a in env.cheap_pair]) == 0.1
            priciest = env.losses.index(0.4)
            assert env.baseline(policies=[(priciest,)]) == 0.4

    def test_wrong_pair_costs_at_least_two_tenths(self):
        env = LowerBoundEnv(named_rng(9, "env"))
        dear = (2, 3) if env.cheap_pair == (0, 1) else (0, 1)
        (_, losses), = env.rounds(1)
        for arm in dear:
            assert losses[arm] - 0.1 >= 0.2 - 1e-12


class TestInducedEnvironment:
    def test_unit_probability_is_identity(self):
        inner = StochasticMAB([0.3, 0.6], named_rng(10, "env"))
        inner_twin = StochasticMAB([0.3, 0.6], named_rng(10, "env"))
        selection = InducedEnvironment(1.0, named_rng(10, "wrapper"))
        for (_, losses), (_, twin_losses) in zip(inner.rounds(200), inner_twin.rounds(200)):
            packet = selection.observe(losses[0])
            assert packet.selected
            assert packet.weighted_loss == twin_losses[0]

    def test_quarter_probability_scales_by_four(self):
        env = AdversarialMAB([[0.8, 0.0]] * 10)
        selection = InducedEnvironment(0.25, named_rng(11, "wrapper"))
        seen = {selection.observe(losses[0])[:2] for _, losses in env.rounds(10)}
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
        selection = InducedEnvironment(0.25, named_rng(1, "wrapper"))
        n = 100_000
        total = sum(selection.observe(losses[0]).weighted_loss for _, losses in env.rounds(n))
        assert abs(total / n - 0.3) <= 0.02

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            InducedEnvironment(0.0, named_rng(12, "wrapper"))
        with pytest.raises(ConfigError):
            InducedEnvironment(1.5, named_rng(12, "wrapper"))

    def test_draws_one_uniform_a_round(self):
        # Selected or not, a round takes one scalar draw from the generator.
        selection = InducedEnvironment(0.5, named_rng(13, "wrapper"))
        twin = named_rng(13, "wrapper")
        for _ in range(3_000):
            packet = selection.observe(0.4)
            assert packet[:2] == ((True, 0.8) if twin.random() < 0.5 else (False, 0.0))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.one_of(st.sampled_from([1.0, 1e-9]), st.floats(1e-9, 1.0)),
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                 min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    def test_observe_returns_the_checked_packet(self, prob, raws, seed):
        # Against a twin generator's uniforms: a selected round's packet is
        # the checked one field for field, sign of zero included; any other
        # round's is UNSELECTED. The 1.0 and +0.0 packets are one object each.
        def hexed(packet):
            return [x.hex() if isinstance(x, float) else x for x in packet]

        selection = InducedEnvironment(prob, named_rng(seed, "wrapper"))
        twin = named_rng(seed, "wrapper")
        shared, negative_zero = {}, []
        for raw in raws:
            packet = selection.observe(raw)
            if not twin.random() < prob:
                assert packet is UNSELECTED
                continue
            assert type(packet) is FeedbackPacket
            assert hexed(packet) == hexed(FeedbackPacket(True, raw / prob, prob, raw))
            if raw in (0.0, 1.0) and math.copysign(1.0, raw) > 0.0:
                assert shared.setdefault(raw.hex(), packet) is packet
            elif raw == 0.0:
                negative_zero.append(packet)
        assert not any(p is q for p in negative_zero for q in shared.values())


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
        for env, k in ((env_mab, 3), (env_ctx, 2), (env_lb, 4)):
            losses = np.array([row for _, row in env.rounds(111_000)])
            assert losses.shape == (111_000, k)
            assert ((0.0 <= losses) & (losses <= 1.0)).all()
        losses = np.array([row for _, row in AdversarialMAB(script).rounds(1000)])
        assert losses.shape == (1000, 3)
        assert ((0.0 <= losses) & (losses <= 1.0)).all()


# ---------------------------------------------------------------------------
# Realized rounds against the round-by-round environments
# ---------------------------------------------------------------------------


class RoundByRoundContextual(Environment):
    """The round-by-round contextual environment that ``rounds`` replaced,
    kept verbatim below this docstring but for its baseline, which this
    test does not use, and the arms' uniforms, drawn one ``random()`` call
    each: one round per ``next_context`` call, whose losses ``loss_of``
    evaluates."""

    kind = "stochastic-contextual"

    def __init__(self, context_probs, cond_means, policies, rng):
        probs = [float(x) for x in context_probs]
        # NaN fails ``x > 0``; +inf fails the sum check.
        if not probs or not all(x > 0.0 for x in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError("context distribution must be positive and sum to 1")
        cond = np.asarray(cond_means, dtype=np.float64)
        if cond.ndim != 2 or cond.shape[0] != len(probs) or cond.shape[1] < 2:
            raise ConfigError(
                f"conditional means must be contexts x arms, got shape {cond.shape}"
            )
        if not np.all((cond >= 0.0) & (cond <= 1.0)):
            raise ConfigError("conditional means must lie in [0, 1]")
        self.context_probs = probs
        self.cond_means = cond
        self.num_contexts = len(probs)
        self.num_arms = cond.shape[1]
        self.eval_policies = [tuple(int(a) for a in pol) for pol in policies]
        for pol in self.eval_policies:
            if len(pol) != self.num_contexts or any(
                not 0 <= a < self.num_arms for a in pol
            ):
                raise ConfigError(f"invalid evaluation policy {pol}")
        self._cond_means = cond.tolist()
        self.rng = UniformStream(rng)
        self._context = 0
        self._means: list[float] = []
        self._uniforms: list[float] = []

    def next_context(self) -> int:
        self._context = sample_index(self.rng, self.context_probs)
        self._means = self._cond_means[self._context]
        self._uniforms = [self.rng.random() for _ in range(self.num_arms)]
        return self._context

    def loss_of(self, decision: int) -> float:
        return 1.0 if self._uniforms[decision] < self._means[decision] else 0.0


class RoundByRoundMAB(RoundByRoundContextual):
    """The round-by-round multi-armed environment, kept verbatim below this
    docstring but for the arms' uniforms, drawn one ``random()`` call each.
    A round draws no context, only one uniform per arm."""

    kind = "stochastic-mab"

    def __init__(self, means, rng):
        super().__init__([1.0], [means], [(a,) for a in range(len(means))], rng)
        self._means = self._cond_means[0]

    def next_context(self) -> int:
        self._uniforms = [self.rng.random() for _ in range(self.num_arms)]
        return 0


class RoundByRoundAdversarial(Environment):
    """The round-by-round scripted environment, kept verbatim below this
    docstring but for its checks and baseline: row t of the script at
    round t."""

    kind = "adversarial-mab"

    def __init__(self, script):
        self.script = np.asarray(script, dtype=np.float64)
        self.num_arms = self.script.shape[1]
        self._t = -1

    def next_context(self) -> int:
        self._t += 1
        if self._t >= self.script.shape[0]:
            raise ConfigError(f"script exhausted after {self.script.shape[0]} rounds")
        return 0

    def loss_of(self, decision: int) -> float:
        return float(self.script[self._t, decision])


class RoundByRoundLowerBound(LowerBoundEnv):
    """The round-by-round hard instance: its constructor draws as
    ``LowerBoundEnv``'s does, and every round is the same."""

    def next_context(self) -> int:
        return 0

    def loss_of(self, decision: int) -> float:
        return self.losses[decision]


def assert_plays_as(env, reference, horizon: int) -> None:
    """``env.rounds(horizon)`` realizes exactly the contexts and losses
    that ``reference`` realizes round by round, as Python ints and floats."""
    rounds = 0
    for context, losses in env.rounds(horizon):
        rounds += 1
        assert type(context) is int and context == reference.next_context()
        assert all(type(x) is float for x in losses)
        assert list(losses) == [reference.loss_of(a) for a in range(env.num_arms)]
    assert rounds == horizon


@st.composite
def environment_twins(draw, kind):
    """``(make, make_reference, draws)`` for an environment of ``kind``:
    builders from a generator, and the uniforms a round draws from it."""
    arms = draw(st.integers(2, 5))
    unit = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
    if kind == "means":
        means = draw(st.lists(unit, min_size=arms, max_size=arms))
        return (lambda rng: StochasticMAB(means, rng),
                lambda rng: RoundByRoundMAB(means, rng), arms)
    if kind == "means_prior":
        prior = draw(st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
                              min_size=arms, max_size=arms))
        spec = {"kind": "stochastic-mab", "means_prior": prior}
        return (lambda rng: build_environment(spec, rng, 1),
                lambda rng: RoundByRoundMAB([float(rng.beta(a, b)) for a, b in prior], rng),
                arms)
    if kind == "stochastic-contextual":
        contexts = draw(st.integers(1, 5))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=contexts, max_size=contexts))
        probs = [w / sum(weights) for w in weights]
        cond = draw(st.lists(st.lists(unit, min_size=arms, max_size=arms),
                             min_size=contexts, max_size=contexts))
        policies = [(0,) * contexts]
        return (lambda rng: StochasticContextual(probs, cond, policies, rng),
                lambda rng: RoundByRoundContextual(probs, cond, policies, rng), 1 + arms)
    if kind == "adversarial-mab":
        script = np.random.default_rng(draw(st.integers(0, 2**32))).random((3079, arms))
        return (lambda rng: AdversarialMAB(script),
                lambda rng: RoundByRoundAdversarial(script), 0)
    return LowerBoundEnv, RoundByRoundLowerBound, 0


class TestRealizedRounds:
    """Every environment's ``rounds`` realizes what the round-by-round
    classes did, block edges included, and leaves its generator exactly
    where those rounds' draws end."""

    @pytest.mark.parametrize(
        "kind", ["means", "means_prior", "stochastic-contextual", "adversarial-mab", "lower-bound"]
    )
    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_rows_match_the_round_by_round_classes(self, kind, data, seed):
        make, make_reference, draws = data.draw(environment_twins(kind))
        # One round, one block but one round, one block, and past the first.
        for horizon in (1, 1023, 1024, 1025, 3079):
            rng = named_rng(seed, "env")
            env = make(rng)
            assert_plays_as(env, make_reference(named_rng(seed, "env")), horizon)
            twin = named_rng(seed, "env")
            make(twin)
            twin.random(horizon * draws)
            assert rng.random() == twin.random()


class ChosenUniforms:
    """A generator whose blocks carry chosen uniforms in the context column
    (column 0) and 0.5 in every other."""

    def __init__(self, us):
        self.us = us

    def random(self, shape):
        u = np.full(shape, 0.5)
        u[:, 0] = self.us
        return u


@pytest.mark.parametrize(
    "probs", [[0.7, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.1, 0.1, 0.7, 0.1], [0.2] * 5]
)
def test_context_pick_matches_sample_index_at_the_edges(probs):
    # u = 0, u exactly on each partial sum, and the largest u below 1, which
    # lands in the float shortfall past the last partial sum of the first
    # and third distributions (0.9999999999999999).
    partial_sums = list(itertools.accumulate(probs))
    us = [0.0, *(x for x in partial_sums if x < 1.0), math.nextafter(1.0, 0.0)]
    env = StochasticContextual(probs, [[0.5, 0.5]] * len(probs), [(0,) * len(probs)],
                               ChosenUniforms(us))
    contexts = [context for context, _ in env.rounds(len(us))]

    class Scalar:
        random = iter(us).__next__

    assert contexts == [sample_index(Scalar, probs) for _ in us]
    # A u on partial sum i picks context i + 1; the shortfall picks the last.
    last = len(probs) - 1
    assert contexts == [0, *(min(i + 1, last) for i, x in enumerate(partial_sums) if x < 1.0),
                        last]
