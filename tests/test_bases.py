"""Base algorithms: tuning, proposals, updates, resets, lock-in pair."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral.bases import (
    BaseAlgorithm,
    EpochGreedy,
    Exp3,
    Exp4,
    PathologicalBase,
    ThompsonSampling,
    Ucb1,
    _check_range,
    exp_weights,
    explore_budget,
)
from corral.core import (
    ConfigError,
    FeedbackPacket,
    UNSELECTED,
    UniformStream,
    named_rng,
    sample_index,
)

POLICIES_8 = [
    (0, 1), (0, 0), (1, 1), (2, 3), (3, 2), (1, 0), (2, 2), (3, 3),
]


def selected(raw, prob=1.0):
    return FeedbackPacket(True, raw / prob, prob, raw)


def unselected():
    return UNSELECTED


class ReferenceExp3(BaseAlgorithm):
    """``Exp3`` as it was before it became ``Exp4`` over the constant
    policies, kept verbatim below this docstring: the folded class must
    propose exactly its arms and keep exactly its losses.

    Exponential weights over arms with importance-weighted internal losses.

    The internal rate is ``sqrt(ln K / (K * T * rho))``; incoming weighted
    losses are divided once more by the algorithm's own arm probability on
    selected rounds, keeping the per-arm estimate unbiased.
    """

    kind = "exp3"
    alpha = 0.5

    def __init__(self, num_arms: int, horizon: int, range_param: float, rng):
        if num_arms < 2:
            raise ConfigError(f"need at least 2 arms, got {num_arms}")
        self.num_arms = num_arms
        self.horizon = horizon
        self.rng = UniformStream(rng)
        self.reset(range_param)

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.rate = math.sqrt(
            math.log(self.num_arms) / (self.num_arms * self.horizon * self.range_param)
        )
        self.cum_loss = [0.0] * self.num_arms
        self._last_arm: int | None = None
        self._last_probs: list[float] | None = None
        # propose's distribution and a copy of the losses it came from.
        self._probs: list[float] = []
        self._probs_of: list[float] | None = None

    def distribution(self) -> list[float]:
        return exp_weights(self.cum_loss, self.rate)

    def propose(self, context: int) -> int:
        # Reused while the losses are equal to those it came from (see the
        # module docstring); keyed on a copy, so direct writes are seen.
        if self.cum_loss != self._probs_of:
            self._probs_of = list(self.cum_loss)
            self._probs = self.distribution()
        probs = self._probs
        arm = sample_index(self.rng, probs)
        self._last_arm = arm
        self._last_probs = probs
        return arm

    def update(self, packet: FeedbackPacket) -> None:
        if not packet.selected:
            return
        self.cum_loss[self._last_arm] += (
            packet.weighted_loss / self._last_probs[self._last_arm]
        )


@st.composite
def reference_runs(draw):
    """An EXP3 run: arms, contexts, horizon, range and per round a context,
    a selected or unselected packet and an optional reset. Small horizons
    give large rates, so the weights drift far from uniform."""
    num_arms = draw(st.integers(2, 6))
    num_contexts = draw(st.integers(1, 3))
    horizon = draw(st.integers(2, 5000))
    range_param = draw(st.floats(1.0, 64.0))
    rounds = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_contexts - 1),
                st.booleans(),
                st.floats(0.0, 1.0),
                st.floats(0.05, 1.0),
                st.none() | st.floats(1.0, 64.0),
            ),
            max_size=80,
        )
    )
    return num_arms, num_contexts, horizon, range_param, rounds


class ScanExp4(Exp4):
    """``Exp4`` with the update that scanned every policy, kept verbatim
    below this docstring: the indexed update must add the same estimate
    to the same entries."""

    def update(self, packet: FeedbackPacket) -> None:
        if not packet.selected:
            return
        estimate = packet.weighted_loss / self._last_action_probs[self._last_arm]
        for j, pol in enumerate(self.policies):
            if pol[self._last_context] == self._last_arm:
                self.cum_loss[j] += estimate


@st.composite
def policy_runs(draw):
    """An EXP4 run over a random policy table, which may repeat a policy or
    leave an arm unplayed in a context, and its rounds as in ``reference_runs``."""
    num_arms, num_contexts, horizon, range_param, rounds = draw(reference_runs())
    policy = st.tuples(*[st.integers(0, num_arms - 1)] * num_contexts)
    policies = draw(st.lists(policy, min_size=2, max_size=8))
    return policies, num_arms, num_contexts, horizon, range_param, rounds


BASE_CLASSES = [Exp3, Exp4, EpochGreedy, ThompsonSampling, Ucb1, PathologicalBase]


@pytest.mark.parametrize("cls", BASE_CLASSES, ids=[cls.kind for cls in BASE_CLASSES])
def test_stability_exponent_is_none_or_in_unit_interval(cls):
    assert cls.alpha is None or 0.0 < cls.alpha <= 1.0


class TestExp3:
    def test_uniform_before_updates(self):
        b = Exp3(4, 1000, 1.0, named_rng(0, "b"))
        assert b.distribution() == pytest.approx([0.25] * 4)

    def test_rate_formula(self):
        b = Exp3(2, 1000, 1.0, named_rng(0, "b"))
        assert b.rate == pytest.approx(math.sqrt(math.log(2) / 2000.0), abs=1e-15)
        assert b.rate == pytest.approx(0.018616487055295172)

    def test_rate_scales_with_range(self):
        b = Exp3(2, 1000, 4.0, named_rng(0, "b"))
        assert b.rate == pytest.approx(math.sqrt(math.log(2) / 8000.0), abs=1e-15)

    def test_mixture_is_the_policy_distribution(self):
        # No per-context copy is built: every context samples the policy
        # distribution itself, before and after a weight change.
        b = Exp3(3, 100, 1.0, named_rng(0, "b"), num_contexts=2)
        for context in (0, 1, 0):
            b.propose(context)
            assert b._last_action_probs is b._policy_probs
            b.update(selected(0.5))

    def test_unselected_round_is_noop(self):
        b = Exp3(3, 100, 1.0, named_rng(0, "b"))
        b.propose(0)
        before = list(b.cum_loss)
        b.update(unselected())
        assert b.cum_loss == before

    def test_deterministic_losses_concentrate(self):
        # Arms with constant losses (0, 1): after T=1000 standalone rounds
        # the zero-loss arm holds at least 0.9 probability (pilot: >=0.999
        # on every seed tried).
        for seed in range(10):
            b = Exp3(2, 1000, 1.0, named_rng(seed, "base.0"))
            for _ in range(1000):
                arm = b.propose(0)
                b.update(selected(float(arm)))
            assert b.distribution()[0] >= 0.9

    def test_weights_stay_finite_positive(self):
        rng = named_rng(1, "fuzz")
        b = Exp3(5, 10_000, 8.0, named_rng(1, "b"))
        for _ in range(100_000):
            b.propose(0)
            b.update(selected(float(rng.random()), float(rng.random()) * 0.875 + 0.125))
        dist = b.distribution()
        assert all(np.isfinite(dist)) and min(dist) > 0.0

    def test_reset_matches_fresh_handle(self):
        b = Exp3(3, 500, 1.0, named_rng(2, "b"))
        for _ in range(50):
            b.propose(0)
            b.update(selected(0.7, 0.5))
        b.reset(6.0)
        fresh = Exp3(3, 500, 6.0, named_rng(99, "unused"))
        assert b.range_param == fresh.range_param
        assert b.rate == fresh.rate
        assert b.cum_loss == fresh.cum_loss
        assert b._last_arm is None and b._last_action_probs is None

    def test_needs_two_arms(self):
        with pytest.raises(ConfigError):
            Exp3(1, 100, 1.0, named_rng(0, "b"))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(reference_runs())
    def test_matches_reference_bit_for_bit(self, run):
        # Same stream, contexts and packets: EXP4 over the constant policies
        # proposes the same arms and keeps the same losses as the standalone
        # EXP3 it replaced, in any number of contexts.
        num_arms, num_contexts, horizon, range_param, rounds = run
        folded = Exp3(num_arms, horizon, range_param, named_rng(4, "twin"), num_contexts)
        reference = ReferenceExp3(num_arms, horizon, range_param, named_rng(4, "twin"))
        for context, chosen, raw, prob, reset in rounds:
            assert folded.propose(context) == reference.propose(context)
            packet = selected(raw, prob) if chosen else UNSELECTED
            folded.update(packet)
            reference.update(packet)
            if reset is not None:
                folded.reset(reset)
                reference.reset(reset)
            assert folded.cum_loss == reference.cum_loss
        assert folded.rng.random() == reference.rng.random()


class TestExp4:
    def test_rate_formula(self):
        b = Exp4(POLICIES_8, 4, 2, 10_000, 4.0, named_rng(0, "b"))
        assert b.rate == pytest.approx(math.sqrt(math.log(8) / 160_000.0), abs=1e-15)
        assert b.rate == pytest.approx(0.0036050672165022076)

    def test_identical_policies_keep_equal_weights(self):
        b = Exp4([(0, 1), (0, 1)], 2, 2, 100, 1.0, named_rng(3, "b"))
        for t in range(200):
            b.propose(t % 2)
            b.update(selected(0.8, 0.5))
        assert b.cum_loss[0] == b.cum_loss[1]
        assert b.distribution() == pytest.approx([0.5, 0.5])

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(policy_runs())
    def test_indexed_update_matches_scan_bit_for_bit(self, run):
        policies, num_arms, num_contexts, horizon, range_param, rounds = run
        indexed = Exp4(policies, num_arms, num_contexts, horizon, range_param, named_rng(5, "twin"))
        scan = ScanExp4(policies, num_arms, num_contexts, horizon, range_param, named_rng(5, "twin"))
        for context, chosen, raw, prob, reset in rounds:
            assert indexed.propose(context) == scan.propose(context)
            packet = selected(raw, prob) if chosen else UNSELECTED
            indexed.update(packet)
            scan.update(packet)
            if reset is not None:
                indexed.reset(reset)
                scan.reset(reset)
            assert indexed.cum_loss == scan.cum_loss
        assert indexed.rng.random() == scan.rng.random()

    def test_invalid_policy_table(self):
        with pytest.raises(ConfigError):
            Exp4([(0, 5)], 4, 2, 100, 1.0, named_rng(0, "b"))
        with pytest.raises(ConfigError):
            Exp4([(0, 1), (1, 0)], 4, 3, 100, 1.0, named_rng(0, "b"))


# One step of a base's life between two proposals: a packet for the last
# proposal, a reset, or a direct write to ``cum_loss`` (in place or a new list).
_CACHE_STEPS = st.one_of(
    st.tuples(st.just("packet"), st.booleans(), st.sampled_from([0.0, 0.3, 1.0]),
              st.sampled_from([1.0, 0.5, 0.125])),
    st.tuples(st.just("reset"), st.sampled_from([1.0, 2.0, 16.0])),
    st.tuples(st.just("write"), st.integers(0, 7), st.sampled_from([0.0, 0.5, 7.25])),
    st.tuples(st.just("replace"), st.sampled_from([0.0, 1.5])),
)


class TestProposalCache:
    """``propose`` reuses its distribution while ``cum_loss`` is unchanged.
    Whatever changes the losses, the probabilities it samples from equal a
    fresh ``exp_weights`` bit for bit, and its arm is ``sample_index``'s
    draw from them on a twin stream."""

    @staticmethod
    def apply(base, step):
        kind = step[0]
        if kind == "packet":
            _, chosen, raw, prob = step
            base.update(selected(raw, prob) if chosen else UNSELECTED)
        elif kind == "reset":
            base.reset(step[1])
        elif kind == "write":
            _, index, value = step
            base.cum_loss[index % len(base.cum_loss)] = value
        else:
            base.cum_loss = [step[1]] * len(base.cum_loss)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.lists(_CACHE_STEPS, max_size=40))
    def test_exp3_samples_from_fresh_weights(self, steps):
        b = Exp3(5, 1000, 1.0, named_rng(0, "b"))
        twin = UniformStream(named_rng(0, "b"))
        for step in [("reset", 1.0)] + steps:
            self.apply(b, step)
            arm = b.propose(0)
            assert b._last_action_probs == exp_weights(b.cum_loss, b.rate)
            assert arm == sample_index(twin, b._last_action_probs)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(_CACHE_STEPS, st.integers(0, 1)), max_size=40))
    def test_exp4_samples_from_fresh_mixture(self, steps):
        b = Exp4(POLICIES_8, 4, 2, 1000, 1.0, named_rng(0, "b"))
        twin = UniformStream(named_rng(0, "b"))
        for step, context in [(("reset", 1.0), 0)] + steps:
            self.apply(b, step)
            arm = b.propose(context)
            mixture = [0.0] * 4
            for pol, w in zip(POLICIES_8, exp_weights(b.cum_loss, b.rate)):
                mixture[pol[context]] += w
            assert b._last_action_probs == mixture
            assert arm == sample_index(twin, mixture)


class FixedExp3(Exp3):
    """``Exp3`` whose distribution is a given vector: over the constant
    policies its mixture is that vector, bit for bit (``0.0 + w == w``)."""

    def __init__(self, probs):
        self.fixed = probs
        super().__init__(len(probs), 100, 1.0, named_rng(0, "b"))

    def distribution(self):
        return self.fixed


@st.composite
def floor_scale_vectors(draw):
    """2-8 entries normalized at the master's floor scale: entries down to
    1/(T*M) for T up to 10**8, zero-mass entries, trailing zero mass, and
    sums a little short of one, which leave a shortfall below one."""
    size = draw(st.integers(2, 8))
    floor = 1.0 / (draw(st.sampled_from([10, 10**4, 10**6, 10**8])) * size)
    entry = st.one_of(st.just(0.0), st.just(floor), st.floats(floor, 1.0))
    weights = draw(st.lists(entry, min_size=size, max_size=size))
    trailing = draw(st.integers(0, size - 1))
    weights[size - trailing:] = [0.0] * trailing
    if not any(weights):
        weights[0] = 1.0
    scale = draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 2.0**-40]))
    total = sum(weights)
    return [w / total * scale for w in weights]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(floor_scale_vectors(), st.floats(0.0, 1.0, exclude_max=True))
def test_cached_sum_draw_matches_sample_index(probs, u):
    # Every exact partial sum, the float just below it, and the shortfall
    # between the last sum and one, drawn again and again from one cache.
    sums = list(itertools.accumulate(probs))
    edges = [v for s in sums for v in (s, math.nextafter(s, 0.0)) if s < 1.0]
    b = FixedExp3(probs)
    for v in [u, math.nextafter(1.0, 0.0)] + edges:
        b.rng = SimpleNamespace(random=lambda v=v: v)
        assert b.propose(0) == sample_index(SimpleNamespace(random=lambda v=v: v), probs)
    assert b._last_action_probs == probs


class TestEpochGreedy:
    def test_explore_budget_worked_value(self):
        assert explore_budget(10_000, 1.0, 4, 8) == 3120
        assert explore_budget(2000, 1.0, 4, 8) == 988
        assert explore_budget(16_000, 1.0, 4, 8) == 4355

    def test_budget_clamped_to_horizon(self):
        assert explore_budget(10, 16.0, 8, 64) == 10

    def test_uniform_during_explore_phase(self):
        b = EpochGreedy(POLICIES_8, 4, 2, 10_000, 1.0, named_rng(5, "b"))
        counts = [0] * 4
        for _ in range(4000):
            counts[b.propose(0)] += 1
        assert b.erm_policy is None
        for c in counts:
            assert 0.2 <= c / 4000 <= 0.3

    def test_only_selected_rounds_counted(self):
        b = EpochGreedy(POLICIES_8, 4, 2, 10_000, 1.0, named_rng(6, "b"))
        for _ in range(100):
            b.propose(0)
            b.update(unselected())
        assert b.selected_count == 0
        assert b.totals == [0.0] * len(POLICIES_8)

    @staticmethod
    def explore(b, rounds):
        """Feed ``(context, arm, packet)`` rounds to ``b``'s update as if it
        had proposed ``arm`` in ``context``."""
        for context, arm, packet in rounds:
            b._last_context, b._last_arm = context, arm
            b.update(packet)

    def test_erm_picks_smallest_weighted_loss_with_ties_low(self):
        b = EpochGreedy([(0, 0), (1, 1), (0, 1)], 2, 2, 100, 1.0, named_rng(7, "b"))
        b.explore_rounds = 2
        # Weighted losses 2 * 2.0 and 2 * 0.5: the first hits policies 0 and
        # 2, the second policies 1 and 2, so the totals are 4.0, 1.0, 5.0.
        self.explore(b, [(0, 0, selected(1.0, 0.5)), (1, 1, selected(0.5))])
        assert b.totals == [4.0, 1.0, 5.0]
        assert b.erm_policy == (1, 1)
        b.reset(1.0)
        b.explore_rounds = 2
        self.explore(b, [(0, 0, selected(1.0)), (0, 1, selected(1.0))])
        assert b.totals == [2.0, 2.0, 2.0]
        assert b.erm_policy == (0, 0)  # totals tie at 2.0; lowest index wins

    def test_erm_matches_bruteforce(self):
        rng = named_rng(8, "erm")
        b = EpochGreedy(POLICIES_8, 4, 2, 4000, 1.0, named_rng(8, "b"))
        samples = []
        for _ in range(b.explore_rounds):
            ctx = int(rng.integers(2))
            arm = b.propose(ctx)
            packet = selected(float(rng.random()), 0.5)
            b.update(packet)
            samples.append((ctx, arm, 4 * packet.weighted_loss))
        assert b.erm_policy is not None
        totals = []
        for pol in POLICIES_8:
            totals.append(sum(loss for c, a, loss in samples if pol[c] == a))
        assert b.erm_policy == POLICIES_8[int(np.argmin(totals))]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_running_totals_match_reference_rescan(self, data):
        # The exploit policy as the rescan over stored samples chose it: for
        # each policy, its samples' weighted losses summed in sample order,
        # then the first policy whose total no later one undercuts.
        num_arms = data.draw(st.integers(2, 4))
        num_contexts = data.draw(st.integers(1, 3))
        policy = st.tuples(*[st.integers(0, num_arms - 1)] * num_contexts)
        policies = data.draw(st.lists(policy, min_size=2, max_size=8))
        b = EpochGreedy(policies, num_arms, num_contexts, 50, 1.0, named_rng(0, "b"))
        b.explore_rounds = data.draw(st.integers(1, 12))
        losses = st.sampled_from([0.0, 0.1, 0.3, 1.0])
        rounds = data.draw(st.lists(
            st.tuples(st.integers(0, num_contexts - 1), st.integers(0, num_arms - 1),
                      st.one_of(st.none(), st.tuples(losses, st.sampled_from([1.0, 0.7, 0.3])))),
            max_size=16,
        ))
        samples = []
        for context, arm, feed in rounds:
            packet = unselected() if feed is None else selected(*feed)
            exploring = b.erm_policy is None
            self.explore(b, [(context, arm, packet)])
            if exploring and packet.selected:
                samples.append((context, arm, num_arms * packet.weighted_loss))
        reference = [0.0] * len(policies)
        for context, arm, loss in samples:
            for j, pol in enumerate(b.policies):
                if pol[context] == arm:
                    reference[j] += loss
        assert b.totals == reference
        best = 0
        for j in range(1, len(reference)):
            if reference[j] < reference[best]:
                best = j
        if len(samples) >= b.explore_rounds:
            assert b.erm_policy == b.policies[best]
        else:
            assert b.erm_policy is None

    def test_exploit_phase_plays_erm_policy(self):
        b = EpochGreedy([(0, 1), (1, 0)], 2, 2, 100, 1.0, named_rng(9, "b"))
        b.erm_policy = (1, 0)
        assert b.propose(0) == 1
        assert b.propose(1) == 0


class TestThompsonSampling:
    def test_symmetric_prior_proposes_exchangeably(self):
        b = ThompsonSampling([[1, 1]] * 4, 1.0, named_rng(3, "ts"))
        counts = [0] * 4
        for _ in range(2000):
            counts[b.propose(0)] += 1
        for c in counts:
            assert 0.2 <= c / 2000 <= 0.3

    def test_recovered_unit_loss_counts_failure(self):
        b = ThompsonSampling([[1, 1], [1, 1]], 1.0, named_rng(4, "ts"))
        b._last_arm = 0
        b.update(FeedbackPacket(True, 2.0, 0.5, raw_loss=1.0))
        assert b.ones[0] == 2.0 and b.zeros[0] == 1.0
        assert b.ones[1] == 1.0 and b.zeros[1] == 1.0

    def test_unselected_round_leaves_posterior_untouched(self):
        b = ThompsonSampling([[2, 3], [1, 1]], 1.0, named_rng(5, "ts"))
        b.propose(0)
        ones, zeros = b.ones.copy(), b.zeros.copy()
        b.update(unselected())
        assert np.array_equal(b.ones, ones)
        assert np.array_equal(b.zeros, zeros)

    def test_posterior_counts_exact_bookkeeping(self):
        # With raw losses in {0, 1} the Bernoulli conversion is
        # deterministic, so counts must match the fed outcomes exactly.
        rng = named_rng(6, "feed")
        b = ThompsonSampling([[1, 1]] * 3, 1.0, named_rng(6, "ts"))
        ones_fed = [0] * 3
        zeros_fed = [0] * 3
        for _ in range(500):
            arm = b.propose(0)
            outcome = float(rng.integers(2))
            b.update(selected(outcome, 0.5))
            if outcome == 1.0:
                ones_fed[arm] += 1
            else:
                zeros_fed[arm] += 1
        for a in range(3):
            assert b.ones[a] == 1 + ones_fed[a]
            assert b.zeros[a] == 1 + zeros_fed[a]

    def test_nonpositive_prior_rejected(self):
        with pytest.raises(ConfigError):
            ThompsonSampling([[1, 0], [1, 1]], 1.0, named_rng(0, "ts"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(ConfigError):
            ThompsonSampling([[bad, 1.0], [1.0, 1.0]], 1.0, named_rng(0, "ts"))
        with pytest.raises(ConfigError):
            ThompsonSampling([[1.0, 1.0], [1.0, bad]], 1.0, named_rng(0, "ts"))

    # numpy's Beta sampler takes Joehnk's algorithm when both pseudo-counts
    # are <= 1 and a ratio of gamma variates otherwise. The Joehnk prior
    # stays on that path because only unselected packets are fed.
    def test_proposes_the_first_of_tied_minima(self):
        # Continuous Beta draws never tie, so the stream pin below cannot tell
        # the first minimum from the last; scripted draws can.
        script = [[0.3, 0.1, 0.1, 0.5, 0.1], [0.2, 0.9, 0.2, 0.2, 0.4], [0.0, 0.7, 0.0, 0.0, 0.0]]
        draws = iter(itertools.chain.from_iterable(script))
        b = ThompsonSampling([[1, 1]] * 5, 1.0, SimpleNamespace(beta=lambda a, b: next(draws)))
        assert [b.propose(0) for _ in script] == [1, 0, 0]
        assert next(draws, None) is None

    @pytest.mark.parametrize(
        "prior, learns",
        [([[1, 19], [19, 1], [40, 40]], True), ([[0.5, 0.7], [0.3, 0.9]], False)],
        ids=["gamma", "joehnk"],
    )
    def test_draws_follow_numpy_array_beta_stream(self, prior, learns):
        class RecordingRng:
            def __init__(self, rng):
                self.rng = rng
                self.draws = []

            def beta(self, a, b):
                self.draws.append(self.rng.beta(a, b))
                return self.draws[-1]

            def random(self):
                return self.rng.random()

        rng = RecordingRng(named_rng(11, "ts"))
        twin = named_rng(11, "ts")
        feed = named_rng(11, "feed")
        b = ThompsonSampling(prior, 1.0, rng)
        for _ in range(2000):
            expected = twin.beta(np.array(b.ones), np.array(b.zeros)).tolist()
            arm = b.propose(0)
            assert rng.draws == expected
            assert arm == int(np.argmin(expected))
            rng.draws.clear()
            if learns:
                b.update(selected(float(feed.random()), 0.5))
                twin.random()
            else:
                b.update(unselected())
        assert rng.rng.random() == twin.random()


class TestUcb1:
    def test_initial_sweep_in_index_order(self):
        b = Ucb1(3)
        for expected in range(3):
            assert b.propose(0) == expected
            b.update(selected(0.5))

    def test_lower_mean_with_equal_counts_wins(self):
        b = Ucb1(2)
        b.counts = [3, 3]
        b.totals = [0.6, 1.5]
        b.selected_rounds = 6
        assert b.propose(0) == 0

    def test_deterministic_two_arm_regret_is_warmup_only(self):
        # Losses (0, 1): after the sweep the zero-loss arm's index stays
        # strictly smaller, so total regret equals the single warm-up pull.
        b = Ucb1(2)
        regret = 0.0
        for _ in range(5000):
            arm = b.propose(0)
            loss = float(arm)
            regret += loss
            b.update(selected(loss))
        assert regret == 1.0

    def test_stochastic_pulls_of_worse_arm_bounded(self):
        # Means (0.1, 0.9), T=5000: pre-build pilot puts worse-arm pulls at
        # well under 5% of rounds on every seed tried.
        from corral.envs import StochasticMAB

        for seed in range(10):
            env = StochasticMAB([0.1, 0.9], named_rng(seed, "env"))
            b = Ucb1(2)
            worse = 0
            for _, losses in env.rounds(5000):
                arm = b.propose(0)
                worse += arm == 1
                b.update(selected(losses[arm]))
            assert worse / 5000 <= 0.05


class TestPathologicalPair:
    def test_first_cheap_value_locks_first_arm(self):
        b = PathologicalBase((0, 1), named_rng(0, "p"))
        assert b.propose(0) == 0
        b.update(selected(0.1))
        assert all(b.propose(0) == 0 for _ in range(20))

    def test_second_set_value_locks_second_arm(self):
        b = PathologicalBase((0, 1), named_rng(1, "p"))
        b.propose(0)
        b.update(selected(0.4))
        assert all(b.propose(0) == 1 for _ in range(20))

    def test_weighted_value_shatters_to_uniform(self):
        b = PathologicalBase((0, 1), named_rng(2, "p"))
        b.propose(0)
        b.update(FeedbackPacket(True, 0.2 / 0.45, 1.0, raw_loss=0.2 / 0.45))
        assert b.shattered
        draws = {b.propose(0) for _ in range(50)}
        assert draws == {0, 1}

    def test_unselected_rounds_carry_no_observation(self):
        b = PathologicalBase((2, 3), named_rng(3, "p"))
        for _ in range(10):
            assert b.propose(0) == 2
            b.update(unselected())
        assert b.locked_arm is None and not b.shattered
        b.update(selected(0.3))
        assert b.locked_arm == 2

    def test_locked_base_shatters_on_garbage(self):
        b = PathologicalBase((0, 1), named_rng(4, "p"))
        b.propose(0)
        b.update(selected(0.1))
        b.update(selected(0.3))  # still a recognized value: stays locked
        assert b.locked_arm == 0
        b.update(FeedbackPacket(True, 0.5, 1.0, raw_loss=0.5))
        assert b.shattered


class TestStabilityExponentPower:
    def test_clipping_variant_degrades_faster(self):
        # A variant that clips weighted losses into [0, 1] instead of
        # retuning for the range destroys its own feedback signal; its
        # fitted exponent sits far above the properly rescaled one
        # (pilot: 0.76 vs 0.49 at this configuration).
        from corral.envs import InducedEnvironment, StochasticMAB

        class ClippingExp3(Exp3):
            def reset(self, range_param):
                super().reset(range_param)
                self.rate = math.sqrt(
                    math.log(self.num_arms) / (self.num_arms * self.horizon)
                )

            def update(self, packet):
                if not packet.selected:
                    return
                est = min(1.0, packet.weighted_loss) / self._last_action_probs[self._last_arm]
                self.cum_loss[self._last_arm] += est

        def exponent(base_cls):
            horizon = 8000
            means = []
            for rho in (1.0, 4.0, 16.0):
                regs = []
                for seed in range(8):
                    env = StochasticMAB([0.2, 0.4, 0.6, 0.8], named_rng(seed, "env"))
                    selection = InducedEnvironment(1.0 / rho, named_rng(seed, "wrapper"))
                    base = base_cls(4, horizon, rho, named_rng(seed, "base.0"))
                    cum = 0.0
                    for ctx, losses in env.rounds(horizon):
                        raw = losses[base.propose(ctx)]
                        packet = selection.observe(raw)
                        base.update(packet)
                        cum += packet.weighted_loss
                    regs.append(cum - env.baseline() * horizon)
                means.append(np.mean(regs))
            return float(np.polyfit(np.log([1.0, 4.0, 16.0]), np.log(means), 1)[0])

        clipping = exponent(ClippingExp3)
        tuned = exponent(Exp3)
        assert 0.35 <= tuned <= 0.65
        assert clipping >= tuned + 0.15
        assert clipping > 0.65
