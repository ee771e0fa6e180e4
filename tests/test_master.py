"""Master algorithm: initialization, sampling, feedback routing, schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral.core import (
    ConfigError,
    ContractError,
    InvalidLossError,
    InvalidProbabilityError,
    UNSELECTED,
    named_rng,
)
from corral.master import (
    ESTIMATOR_SHARED,
    ESTIMATOR_STANDARD,
    NEVER_RESTART,
    apply_schedule,
    build_packets,
    choose,
    feedback,
    init_master,
    tuned_eta,
)


class FakeRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestInitMaster:
    def test_constants_for_t_100(self):
        state = init_master(0.01, 2, 100)
        assert state.gamma == 0.01
        assert state.rho == [4.0, 4.0]
        assert state.beta == pytest.approx(math.exp(1.0 / math.log(100)), abs=1e-15)

    def test_beta_for_t_3(self):
        state = init_master(0.5, 2, 3)
        assert state.beta == pytest.approx(math.exp(1.0 / math.log(3)), abs=1e-15)

    def test_uniform_initialization(self):
        state = init_master(0.1, 4, 1000)
        assert state.p == [0.25] * 4
        assert state.p_bar == [0.25] * 4

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            init_master(0.1, 1, 100)
        with pytest.raises(ConfigError):
            init_master(0.1, 2, 1)
        with pytest.raises(ConfigError):
            init_master(0.0, 2, 100)
        for eta0 in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                init_master(eta0, 2, 100)
        with pytest.raises(ConfigError):
            init_master(0.1, 2, 100, restart_policy="sometimes")


class TestChoose:
    def test_inverse_cdf_two_bases(self):
        state = init_master(0.01, 2, 100)
        gamma = state.gamma
        state.p_bar = [1.0 - gamma / 2.0, gamma / 2.0]
        proposals = [5, 7]
        out = choose(state, FakeRng(0.5))
        assert (out, proposals[out]) == (0, 5)

    def test_inverse_cdf_uniform_four(self):
        state = init_master(0.01, 4, 100)
        proposals = [10, 11, 12, 13]
        out = choose(state, FakeRng(0.6))
        assert out == 2
        assert proposals[out] == 12

    def test_dead_state(self):
        state = init_master(0.01, 2, 100)
        state.t = 101
        with pytest.raises(ContractError):
            choose(state, FakeRng(0.1))

    def test_empirical_frequency(self):
        # 1e5 draws from (0.2, 0.8); binomial concentration keeps the
        # frequency within +/- 0.005 of 0.2.
        state = init_master(0.01, 2, 10**6)
        state.p_bar = [0.2, 0.8]
        rng = named_rng(11, "master")
        hits = sum(1 for _ in range(100_000) if choose(state, rng) == 0)
        assert 0.195 <= hits / 100_000 <= 0.205


class TestBuildPackets:
    def test_wrong_proposal_count(self):
        with pytest.raises(ContractError):
            build_packets([0.5, 0.5], [1, 2, 3], 0.5, 0)

    @pytest.mark.parametrize("estimator", [ESTIMATOR_STANDARD, ESTIMATOR_SHARED])
    @pytest.mark.parametrize("observed", [-0.1, 1.5, math.nan, math.inf])
    def test_rejects_out_of_range_loss(self, estimator, observed):
        with pytest.raises(InvalidLossError):
            build_packets([0.5, 0.5], [1, 2], observed, 0, estimator)

    @pytest.mark.parametrize("estimator", [ESTIMATOR_STANDARD, ESTIMATOR_SHARED])
    @pytest.mark.parametrize("chosen", [0, 1])
    def test_rejects_zero_probability(self, estimator, chosen):
        # Selected or not, a zero probability is a typed error, not a division.
        with pytest.raises(InvalidProbabilityError):
            build_packets([0.0, 1.0], [1, 2], 0.5, chosen, estimator)

    def test_standard_estimator(self):
        packets = build_packets([0.25, 0.75], [3, 9], 0.5, 0, ESTIMATOR_STANDARD)
        assert packets[0].selected and packets[0].weighted_loss == 2.0
        assert packets[0].sampling_prob == 0.25
        assert not packets[1].selected and packets[1].weighted_loss == 0.0

    def test_shared_estimator_groups_equal_proposals(self):
        packets = build_packets(
            [0.2, 0.3, 0.5], [4, 4, 6], 0.6, 0, ESTIMATOR_SHARED
        )
        # Bases 0 and 1 proposed the played decision; they share probability 0.5.
        assert packets[0].selected and packets[0].weighted_loss == pytest.approx(1.2)
        assert packets[1].selected and packets[1].weighted_loss == pytest.approx(1.2)
        assert packets[0].sampling_prob == 0.5 and packets[1].sampling_prob == 0.5
        assert packets[2] is UNSELECTED

    @pytest.mark.parametrize("estimator", [ESTIMATOR_STANDARD, ESTIMATOR_SHARED])
    def test_unselected_entries_are_the_shared_packet(self, estimator):
        rng = named_rng(13, "unselected")
        for _ in range(50):
            m = int(rng.integers(2, 6))
            p_bar = rng.dirichlet(np.ones(m)).tolist()
            proposals = [int(rng.integers(3)) for _ in range(m)]
            chosen = int(rng.integers(m))
            packets = build_packets(p_bar, proposals, 0.5, chosen, estimator)
            if estimator == ESTIMATOR_STANDARD:
                hits = [i == chosen for i in range(m)]
            else:
                hits = [d == proposals[chosen] for d in proposals]
            assert [packet.selected for packet in packets] == hits
            for packet, hit in zip(packets, hits):
                assert packet is (packets[chosen] if hit else UNSELECTED)

    def test_all_identical_proposals_have_unit_probability(self):
        packets = build_packets([0.4, 0.35, 0.25], [2, 2, 2], 0.8, 1, ESTIMATOR_SHARED)
        for packet in packets:
            assert packet.selected
            assert packet.sampling_prob == 1.0
            assert packet.weighted_loss == pytest.approx(0.8)

    def test_exact_unbiasedness_small(self):
        # Exhaustive expectation over the sampled base recovers each base's
        # own proposal loss, for both estimators.
        rng = named_rng(12, "unbiased-small")
        for _ in range(50):
            m = int(rng.integers(2, 6))
            p_bar = rng.dirichlet(np.ones(m)).tolist()
            proposals = [int(rng.integers(3)) for _ in range(m)]
            decision_losses = {d: float(rng.random()) for d in set(proposals)}
            for estimator in (ESTIMATOR_STANDARD, ESTIMATOR_SHARED):
                expected = [0.0] * m
                for chosen in range(m):
                    observed = decision_losses[proposals[chosen]]
                    packets = build_packets(p_bar, proposals, observed, chosen, estimator)
                    for i in range(m):
                        expected[i] += p_bar[chosen] * packets[i].weighted_loss
                for i in range(m):
                    assert expected[i] == pytest.approx(
                        decision_losses[proposals[i]], abs=1e-12
                    )


class TestFeedbackAndSchedule:
    def test_threshold_event_doubles_and_raises_rate(self):
        state = init_master(0.01, 2, 100)
        state.rho = [4.0, 4.0]
        state.p_bar = [0.1, 0.9]
        fired = apply_schedule(state)
        assert fired == [0]
        assert state.rho[0] == pytest.approx(20.0)
        assert state.rho[1] == 4.0
        assert state.eta[0] == pytest.approx(0.01 * state.beta)
        assert state.eta[1] == 0.01

    def test_feedback_rejects_out_of_range_loss(self):
        state = init_master(0.01, 2, 100)
        with pytest.raises(InvalidLossError):
            feedback(state, 0, 1.5)

    def test_round_advances_and_mixes(self):
        state = init_master(0.01, 2, 100)
        outcome = feedback(state, 0, 0.8)
        assert state.t == 2
        assert outcome.doublings == [] and outcome.restarts == []
        gamma = state.gamma
        for pb, p in zip(state.p_bar, state.p):
            assert pb == pytest.approx((1 - gamma) * p + gamma / 2, abs=1e-15)
        assert sum(state.p_bar) == pytest.approx(1.0, abs=1e-12)

    def test_never_restart_policy_reports_no_restarts(self):
        state = init_master(0.5, 2, 50, restart_policy=NEVER_RESTART)
        restarted = []
        for t in range(50):
            out = feedback(state, 0, 1.0)
            restarted.extend(out.restarts)
            assert out.restarts == []
        del restarted

    def test_invariants_over_adversarial_swings(self):
        # Alternate full losses between the two bases; every round the
        # distributions stay on the simplex, the probability floor holds,
        # thresholds cap, and the learning-rate ratio stays under 5.
        horizon = 400
        state = init_master(0.9, 2, horizon)
        rng = named_rng(13, "swing")
        doubling_counts = [0, 0]
        for t in range(horizon):
            c = choose(state, rng)
            loss = 1.0 if (t // 25) % 2 == c else 0.0
            out = feedback(state, c, loss)
            for i in out.doublings:
                doubling_counts[i] += 1
            assert sum(state.p) == pytest.approx(1.0, abs=1e-9)
            assert sum(state.p_bar) == pytest.approx(1.0, abs=1e-9)
            for i in range(2):
                assert state.p_bar[i] >= state.gamma / 2 - 1e-15
                assert state.rho[i] >= 1.0 / state.p_bar[i]
                assert state.rho[i] <= 2.0 * horizon * 2 * (1.0 + 1e-12)
                assert state.eta[i] / state.eta0 <= 5.0
        cap = math.ceil(math.log2(horizon))
        assert all(c <= cap for c in doubling_counts)

    def test_determinism(self):
        def run():
            state = init_master(0.05, 3, 200)
            rng = named_rng(21, "master")
            trace = []
            for t in range(200):
                c = choose(state, rng)
                out = feedback(state, c, (t % 7) / 7.0)
                trace.append((c, tuple(state.p_bar), tuple(state.eta), tuple(out.restarts)))
            return trace

        assert run() == run()


@st.composite
def hostile_schedules(draw):
    """A master at horizon T up to 1e8 over M up to 32 bases, and values in
    [0, 1] for a hostile ``p_bar`` sequence: each value is taken as the
    entry itself or, when ``adaptive``, as a fraction of the base's current
    1 / rho, which fires its threshold as often as the floor allows."""
    horizon = draw(st.integers(2, 10**8))
    m = draw(st.integers(2, 32))
    state = init_master(draw(st.floats(1e-6, 1.0)), m, horizon)
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    return state, draw(st.booleans()), values


class TestScheduleCaps:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(hostile_schedules())
    def test_hostile_p_bar_keeps_the_caps(self, instance):
        # Every entry lies in [1/(T*M), 1]; base i reads the values from
        # the i-th on, so the bases fire in different rounds.
        state, adaptive, values = instance
        m, floor = state.num_bases, 1.0 / (state.horizon * state.num_bases)
        cap = math.ceil(math.log2(state.horizon))
        doublings = [0] * m
        for k in range(len(values)):
            state.p_bar = [
                min(1.0, max(floor, values[(k + i) % len(values)] / (state.rho[i] if adaptive else 1.0)))
                for i in range(m)
            ]
            for i in apply_schedule(state):
                doublings[i] += 1
            assert max(doublings) <= cap
            for i in range(m):
                assert state.eta[i] / state.eta0 <= 5.0
                assert state.rho[i] >= 1.0 / state.p_bar[i]


class TestTunedEta:
    def test_worked_values(self):
        assert tuned_eta(100.0, 10_000, 2) == pytest.approx(
            min(1.0 / (4000.0 * math.log(10_000)), math.sqrt(2.0 / 10_000)), abs=1e-15
        )
        assert tuned_eta(100.0, 10_000, 2) == pytest.approx(2.714340511895324e-05)
        assert tuned_eta(1.0, 4, 2) == pytest.approx(
            1.0 / (40.0 * math.log(4.0)), abs=1e-15
        )

    def test_small_target_saturates_horizon_branch(self):
        assert tuned_eta(1e-9, 10_000, 2) == math.sqrt(2.0 / 10_000)

    def test_invalid_target(self):
        with pytest.raises(ConfigError):
            tuned_eta(0.0, 100, 2)
