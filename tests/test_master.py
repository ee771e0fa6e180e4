"""Master algorithm: initialization, sampling, feedback routing, schedule."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral import master
from corral.core import (
    ConfigError,
    ContractError,
    DegenerateDistributionError,
    FeedbackPacket,
    InvalidLossError,
    InvalidProbabilityError,
    NormalizationDriftError,
    UNSELECTED,
    named_rng,
    normalize,
    sample_index,
    validate_simplex,
)
from corral.master import (
    ESTIMATOR_SHARED,
    ESTIMATOR_STANDARD,
    NEVER_RESTART,
    RESTART_ON_DOUBLING,
    RoundOutcome,
    apply_schedule,
    build_packets,
    feedback,
    init_master,
    tuned_eta,
)
from corral.harness import InducedRouter, naive_packets
from corral.omd import solve_lambda


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
    """The routers draw a base from the master's ``p_bar`` with ``sample_index``."""

    def test_inverse_cdf_two_bases(self):
        state = init_master(0.01, 2, 100)
        gamma = state.gamma
        state.p_bar = [1.0 - gamma / 2.0, gamma / 2.0]
        proposals = [5, 7]
        out = sample_index(FakeRng(0.5), state.p_bar)
        assert (out, proposals[out]) == (0, 5)

    def test_inverse_cdf_uniform_four(self):
        state = init_master(0.01, 4, 100)
        proposals = [10, 11, 12, 13]
        out = sample_index(FakeRng(0.6), state.p_bar)
        assert out == 2
        assert proposals[out] == 12

    def test_empirical_frequency(self):
        # 1e5 draws from (0.2, 0.8); binomial concentration keeps the
        # frequency within +/- 0.005 of 0.2.
        state = init_master(0.01, 2, 10**6)
        state.p_bar = [0.2, 0.8]
        rng = named_rng(11, "master")
        hits = sum(1 for _ in range(100_000) if sample_index(rng, state.p_bar) == 0)
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


@st.composite
def packet_rounds(draw):
    """A round's ``p_bar`` as ``feedback`` mixes it, with entries down to the
    1/(T*M) floor, proposals that repeat, and a loss that may be a signed zero."""
    m = draw(st.integers(2, 6))
    horizon = draw(st.integers(2, 10**9))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    gamma = 1.0 / horizon
    p_bar = normalize([(1.0 - gamma) * x + gamma / m for x in normalize(weights)])
    proposals = draw(st.one_of(
        st.just([0] * m), st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
    loss = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
    return p_bar, proposals, loss, draw(st.integers(0, m - 1))


def reference_packets(p_bar, proposals, loss, chosen, estimator):
    """Each estimator's packets by definition, every selected one made checked."""
    if estimator == ESTIMATOR_STANDARD:
        hits = [i == chosen for i in range(len(p_bar))]
    else:
        hits = [d == proposals[chosen] for d in proposals]
    prob = 0.0
    for x, hit in zip(p_bar, hits):
        if hit:
            prob += x
    prob = min(1.0, prob)
    packet = FeedbackPacket(True, loss / prob, prob, loss)
    return [packet if hit else UNSELECTED for hit in hits]


def packet_bits(packets):
    """Each packet's type and fields, floats by ``float.hex`` (so the sign of zero counts)."""
    return [
        (type(packet), [v.hex() if isinstance(v, float) else v for v in packet])
        for packet in packets
    ]


def assert_rechecked(packets):
    """Every selected packet passes ``FeedbackPacket``'s checks again."""
    for packet in packets:
        if packet.selected:
            assert FeedbackPacket(*packet) == packet


class RecordingBase:
    """A base that always proposes arm 0 and records the packets and resets it gets."""

    def __init__(self):
        self.packets, self.resets = [], []

    def propose(self, context):
        return 0

    def update(self, packet):
        self.packets.append(packet)

    def reset(self, range_param):
        self.resets.append(range_param)


class TestTrustedBuilders:
    """The routers' unchecked packet builders give the checked entry's packets,
    field for field, and every packet they select would pass the checks."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(packet_rounds())
    def test_estimator_builders_match_build_packets(self, instance):
        p_bar, proposals, loss, chosen = instance
        for estimator in (ESTIMATOR_STANDARD, ESTIMATOR_SHARED):
            packets = master.PACKETS[estimator](p_bar, proposals, loss, chosen)
            expected = build_packets(p_bar, proposals, loss, chosen, estimator)
            assert packet_bits(packets) == packet_bits(expected)
            assert packet_bits(packets) == packet_bits(
                reference_packets(p_bar, proposals, loss, chosen, estimator))
            assert_rechecked(packets)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(packet_rounds())
    def test_naive_packets_match_checked_packets(self, instance):
        probs, proposals, raw, chosen = instance
        weighted = raw / probs[chosen]
        expected = [UNSELECTED] * len(probs)
        expected[chosen] = FeedbackPacket(True, weighted, 1.0, weighted)
        packets = naive_packets(probs, proposals, raw, chosen)
        assert packet_bits(packets) == packet_bits(expected)
        assert_rechecked(packets)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.floats(1.0, 1e9),
        st.one_of(st.just(-0.0), st.floats(0.0, 1.0).filter(lambda x: x not in (0.0, 1.0))),
    )
    def test_induced_packets_match_checked_packets(self, rho, raw):
        base = RecordingBase()
        router = InducedRouter(base, rho, named_rng(0, "wrapper"))
        router.selection.rng = FakeRng(0.0)  # every round selected
        p = router.selection.sampling_prob
        emitted = router.step(0, [raw])
        packets = base.packets
        assert packet_bits(packets) == packet_bits([FeedbackPacket(True, raw / p, p, raw)])
        assert emitted == raw / p and base.resets == []
        assert_rechecked(packets)


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
            c = sample_index(rng, state.p_bar)
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
                c = sample_index(rng, state.p_bar)
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


def reference_unchecked_step(p, losses, rates):
    """The master's OMD step as first written (``omd.unchecked_step``), kept
    verbatim: ``feedback`` must take exactly its float operations."""
    p = normalize(p)
    if min(losses) == max(losses):
        return p
    lam = solve_lambda(p, losses, rates)
    q = [1.0 / (1.0 / pi + r * (l - lam)) for pi, r, l in zip(p, rates, losses)]
    return validate_simplex(q)


def reference_apply_schedule(state):
    """``apply_schedule`` as first written, kept verbatim."""
    fired = []
    for i in range(state.num_bases):
        inv = 1.0 / state.p_bar[i]
        if inv > state.rho[i]:
            state.rho[i] = 2.0 * inv
            state.eta[i] = state.beta * state.eta[i]
            fired.append(i)
    return fired


def reference_feedback(state, chosen, observed_loss):
    """The master round as first composed: ``unchecked_step``, the mixing
    ``normalize`` and ``apply_schedule``, kept verbatim."""
    if not 0.0 <= observed_loss <= 1.0:
        raise InvalidLossError(f"observed loss must be in [0, 1], got {observed_loss}")
    master_loss = [0.0] * state.num_bases
    master_loss[chosen] = observed_loss / state.p_bar[chosen]
    state.p = reference_unchecked_step(state.p, master_loss, state.eta)

    # A convex mix of the checked q and the uniform vector needs no check.
    mix = state.gamma / state.num_bases
    state.p_bar = normalize([(1.0 - state.gamma) * x + mix for x in state.p])

    doublings = reference_apply_schedule(state)
    restarts = list(doublings) if state.restart_policy == RESTART_ON_DOUBLING else []
    state.t += 1
    return RoundOutcome(doublings, restarts)


def mixed(p, gamma):
    """``p_bar`` of a master whose OMD distribution is ``p``."""
    m = len(p)
    return normalize([(1.0 - gamma) * x + gamma / m for x in p])


# Raw losses a round may observe, and some it must reject.
ROUND_LOSSES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([-1e-300, -0.5, 1.0 + 2**-52, 2.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def master_scale_rounds(draw):
    """A master at horizon T up to 1e8 over M up to 32 bases, some of whose
    ``p_bar`` entries sit at the 1/(T*M) floor, with rates inflated up to
    5x, then a run of rounds of any base and loss."""
    horizon = draw(st.integers(2, 10**8))
    m = draw(st.integers(2, 32))
    policy = draw(st.sampled_from([RESTART_ON_DOUBLING, NEVER_RESTART]))
    state = init_master(draw(st.floats(1e-6, 1.0)), m, horizon, restart_policy=policy)
    at_floor = draw(st.integers(1, m - 1))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=m - at_floor, max_size=m - at_floor))
    # p entries this small leave the mixed p_bar entry at the floor.
    tiny = draw(st.lists(st.floats(1e-300, 1e-18), min_size=at_floor, max_size=at_floor))
    state.p = normalize(draw(st.permutations(tiny + weights)))
    state.p_bar = mixed(state.p, state.gamma)
    inflation = draw(st.lists(st.floats(1.0, 5.0), min_size=m, max_size=m))
    state.eta = [state.eta0 * x for x in inflation]
    rounds = draw(st.lists(st.tuples(st.integers(0, m - 1), ROUND_LOSSES), min_size=4, max_size=24))
    return state, rounds


@st.composite
def restart_scale_rounds(draw):
    """A master as ``adversarial-restart`` runs it: few bases, rate 0.9
    inflated up to 5x, and losses of 0 and 1 that flip between the bases
    every few rounds."""
    horizon = draw(st.integers(2, 10**5))
    m = draw(st.integers(2, 4))
    policy = draw(st.sampled_from([RESTART_ON_DOUBLING, NEVER_RESTART]))
    state = init_master(0.9, m, horizon, restart_policy=policy)
    floor = 1.0 / (horizon * m)
    state.p = normalize(draw(st.lists(st.floats(floor, 1.0), min_size=m, max_size=m)))
    state.p_bar = mixed(state.p, state.gamma)
    inflation = draw(st.lists(st.floats(1.0, 5.0), min_size=m, max_size=m))
    state.eta = [0.9 * x for x in inflation]
    period = draw(st.integers(1, 8))
    chosen = draw(st.lists(st.integers(0, m - 1), min_size=4, max_size=48))
    rounds = [(c, 1.0 if (k // period) % m == c else 0.0) for k, c in enumerate(chosen)]
    return state, rounds


def state_bits(state):
    """Every field of a master state, floats by their exact repr."""
    return repr(vars(state))


class TestFeedbackPinnedToReference:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(master_scale_rounds(), restart_scale_rounds()))
    def test_same_round_bit_for_bit(self, instance):
        state, rounds = instance
        expected_state = copy.deepcopy(state)
        for chosen, loss in rounds:
            try:
                expected = reference_feedback(expected_state, chosen, loss)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    feedback(state, chosen, loss)
            else:
                outcome = feedback(state, chosen, loss)
                assert (outcome.doublings, outcome.restarts) == (
                    expected.doublings,
                    expected.restarts,
                )
            assert state_bits(state) == state_bits(expected_state)

    @pytest.mark.parametrize(
        "shift, error",
        [(3e-4, NormalizationDriftError), (0.5, NormalizationDriftError),
         (1e9, DegenerateDistributionError)],
        ids=["small-drift", "drift", "past-pole"],
    )
    def test_solver_output_is_guarded(self, monkeypatch, shift, error):
        # A multiplier off the root gives a q that fails validate_simplex;
        # the round fails with its typed error, like the reference's step.
        solver = master.solve_lambda
        monkeypatch.setattr(master, "solve_lambda", lambda *args: solver(*args) + shift)
        state = init_master(0.1, 3, 1000)
        with pytest.raises(error):
            feedback(state, 1, 0.7)
        assert state.p == [1.0 / 3] * 3 and state.t == 1

    @pytest.mark.parametrize("shift, error",
                             [(0.5, NormalizationDriftError), (1e9, DegenerateDistributionError)])
    def test_failed_step_names_round_rates_and_eta(self, monkeypatch, shift, error):
        solver = master.solve_lambda
        monkeypatch.setattr(master, "solve_lambda", lambda *args: solver(*args) + shift)
        state = init_master(0.1, 3, 1000)
        feedback(state, 0, 0.0)  # a zero loss takes no step
        with pytest.raises(error) as info:
            feedback(state, 1, 0.7)
        message = str(info.value)
        assert message.startswith("round 2: ") and "rates [0.1, 0.1, 0.1]" in message
        assert "the master's eta is too large" in message


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

    @pytest.mark.parametrize("target", [math.inf, math.nan, 1e308])
    def test_target_that_tunes_no_rate(self, target):
        # inf, and a finite target whose 40 * R * ln T overflows, gave 0.0,
        # which init_master then rejected as a learning rate.
        with pytest.raises(ConfigError, match="regret_target"):
            tuned_eta(target, 100, 2)
