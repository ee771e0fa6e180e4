"""Domain types: packets, importance weighting, simplex validation, streams."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from corral.core import (
    ContractError,
    DegenerateDistributionError,
    FeedbackPacket,
    InvalidProbabilityError,
    NormalizationDriftError,
    UNSELECTED,
    UniformStream,
    named_rng,
    sample_index,
    validate_simplex,
)


def weighted(raw, prob):
    """The selected packet of an importance-weighted loss ``raw / prob``."""
    return FeedbackPacket(True, raw / prob, prob, raw)


class TestImportanceWeight:
    def test_selected_divides_by_probability(self):
        packet = weighted(0.5, 0.25)
        assert packet.weighted_loss == 2.0
        assert packet.selected
        assert packet.raw_loss == 0.5
        assert packet.sampling_prob == 0.25

    def test_identity_probability(self):
        packet = weighted(0.7, 1.0)
        assert packet.weighted_loss == 0.7

    def test_unselected_round_carries_zero_loss(self):
        packet = UNSELECTED
        assert not packet.selected
        assert packet.weighted_loss == 0.0
        assert packet.raw_loss is None and packet.sampling_prob is None

    @pytest.mark.parametrize("prob", [0.0, -0.1, 1.2, math.nan])
    def test_invalid_probability(self, prob):
        with pytest.raises(InvalidProbabilityError):
            FeedbackPacket(True, 0.0, prob, 0.0)

    def test_expectation_recovers_raw_loss(self):
        # Two-point expectation: prob * raw/prob + (1 - prob) * 0 = raw.
        for raw in np.linspace(0.0, 1.0, 21):
            for prob in np.linspace(0.05, 1.0, 20):
                packet = weighted(float(raw), float(prob))
                assert prob * packet.weighted_loss == pytest.approx(raw, abs=1e-14)

    def test_second_moment_bounded_by_inverse_probability(self):
        # E[w^2] = raw^2 / prob <= 1 / prob.
        rng = named_rng(0, "second-moment")
        for _ in range(200):
            raw = float(rng.random())
            prob = float(rng.random()) * 0.99 + 0.01
            packet = weighted(raw, prob)
            second_moment = prob * packet.weighted_loss**2
            assert second_moment == pytest.approx(raw * raw / prob, rel=1e-12)
            assert second_moment <= 1.0 / prob + 1e-12


class TestFeedbackPacket:
    def test_selected_requires_exact_ratio(self):
        with pytest.raises(ContractError):
            FeedbackPacket(True, 2.0, 0.25, raw_loss=0.4)

    @pytest.mark.parametrize("missing", ["sampling_prob", "raw_loss"])
    def test_selected_carries_raw_and_probability(self, missing):
        fields = {"sampling_prob": 0.5, "raw_loss": 0.5, missing: None}
        with pytest.raises(ContractError):
            FeedbackPacket(True, 1.0, **fields)

    def test_unselected_requires_zero_loss(self):
        with pytest.raises(ContractError):
            FeedbackPacket(False, 0.5)

    def test_unselected_cannot_recover_raw(self):
        with pytest.raises(ContractError):
            FeedbackPacket(False, 0.0, raw_loss=0.1)

    # No base reads an unselected round's probability, so it carries none.
    @pytest.mark.parametrize("prob", [0.5, 1.0])
    def test_unselected_carries_no_probability(self, prob):
        with pytest.raises(ContractError):
            FeedbackPacket(False, 0.0, prob)

    def test_probability_range_enforced(self):
        with pytest.raises(InvalidProbabilityError):
            FeedbackPacket(True, 0.0, 0.0, raw_loss=0.0)


class TestValidateSimplex:
    def test_already_normalized(self):
        assert validate_simplex([0.5, 0.5]) == [0.5, 0.5]

    def test_small_drift_renormalized(self):
        out = validate_simplex([0.5 + 5e-10, 0.5])
        assert sum(out) == pytest.approx(1.0, abs=1e-15)
        assert out[0] > out[1]

    def test_zero_entry_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            validate_simplex([0.0, 1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            validate_simplex([-0.1, 1.1])

    def test_large_drift_rejected(self):
        with pytest.raises(NormalizationDriftError):
            validate_simplex([0.6, 0.6])

    # NaN passes ``x <= 0.0``: only the finiteness check catches it.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DegenerateDistributionError, match="non-finite"):
            validate_simplex([bad, 0.5])


class TestNamedRng:
    def test_same_key_same_stream(self):
        a = named_rng(7, "master")
        b = named_rng(7, "master")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent_by_name(self):
        a = named_rng(7, "master")
        b = named_rng(7, "base.0")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_independent_by_seed(self):
        a = named_rng(7, "master")
        b = named_rng(8, "master")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestSampleIndex:
    def test_inverse_cdf_boundaries(self):
        class FakeRng:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        assert sample_index(FakeRng(0.0), [0.25, 0.75]) == 0
        assert sample_index(FakeRng(0.24), [0.25, 0.75]) == 0
        assert sample_index(FakeRng(0.25), [0.25, 0.75]) == 1
        assert sample_index(FakeRng(0.999999), [0.25, 0.75]) == 1

    @staticmethod
    def draw(u, probs):
        return sample_index(SimpleNamespace(random=lambda: u), probs)

    def test_shortfall_returns_last_index_with_mass(self):
        # The entries sum to 1 - 1e-12 in floats; a u past that sum falls in
        # the shortfall and goes to the last entry, not past the end.
        probs = [0.5, 0.25, 0.25 - 1e-12]
        total = probs[0] + probs[1] + probs[2]  # accumulated as sample_index does
        assert total < 1.0
        for u in (total, 1.0 - 1e-13, math.nextafter(1.0, 0.0)):
            assert u >= total
            assert self.draw(u, probs) == 2

    def test_trailing_zero_mass_never_returned(self):
        probs = [0.5, 0.5 - 1e-12, 0.0, 0.0]
        # Below the sum, at a partial sum, and in the shortfall past it.
        for u in (0.0, 0.5, 0.75, 1.0 - 2e-12, 1.0 - 1e-13, math.nextafter(1.0, 0.0)):
            assert self.draw(u, probs) == (0 if u < 0.5 else 1)
        # Exact mass 1 followed by zeros: the largest u still lands on mass.
        assert self.draw(math.nextafter(1.0, 0.0), [0.25, 0.75, 0.0]) == 1
        assert self.draw(0.25, [0.25, 0.75, 0.0]) == 1


class TestUniformStream:
    def test_matches_scalar_generator_stream(self):
        # Draws across several block boundaries equal the twin generator's
        # scalar calls, bit for bit.
        twin = named_rng(5, "stream")
        stream = UniformStream(named_rng(5, "stream"))
        n = 4 * UniformStream.BLOCK + 10
        assert [stream.random() for _ in range(n)] == [twin.random() for _ in range(n)]
        assert stream.random() == twin.random()

    def test_draws_lazily(self):
        rng = named_rng(5, "stream")
        UniformStream(rng)
        assert rng.random() == named_rng(5, "stream").random()

    def test_serves_python_floats(self):
        stream = UniformStream(named_rng(6, "stream"))
        assert all(type(stream.random()) is float for _ in range(UniformStream.BLOCK + 1))
