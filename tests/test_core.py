"""Domain types: packets, importance weighting, simplex validation, streams."""

import math

import numpy as np
import pytest

from corral.core import (
    ContractError,
    ConfigError,
    DegenerateDistributionError,
    FeedbackPacket,
    InvalidLossError,
    InvalidProbabilityError,
    NormalizationDriftError,
    StabilityCertificate,
    importance_weight,
    named_rng,
    sample_index,
    validate_simplex,
)


class TestImportanceWeight:
    def test_selected_divides_by_probability(self):
        packet = importance_weight(0.5, 0.25, True)
        assert packet.weighted_loss == 2.0
        assert packet.selected
        assert packet.raw_loss == 0.5
        assert packet.sampling_prob == 0.25

    def test_identity_probability(self):
        packet = importance_weight(0.7, 1.0, True)
        assert packet.weighted_loss == 0.7

    def test_unselected_round_carries_zero_loss(self):
        packet = importance_weight(0.9, 0.3, False)
        assert not packet.selected
        assert packet.weighted_loss == 0.0
        assert packet.raw_loss is None

    @pytest.mark.parametrize("prob", [0.0, -0.1, 1.2, math.nan])
    def test_invalid_probability(self, prob):
        with pytest.raises(InvalidProbabilityError):
            importance_weight(0.5, prob, True)

    @pytest.mark.parametrize("raw", [-0.01, 1.5, math.nan])
    def test_invalid_loss(self, raw):
        with pytest.raises(InvalidLossError):
            importance_weight(raw, 0.5, True)

    def test_expectation_recovers_raw_loss(self):
        # Two-point expectation: prob * raw/prob + (1 - prob) * 0 = raw.
        for raw in np.linspace(0.0, 1.0, 21):
            for prob in np.linspace(0.05, 1.0, 20):
                packet = importance_weight(float(raw), float(prob), True)
                assert prob * packet.weighted_loss == pytest.approx(raw, abs=1e-14)

    def test_second_moment_bounded_by_inverse_probability(self):
        # E[w^2] = raw^2 / prob <= 1 / prob.
        rng = named_rng(0, "second-moment")
        for _ in range(200):
            raw = float(rng.random())
            prob = float(rng.random()) * 0.99 + 0.01
            packet = importance_weight(raw, prob, True)
            second_moment = prob * packet.weighted_loss**2
            assert second_moment == pytest.approx(raw * raw / prob, rel=1e-12)
            assert second_moment <= 1.0 / prob + 1e-12


class TestFeedbackPacket:
    def test_selected_requires_exact_ratio(self):
        with pytest.raises(ContractError):
            FeedbackPacket(True, 2.0, 0.25, raw_loss=0.4)

    def test_unselected_requires_zero_loss(self):
        with pytest.raises(ContractError):
            FeedbackPacket(False, 0.5, 0.5)

    def test_unselected_cannot_recover_raw(self):
        with pytest.raises(ContractError):
            FeedbackPacket(False, 0.0, 0.5, raw_loss=0.1)

    def test_probability_range_enforced(self):
        with pytest.raises(InvalidProbabilityError):
            FeedbackPacket(False, 0.0, 0.0)


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

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            validate_simplex([math.inf, 0.5])


class TestStabilityCertificate:
    def test_valid_certificate(self):
        cert = StabilityCertificate(0.5)
        assert cert.alpha == 0.5

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            StabilityCertificate(0.0)
        with pytest.raises(ConfigError):
            StabilityCertificate(1.5)


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
