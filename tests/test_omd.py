"""Log-barrier OMD: line search, update, divergence, regret telescoping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corral.core import DegenerateDistributionError, named_rng
from corral.omd import bregman_log_barrier, omd_step, solve_lambda


def random_instance(rng, max_m=16, loss_scale=100.0, rate_scale=10.0):
    m = int(rng.integers(2, max_m + 1))
    p = rng.dirichlet(np.ones(m)).tolist()
    losses = (rng.random(m) * loss_scale).tolist()
    rates = (rng.random(m) * rate_scale + 1e-6).tolist()
    return p, losses, rates


class TestSolveLambda:
    def test_two_arm_quadratic(self):
        # 1/(3-x) + 1/(2-x) = 1 reduces to x^2 - 3x + 1 = 0.
        expected = (3.0 - math.sqrt(5.0)) / 2.0
        assert solve_lambda([0.5, 0.5], [1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            expected, abs=1e-9
        )

    def test_three_arm_quadratic(self):
        # 1/(6-x) + 2/(3-x) = 1 reduces to x^2 - 6x + 3 = 0.
        expected = 3.0 - math.sqrt(6.0)
        lam = solve_lambda([1 / 3, 1 / 3, 1 / 3], [3.0, 0.0, 0.0], [1.0] * 3)
        assert lam == pytest.approx(expected, abs=1e-9)

    def test_equal_losses_return_common_value(self):
        assert solve_lambda([0.5, 0.5], [3.0, 3.0], [1.0, 1.0]) == 3.0

    def test_single_coordinate(self):
        assert solve_lambda([1.0], [0.7], [2.0]) == 0.7

    def test_root_is_unique_crossing(self):
        # F < 1 left of the root, F > 1 right of it (inside the valid region).
        rng = named_rng(1, "omd-crossing")
        for _ in range(50):
            p, losses, rates = random_instance(rng, max_m=8)
            lam = solve_lambda(p, losses, rates)

            def f_value(x):
                dens = [
                    1.0 / pi + r * (l - x) for pi, r, l in zip(p, rates, losses)
                ]
                if min(dens) <= 0.0:
                    return math.inf
                return sum(1.0 / d for d in dens)

            lo = min(losses)
            for x in np.linspace(lo, lam, 7)[:-1]:
                assert f_value(float(x)) <= 1.0 + 1e-9
            span = lam - lo
            for x in [lam + span * 1e-3, lam + span * 1e-2]:
                assert f_value(float(x)) > 1.0

    def test_bad_inputs_rejected(self):
        # solve_lambda trusts its inputs; omd_step, its entry point, checks them.
        with pytest.raises(ValueError):
            omd_step([0.5, 0.5], [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            omd_step([0.5, 0.5], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            omd_step([0.5, 0.5], [1.0], [1.0, 1.0])


class TestOmdStep:
    def test_equal_losses_leave_distribution_unchanged(self):
        p = [0.5, 0.5]
        assert omd_step(p, [3.0, 3.0], [1.0, 1.0]) == p

    def test_two_arm_worked_instance(self):
        lam = (3.0 - math.sqrt(5.0)) / 2.0
        q = omd_step([0.5, 0.5], [1.0, 0.0], [1.0, 1.0])
        assert q[0] == pytest.approx(1.0 / (3.0 - lam), abs=1e-9)
        assert q[1] == pytest.approx(1.0 / (2.0 - lam), abs=1e-9)

    def test_three_arm_worked_instance(self):
        lam = 3.0 - math.sqrt(6.0)
        q = omd_step([1 / 3, 1 / 3, 1 / 3], [3.0, 0.0, 0.0], [1.0] * 3)
        assert q[0] == pytest.approx(1.0 / (6.0 - lam), abs=1e-9)
        assert q[1] == pytest.approx(1.0 / (3.0 - lam), abs=1e-9)
        assert q[2] == pytest.approx(q[1], abs=1e-12)

    def test_output_valid_on_random_instances(self):
        rng = named_rng(2, "omd-valid")
        for _ in range(300):
            p, losses, rates = random_instance(rng)
            q = omd_step(p, losses, rates)
            assert abs(sum(q) - 1.0) <= 1e-9
            assert min(q) > 0.0

    def test_degenerate_input_propagates(self):
        with pytest.raises(DegenerateDistributionError):
            omd_step([0.0, 1.0], [1.0, 0.0], [1.0, 1.0])

    def test_monotone_response_to_loss_increase(self):
        # Raising one coordinate's loss never raises its updated probability.
        rng = named_rng(3, "omd-monotone")
        for _ in range(100):
            p, losses, rates = random_instance(rng, max_m=8, loss_scale=10.0)
            q = omd_step(p, losses, rates)
            i = int(rng.integers(len(p)))
            bumped = list(losses)
            bumped[i] += 0.5 + float(rng.random())
            q_bumped = omd_step(p, bumped, rates)
            assert q_bumped[i] <= q[i] + 1e-12


@st.composite
def master_scale_instances(draw):
    """An OMD step as the master takes it at scale: horizon T up to 1e8 and
    M up to 32 bases, some coordinates of p at the 1/(T*M) smoothing floor,
    a one-hot importance-weighted loss up to T*M and rates inflated up to 5x."""
    horizon = draw(st.integers(2, 10**8))
    m = draw(st.integers(2, 32))
    floor = 1.0 / (horizon * m)
    at_floor = draw(st.integers(1, m - 1))
    size = m - at_floor
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    rest = (1.0 - at_floor * floor) / sum(weights)
    p = draw(st.permutations([floor] * at_floor + [w * rest for w in weights]))
    losses = [0.0] * m
    losses[draw(st.integers(0, m - 1))] = draw(st.floats(0.0, float(horizon * m)))
    eta0 = draw(st.floats(1e-6, 1.0))
    inflation = draw(st.lists(st.floats(1.0, 5.0), min_size=m, max_size=m))
    return p, losses, [eta0 * x for x in inflation]


class TestMasterScale:
    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(master_scale_instances())
    def test_unchecked_solver_path_stays_valid(self, instance):
        p, losses, rates = instance
        q = omd_step(p, losses, rates)
        assert min(q) > 0.0
        assert abs(sum(q) - 1.0) <= 1e-9
        lam = solve_lambda(p, losses, rates)
        assert min(losses) <= lam <= max(losses)


class TestBregman:
    def test_zero_iff_equal(self):
        p = [0.3, 0.7]
        assert bregman_log_barrier([1.0, 2.0], p, p) == 0.0

    def test_worked_value(self):
        # h(2) + h(2/3) = 2/3 - ln(4/3), evaluated independently.
        expected = 2.0 / 3.0 - math.log(4.0 / 3.0)
        value = bregman_log_barrier([1.0, 1.0], [0.5, 0.5], [0.25, 0.75])
        assert value == pytest.approx(expected, abs=1e-12)

    def test_strictly_positive_off_diagonal(self):
        rng = named_rng(4, "bregman-positive")
        for _ in range(100):
            m = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(m)).tolist()
            q = rng.dirichlet(np.ones(m)).tolist()
            rates = (rng.random(m) * 5.0 + 0.01).tolist()
            value = bregman_log_barrier(rates, p, q)
            assert value >= 0.0
            if max(abs(a - b) for a, b in zip(p, q)) > 1e-6:
                assert value > 0.0


class TestTelescopedRegretBound:
    def test_per_round_inequality(self):
        # <p_t - u, loss_t> <= D(u, p_t) - D(u, p_{t+1}) + sum_i eta_i p_i^2 l_i^2
        rng = named_rng(5, "telescope-round")
        for _ in range(30):
            m = 4
            p = rng.dirichlet(np.ones(m)).tolist()
            for _ in range(50):
                losses = (rng.random(m) * 5.0).tolist()
                rates = (rng.random(m) * 2.0 + 0.01).tolist()
                nxt = omd_step(p, losses, rates)
                for _ in range(3):
                    u = rng.dirichlet(np.ones(m)).tolist()
                    lhs = sum((p[i] - u[i]) * losses[i] for i in range(m))
                    rhs = (
                        bregman_log_barrier(rates, u, p)
                        - bregman_log_barrier(rates, u, nxt)
                        + sum(rates[i] * p[i] ** 2 * losses[i] ** 2 for i in range(m))
                    )
                    assert rhs - lhs >= -1e-8
                p = nxt
