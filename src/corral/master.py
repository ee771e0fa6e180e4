"""The CORRAL master: log-barrier OMD over base algorithms.

Each round the caller draws a base from the smoothed distribution ``p_bar``
with ``core.sample_index`` and plays its suggestion; ``build_packets`` makes
the importance-weighted feedback packet for every base from the
decision-time ``p_bar``; and ``feedback`` is the rest of the round in one
function: the log-barrier OMD step, the mix, and a per-base threshold /
learning-rate doubling schedule: whenever ``1 / p_bar_i`` exceeds the base's
threshold, the threshold doubles past it and the base's learning rate is
multiplied by ``beta = e^(1/ln T)``, which caps total inflation at a factor
of five over any horizon. Under the restart-on-doubling policy the base is
also reset with the new threshold as its loss-range parameter.

Two bases take a scalar path through ``feedback`` (and through
``solve_lambda``): the same float operations in the same order as the
generic path, so the same state bit for bit, without its per-round lists.
It exists for speed alone: Python 3.11 gives each comprehension its own
frame, and at two entries that overhead, not the arithmetic, is most of a
round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ConfigError,
    ContractError,
    FeedbackPacket,
    InvalidLossError,
    InvalidProbabilityError,
    SIMPLEX_HARD_TOL,
    UNSELECTED,
    trusted_packet,
    validate_simplex,
)
from .omd import solve_lambda

RESTART_ON_DOUBLING = "restart-on-doubling"
NEVER_RESTART = "never-restart"
RESTART_POLICIES = (RESTART_ON_DOUBLING, NEVER_RESTART)

ESTIMATOR_STANDARD = "standard"
ESTIMATOR_SHARED = "shared"
ESTIMATORS = (ESTIMATOR_STANDARD, ESTIMATOR_SHARED)


@dataclass
class MasterState:
    """Full master state: distributions, schedule and constants."""

    horizon: int
    num_bases: int
    gamma: float
    beta: float
    eta0: float
    eta: list[float]
    rho: list[float]
    p: list[float]
    p_bar: list[float]
    t: int = 1
    restart_policy: str = RESTART_ON_DOUBLING


@dataclass
class RoundOutcome:
    """The schedule events of one round.

    ``doublings`` lists the bases whose threshold fired this round;
    ``restarts`` is the subset that must be re-initialized (equal to
    ``doublings`` under restart-on-doubling, empty under never-restart).
    """

    doublings: list[int]
    restarts: list[int]


def init_master(
    eta0: float,
    num_bases: int,
    horizon: int,
    restart_policy: str = RESTART_ON_DOUBLING,
) -> MasterState:
    """Fresh master state: uniform distributions, thresholds at 2M.

    Requires at least two bases (the learning-rate cap argument needs it)
    and a horizon of at least two (``beta`` is undefined at T = 1).
    """
    if num_bases < 2:
        raise ConfigError(f"need at least 2 base algorithms, got {num_bases}")
    if horizon < 2:
        raise ConfigError(f"horizon must be >= 2, got {horizon}")
    if not 0.0 < eta0 < math.inf:
        raise ConfigError(f"learning rate must be finite and > 0, got {eta0}")
    if restart_policy not in RESTART_POLICIES:
        raise ConfigError(f"unknown restart policy {restart_policy!r}")
    uniform = [1.0 / num_bases] * num_bases
    return MasterState(
        horizon=horizon,
        num_bases=num_bases,
        gamma=1.0 / horizon,
        beta=math.exp(1.0 / math.log(horizon)),
        eta0=eta0,
        eta=[eta0] * num_bases,
        rho=[2.0 * num_bases] * num_bases,
        p=list(uniform),
        p_bar=list(uniform),
        restart_policy=restart_policy,
    )


def build_packets(
    p_bar: Sequence[float],
    proposals: Sequence[int],
    observed_loss: float,
    chosen: int,
    estimator: str = ESTIMATOR_STANDARD,
) -> list[FeedbackPacket]:
    """Construct the per-base feedback packets for one round.

    Standard estimator: only the sampled base is selected and its loss is
    weighted by its own sampling probability. Shared estimator: every base
    whose proposal equals the played decision shares the feedback, weighted
    by the total probability of that decision being played; this wastes less
    information when the decision space is small. Both are unbiased. The
    selected bases share one packet and every other base gets ``UNSELECTED``;
    after the checks, the estimator's unchecked builder in ``PACKETS`` makes them.
    """
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    if len(proposals) != len(p_bar):
        raise ContractError(f"expected {len(p_bar)} proposals, got {len(proposals)}")
    if not 0 <= chosen < len(p_bar):
        raise ContractError(f"chosen base {chosen} is not in 0..{len(p_bar) - 1}")
    # NaN and +-inf fail the range comparisons themselves.
    if not 0.0 <= observed_loss <= 1.0:
        raise InvalidLossError(f"observed loss must be in [0, 1], got {observed_loss}")
    for x in p_bar:
        if not 0.0 < x <= 1.0:
            raise InvalidProbabilityError(f"probability must be in (0, 1], got {x}")
    return PACKETS[estimator](p_bar, proposals, observed_loss, chosen)


def _standard_packets(p_bar, proposals, loss: float, chosen: int) -> list:
    packets = [UNSELECTED] * len(p_bar)
    packets[chosen] = trusted_packet((True, loss / p_bar[chosen], p_bar[chosen], loss))
    return packets


def _shared_packets(p_bar, proposals, loss: float, chosen: int) -> list:
    played = proposals[chosen]
    # Summed in index order; a full group can overshoot 1 by an ulp.
    prob = 0.0
    for x, d in zip(p_bar, proposals):
        if d == played:
            prob += x
    prob = min(1.0, prob)
    shared = trusted_packet((True, loss / prob, prob, loss))
    return [shared if d == played else UNSELECTED for d in proposals]


PACKETS = {ESTIMATOR_STANDARD: _standard_packets, ESTIMATOR_SHARED: _shared_packets}


def feedback(state: MasterState, chosen: int, observed_loss: float) -> RoundOutcome:
    """One master round on base ``chosen``'s observed loss: ``omd_step``'s step
    on the one-hot standard estimate, without its input checks (only the new
    ``q`` is checked), the mix with uniform and the schedule. Mutates ``state``
    and returns the round's schedule events; ``state.p`` and ``state.p_bar``
    are replaced, not mutated, so the decision-time ``p_bar`` the caller read
    for ``build_packets`` stays valid. The caller resets the bases listed in
    ``restarts`` with the base's new threshold as range parameter.
    """
    if not 0 <= chosen < state.num_bases:
        raise ContractError(f"chosen base {chosen} is not in 0..{state.num_bases - 1}")
    if not 0.0 <= observed_loss <= 1.0:
        raise InvalidLossError(f"observed loss must be in [0, 1], got {observed_loss}")
    weighted = observed_loss / state.p_bar[chosen]
    if state.num_bases == 2:
        _two_base_step(state, chosen, weighted)
    else:
        total = sum(state.p)
        p = [x / total for x in state.p]
        # The one-hot loss (M >= 2 entries) is constant, which leaves p as it is, iff this is 0.
        if weighted != 0.0:
            losses = [0.0] * state.num_bases
            losses[chosen] = weighted
            lam = solve_lambda(p, losses, state.eta)
            q = [1.0 / (1.0 / pi + r * (l - lam)) for pi, r, l in zip(p, state.eta, losses)]
            total = sum(q)
            if not (min(q) > 0.0 and abs(total - 1.0) <= SIMPLEX_HARD_TOL):
                _reject_step(state, q)
            p = [x / total for x in q]
        state.p = p
        # A convex mix of the checked q and the uniform vector needs no check.
        mix = state.gamma / state.num_bases
        p_bar = [(1.0 - state.gamma) * x + mix for x in p]
        total = sum(p_bar)
        state.p_bar = [x / total for x in p_bar]
    doublings = apply_schedule(state)
    restarts = list(doublings) if state.restart_policy == RESTART_ON_DOUBLING else []
    state.t += 1
    return RoundOutcome(doublings, restarts)


def _two_base_step(state: MasterState, chosen: int, weighted: float) -> None:
    """``feedback``'s step and mix at M = 2, on scalars: each sum is ``a + b``
    (``sum`` adds from the int 0, and ``0 + a == a``) and every other
    expression is the generic path's, in index order."""
    p0, p1 = state.p
    total = p0 + p1
    p0 = p0 / total
    p1 = p1 / total
    if weighted != 0.0:
        l0, l1 = (weighted, 0.0) if chosen == 0 else (0.0, weighted)
        lam = solve_lambda([p0, p1], [l0, l1], state.eta)
        r0, r1 = state.eta
        q0 = 1.0 / (1.0 / p0 + r0 * (l0 - lam))
        q1 = 1.0 / (1.0 / p1 + r1 * (l1 - lam))
        total = q0 + q1
        if not (q0 > 0.0 and q1 > 0.0 and abs(total - 1.0) <= SIMPLEX_HARD_TOL):
            _reject_step(state, [q0, q1])
        p0 = q0 / total
        p1 = q1 / total
    state.p = [p0, p1]
    keep = 1.0 - state.gamma
    mix = state.gamma / 2
    b0 = keep * p0 + mix
    b1 = keep * p1 + mix
    total = b0 + b1
    state.p_bar = [b0 / total, b1 / total]


def _reject_step(state: MasterState, q: list[float]) -> None:
    """Raise ``validate_simplex``'s typed error on an OMD step ``q`` that
    failed the guard, naming the round, the rates and ``eta``."""
    try:
        validate_simplex(q)
    except ValueError as exc:  # the failed check's typed error, with its cause
        raise type(exc)(f"round {state.t}: {exc} at rates {state.eta}: the master's "
                        "eta is too large for float precision") from exc


def apply_schedule(state: MasterState) -> list[int]:
    """Threshold check for every base in index order, applied the same round.

    Fires for base i when ``1 / p_bar_i`` exceeds its threshold: the
    threshold jumps to twice the current inverse probability and the base's
    learning rate is multiplied by beta. Returns the fired indices.
    """
    fired, rho, eta = [], state.rho, state.eta
    for i, x in enumerate(state.p_bar):
        inv = 1.0 / x
        if inv > rho[i]:
            rho[i] = 2.0 * inv
            eta[i] = state.beta * eta[i]
            fired.append(i)
    return fired


def tuned_eta(regret_target: float, horizon: int, num_bases: int) -> float:
    """Initial learning rate tuned against a target regret bound.

    ``min(1 / (40 * R * ln T), sqrt(M / T))``: the first branch trades the
    master's own regret against the negative-regret term that cancels a
    linearly-stable base's degradation; the second caps the rate when the
    target is trivially small.
    """
    if not 0.0 < regret_target < math.inf:
        raise ConfigError(f"regret_target must be finite and > 0, got {regret_target}")
    if horizon < 2:
        raise ConfigError(f"horizon must be >= 2, got {horizon}")
    rate = min(
        1.0 / (40.0 * regret_target * math.log(horizon)),
        math.sqrt(num_bases / horizon),
    )
    if not rate > 0.0:
        raise ConfigError(f"regret_target {regret_target} tunes the learning rate to {rate}")
    return rate
