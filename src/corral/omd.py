"""Log-barrier online mirror descent update on the probability simplex.

The mirror map is ``psi(p) = -sum_i ln(p_i) / eta_i`` with one learning rate
per coordinate. Its OMD step has the closed form

    1 / q_i = 1 / p_i + eta_i * (loss_i - lam)

where the normalization multiplier ``lam`` is the root of

    F(lam) = sum_i 1 / (1/p_i + eta_i * (loss_i - lam)) = 1,

which lies in ``[min_i loss_i, max_i loss_i]``. F is strictly increasing in
``lam`` wherever all denominators stay positive, so the root is unique and a
bracketed line search finds it.

Two coordinates take a scalar path, ``_solve_two``: the same line search with
its inner loop unrolled, the same float operations in the same order, so the
same iterates bit for bit. It exists for speed alone: Python 3.11 gives each
comprehension its own frame, and at two entries that overhead, not the
arithmetic, is most of a solve.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import SolverConvergenceError, validate_simplex

TOLERANCE = 1e-12
MAX_ITERATIONS = 200


def solve_lambda(
    p: Sequence[float],
    losses: Sequence[float],
    rates: Sequence[float],
) -> float:
    """Solve the normalization constraint F(lam) = 1 by a guarded line search.

    Bisection on ``[min loss, max loss]`` keeps a valid bracket (any lam with
    a nonpositive denominator counts as F = +inf, since the smallest pole can
    sit inside the bracket); a Newton step is taken whenever it stays inside
    the bracket. Returns once ``|F - 1| <= TOLERANCE`` or once the bracket
    collapses to floating-point resolution, where the best-seen lam is exact
    to one ulp and further iterations cannot improve it. The inputs are
    trusted (``omd_step`` checks them, ``master.feedback`` computes them from
    checked values; losses are ``>= 0``); ``p`` is renormalized unchecked.
    """
    lo = min(losses)
    hi = max(losses)
    if lo == hi:
        # F(c) = sum p_i = 1 exactly for a constant loss vector.
        return float(lo)
    total = sum(p)  # normalize(p), folded into the reciprocals
    if len(p) == 2:
        return _solve_two(1.0 / (p[0] / total), 1.0 / (p[1] / total),
                          rates[0], rates[1], losses[0], losses[1], lo, hi)
    terms = list(zip([1.0 / (x / total) for x in p], rates, losses))
    best_lam = lo
    best_err = math.inf
    lam = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        # 0 <= lo <= hi, so hi is the larger magnitude (no max(): one call per iterate).
        if hi - lo <= 4e-16 * (hi if hi > 1.0 else 1.0):
            return best_lam
        total = 0.0
        slope = 0.0
        for ip, r, l in terms:
            d = ip + r * (l - lam)
            if d <= 0.0:
                # Past a pole F = +inf: lam is above the root.
                hi = lam
                break
            total += 1.0 / d
            slope += r / (d * d)
        else:
            err = total - 1.0
            abs_err = err if err >= 0.0 else -err
            if abs_err <= TOLERANCE:
                return lam
            if abs_err < best_err:
                best_err = abs_err
                best_lam = lam
            if err < 0.0:
                lo = lam
            else:
                hi = lam
            newton = lam - err / slope if slope > 0.0 else lam
            if lo < newton < hi:
                lam = newton
                continue
        lam = 0.5 * (lo + hi)
    raise _not_converged(best_err)


def _solve_two(ip0, ip1, r0, r1, l0, l1, lo: float, hi: float) -> float:
    """``solve_lambda``'s line search over two coordinates, given the
    reciprocals of the renormalized ``p``: its inner loop unrolled in index
    order. ``0.0 + x == x`` for the positive ``1 / d_i``, so the sums and
    every iterate are the generic loop's, bit for bit. Testing both poles
    before the first slope term raises nothing the generic loop would not:
    ``ip_i >= 1``, so a positive ``d_i`` is at least 2**-53 and ``d_i * d_i``
    cannot underflow to a zero divisor."""
    best_lam = lo
    best_err = math.inf
    lam = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        if hi - lo <= 4e-16 * (hi if hi > 1.0 else 1.0):
            return best_lam
        d0 = ip0 + r0 * (l0 - lam)
        d1 = ip1 + r1 * (l1 - lam)
        if d0 <= 0.0 or d1 <= 0.0:
            hi = lam
        else:
            err = (1.0 / d0 + 1.0 / d1) - 1.0
            abs_err = err if err >= 0.0 else -err
            if abs_err <= TOLERANCE:
                return lam
            if abs_err < best_err:
                best_err = abs_err
                best_lam = lam
            if err < 0.0:
                lo = lam
            else:
                hi = lam
            slope = r0 / (d0 * d0) + r1 / (d1 * d1)
            newton = lam - err / slope if slope > 0.0 else lam
            if lo < newton < hi:
                lam = newton
                continue
        lam = 0.5 * (lo + hi)
    raise _not_converged(best_err)


def _not_converged(best_err: float) -> SolverConvergenceError:
    return SolverConvergenceError(
        f"no lambda with |F-1| <= {TOLERANCE} after {MAX_ITERATIONS} iterations "
        f"(best {best_err})"
    )


def omd_step(
    p: Sequence[float],
    losses: Sequence[float],
    rates: Sequence[float],
) -> list[float]:
    """One log-barrier OMD update; returns the next distribution.

    Checks its inputs; equal losses leave the distribution unchanged. The
    output passes ``validate_simplex``, which renormalizes line-search drift.
    """
    p = validate_simplex(p)
    if not (len(p) == len(losses) == len(rates)):
        raise ValueError(
            f"mismatched lengths: p={len(p)}, losses={len(losses)}, rates={len(rates)}"
        )
    for v in losses:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"losses must be finite and >= 0, got {v}")
    for r in rates:
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"rates must be finite and > 0, got {r}")
    if min(losses) == max(losses):
        return p
    lam = solve_lambda(p, losses, rates)
    q = [1.0 / (1.0 / pi + r * (l - lam)) for pi, r, l in zip(p, rates, losses)]
    return validate_simplex(q)


def bregman_log_barrier(
    rates: Sequence[float], p: Sequence[float], q: Sequence[float]
) -> float:
    """Bregman divergence of the log-barrier map: sum_i h(p_i/q_i) / eta_i.

    Here ``h(y) = y - 1 - ln(y)`` is nonnegative and zero only at y = 1, so
    the divergence is zero iff p == q. Computed via log1p for accuracy near
    the diagonal.
    """
    p = validate_simplex(p)
    q = validate_simplex(q)
    if len(rates) != len(p):
        raise ValueError("rates must match the distribution length")
    total = 0.0
    for r, pi, qi in zip(rates, p, q):
        d = pi / qi - 1.0
        total += (d - math.log1p(d)) / r
    return total
