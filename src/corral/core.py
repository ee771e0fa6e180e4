"""Shared domain types and contracts for environments, base algorithms and the master.

Conventions used across the package:

* A *decision* is a nonnegative integer index into a finite decision space
  (an arm, or an action produced by a policy table).
* A *context* is a nonnegative integer index into a finite context set; the
  empty context is the sentinel id ``0`` with a context set of size one.
* Raw losses are floats in ``[0, 1]``; importance-weighted losses live in
  ``[0, rho]`` where ``rho`` is the active range bound.
* Probability vectors are plain ``list[float]`` on the simplex with strictly
  positive entries (the log-barrier map is undefined at zero), normalized to
  sum to one within ``1e-9``.

Values are checked once, where they enter: config load, constructors,
``importance_weight``, ``validate_simplex``, ``omd.omd_step`` and the
master's ``choose``/``feedback``. Values computed from them inside a round
are not checked again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Probability vectors that drift from sum one by up to this much are
# renormalized; anything past it is a solver bug.
SIMPLEX_HARD_TOL = 1e-6


class CorralError(Exception):
    """Base class for all package errors."""


class ConfigError(CorralError, ValueError):
    """A constructor or experiment configuration is invalid."""


class ContractError(CorralError, ValueError):
    """A caller violated an interface contract (wrong shapes, dead state)."""


class InvalidLossError(CorralError, ValueError):
    """A raw loss fell outside [0, 1]."""


class InvalidProbabilityError(CorralError, ValueError):
    """A probability fell outside (0, 1]."""


class DegenerateDistributionError(CorralError, ValueError):
    """A probability vector had a zero or negative entry."""


class NormalizationDriftError(CorralError, ValueError):
    """A probability vector drifted too far from sum one (a solver bug)."""


class SolverConvergenceError(CorralError, RuntimeError):
    """The normalization line search failed to converge."""


class IntegrityError(CorralError, RuntimeError):
    """Logged experiment data is incomplete or inconsistent."""


@dataclass(frozen=True)
class FeedbackPacket:
    """What a base algorithm receives each round.

    ``weighted_loss`` is the importance-weighted loss (zero when not
    selected), ``sampling_prob`` the probability of the selection event for
    this base, and ``raw_loss`` recovers ``weighted_loss * sampling_prob``;
    it is present iff ``selected``.
    """

    selected: bool
    weighted_loss: float
    sampling_prob: float
    raw_loss: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_prob <= 1.0:
            raise InvalidProbabilityError(
                f"sampling_prob must be in (0, 1], got {self.sampling_prob}"
            )
        if self.selected:
            if self.raw_loss is None:
                raise ContractError("selected packet must carry a recoverable raw loss")
            if self.weighted_loss != self.raw_loss / self.sampling_prob:
                raise ContractError(
                    "selected packet must satisfy weighted_loss == raw_loss / sampling_prob"
                )
        else:
            if self.weighted_loss != 0.0:
                raise ContractError("unselected packet must carry zero weighted loss")
            if self.raw_loss is not None:
                raise ContractError("unselected packet cannot carry a recoverable raw loss")


@dataclass(frozen=True)
class StabilityCertificate:
    """Promised regret degradation under importance-weighted feedback.

    Regret under a wrapped range bound ``rho`` degrades as ``rho ** alpha``
    times the algorithm's nominal regret bound.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")


def importance_weight(raw: float, prob: float, selected: bool) -> FeedbackPacket:
    """Build the importance-weighted feedback packet for one round.

    On selected rounds the weighted loss is ``raw / prob``; unselected
    rounds carry zero loss (the round still happened, with no information).
    """
    # NaN and +-inf fail the range comparisons themselves.
    if not 0.0 <= raw <= 1.0:
        raise InvalidLossError(f"raw loss must be in [0, 1], got {raw}")
    if not 0.0 < prob <= 1.0:
        raise InvalidProbabilityError(f"probability must be in (0, 1], got {prob}")
    if selected:
        return FeedbackPacket(True, raw / prob, prob, raw)
    return FeedbackPacket(False, 0.0, prob, None)


def validate_simplex(p: Sequence[float]) -> list[float]:
    """Check and renormalize a probability vector.

    Entries must be strictly positive and finite; the sum may drift from one
    by at most ``SIMPLEX_HARD_TOL`` (the line search is iterative, so tiny
    drift is expected). Larger drift signals a solver bug and is not
    recoverable. The checked vector goes through ``normalize``.
    """
    entries = [float(x) for x in p]
    if not entries:
        raise DegenerateDistributionError("empty probability vector")
    for x in entries:
        if not np.isfinite(x):
            raise DegenerateDistributionError(f"non-finite entry {x}")
        if x <= 0.0:
            raise DegenerateDistributionError(f"entries must be strictly positive, got {x}")
    total = sum(entries)
    if abs(total - 1.0) > SIMPLEX_HARD_TOL:
        raise NormalizationDriftError(f"sum {total} drifted beyond {SIMPLEX_HARD_TOL}")
    return normalize(entries)


def normalize(p: Sequence[float]) -> list[float]:
    """Divide a vector built from checked values by its sum, unchecked."""
    total = sum(p)
    return [x / total for x in p]


def sample_index(rng, probs: Sequence[float]) -> int:
    """Exact inverse-CDF draw of an index from a probability vector."""
    u = float(rng.random())
    acc = 0.0
    for i, w in enumerate(probs):
        acc += w
        if u < acc:
            return i
    # u landed in the float shortfall past the accumulated sum; return the
    # last index that carries mass.
    for i in range(len(probs) - 1, -1, -1):
        if probs[i] > 0.0:
            return i
    return len(probs) - 1


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible generator for a named component stream.

    Streams are keyed by ``(seed, name)`` via a stable hash of the name so
    that every component (master sampling, each base algorithm, environment)
    draws from its own stream regardless of call interleaving.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *words])
