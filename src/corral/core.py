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
* A round informs only the bases it selects. Every other base receives the
  one immutable ``UNSELECTED`` packet, which carries no loss and no
  probability; so too a selected packet may be handed out again, checked
  once, for the same raw loss and probability (``InducedEnvironment``'s).
* A component owns the generator it is given, and nothing else may draw
  from it. A stochastic environment draws a block of rounds' uniforms in
  one call; any other component that draws uniform doubles serves them
  through ``UniformStream``. Either way the generator runs up to a block
  ahead of what the component has used.

Values are checked once, where they enter: config load, constructors
(``FeedbackPacket.__new__`` among them), ``validate_simplex``, ``omd_step``
and the master's public entries. Values computed from them in a round (the
master's ``p`` and rates, every ``trusted_packet``) are not checked again.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import reprlib
from typing import NamedTuple, Sequence

import numpy as np

# Probability vectors that drift from sum one by up to this much are
# renormalized; anything past it is a solver bug.
SIMPLEX_HARD_TOL = 1e-6

# A config value in a message: its repr, cut to 6 items, 30 characters or 40 digits.
shown = reprlib.Repr().repr


class CorralError(Exception):
    """Base class for all package errors."""


class ConfigError(CorralError, ValueError):
    """A constructor or experiment configuration is invalid."""


class ContractError(CorralError, ValueError):
    """A caller violated an interface contract (wrong shapes, inconsistent packets)."""


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


class _PacketFields(NamedTuple):
    selected: bool
    weighted_loss: float
    sampling_prob: float | None = None
    raw_loss: float | None = None


class FeedbackPacket(_PacketFields):
    """What a base algorithm receives each round: an immutable named tuple, checked when made.

    A selected packet carries the raw loss, the probability
    ``sampling_prob`` of the selection event for this base, and the
    importance-weighted loss ``raw_loss / sampling_prob``. An unselected
    round carries no information: zero weighted loss and neither a raw loss
    nor a probability, so every unselected round is the one ``UNSELECTED``.
    """

    __slots__ = ()

    def __new__(cls, selected, weighted_loss, sampling_prob=None, raw_loss=None):
        if not selected:
            if (weighted_loss, sampling_prob, raw_loss) != (0.0, None, None):
                raise ContractError(
                    "unselected packet must carry zero loss, no raw loss and no probability"
                )
        elif raw_loss is None or sampling_prob is None:
            raise ContractError("selected packet must carry its raw loss and probability")
        elif not 0.0 < sampling_prob <= 1.0:
            raise InvalidProbabilityError(f"sampling_prob must be in (0, 1], got {sampling_prob}")
        elif weighted_loss != raw_loss / sampling_prob:
            raise ContractError(
                "selected packet must satisfy weighted_loss == raw_loss / sampling_prob"
            )
        return tuple.__new__(cls, (selected, weighted_loss, sampling_prob, raw_loss))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; both go through the checks.
        return cls(*iterable)


# Packets are immutable, so every unselected round shares this one.
UNSELECTED = FeedbackPacket(False, 0.0)
trusted_packet = functools.partial(tuple.__new__, FeedbackPacket)  # skips __new__'s checks

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
        if not math.isfinite(x):
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


class UniformStream:
    """A generator's uniform doubles, served from blocks drawn ahead.

    ``Generator.random(n)`` yields exactly the doubles of ``n`` scalar
    ``random()`` calls, so ``random()`` returns the generator's own scalar
    stream. It is the C-level ``__next__`` of a chain over the blocks, which
    are drawn lazily: a stream that never draws leaves its generator alone.
    """

    BLOCK = 1024

    def __init__(self, rng):
        blocks = iter(lambda: rng.random(self.BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


def sample_index(rng, probs: Sequence[float]) -> int:
    """Exact inverse-CDF draw of an index from a probability vector.

    ``rng`` is anything with a ``random()`` returning a float in [0, 1), such
    as a ``UniformStream`` or a numpy ``Generator``.
    """
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(probs):
        acc += w
        if u < acc:
            return i
    return last_with_mass(probs)


def last_with_mass(probs: Sequence[float]) -> int:
    """An inverse-CDF draw past the last partial sum: the last index with mass
    (the last index if none has any)."""
    last = len(probs) - 1
    return next((i for i in range(last, -1, -1) if probs[i] > 0.0), last)


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible generator for a named component stream.

    Streams are keyed by ``(seed, name)`` via a stable hash of the name so
    that every component (master sampling, each base algorithm, environment)
    draws from its own stream regardless of call interleaving.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *words])
