"""Environments: oblivious sources of (context, loss vector) rounds.

Every environment is oblivious: its contexts and losses do not depend on
what is played. ``rounds(horizon)`` realizes them as ``(context, losses)``
pairs, ``losses`` holding every arm's loss, ``BLOCK`` rounds at a time. The
player reads its decision's loss unchecked: a base's decision space is
checked against its environment when the base is built. Raw losses are
always in [0, 1]; stochastic losses are Bernoulli so that regret baselines
stay analytic and the Beta-Bernoulli posterior of Thompson sampling applies
directly. A stochastic environment owns its generator and draws a block's
uniforms in one call, round by round: the context's uniform, then one per
arm, whose loss is one when its uniform falls below its mean. Every
environment's ``baseline(policies)`` returns the per-round loss of the best
of a class of context-to-arm tables (a one-context table is an arm): a float,
or a script's best float64 column. The stochastic multi-armed environment is
the contextual one with one context, and draws no context uniform.

``InducedEnvironment`` is the selection step of the induced environment:
with probability ``p`` a round's raw loss is revealed inflated by ``1 / p``,
otherwise nothing. ``selects()`` draws whether a round is selected, and
``observe(raw)`` makes the packet a selected round shows its base.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .core import ConfigError, FeedbackPacket, UniformStream, shown, trusted_packet

# Rounds an environment realizes at a time.
BLOCK = 1024


class Environment:
    """Common surface: arm count, context set size, the realized rounds, and
    the per-round loss of a comparator class's best decision (``None``:
    every arm, or a contextual environment's own ``policies``)."""

    kind: str = "environment"
    num_arms: int
    num_contexts: int = 1

    def rounds(self, horizon: int) -> Iterator[tuple[int, Sequence[float]]]:
        """The first ``horizon`` rounds as ``(context, losses)`` pairs: each
        class's ``_block(lo, hi)`` realizes rounds ``lo`` to ``hi - 1`` when
        round ``lo`` is reached."""
        blocks = (self._block(lo, min(lo + BLOCK, horizon)) for lo in range(0, horizon, BLOCK))
        return itertools.chain.from_iterable(blocks)

    def baseline(self, policies=None) -> float | np.ndarray:
        raise NotImplementedError


class AdversarialMAB(Environment):
    """Oblivious scripted losses: row t of the script at round t."""

    kind = "adversarial-mab"

    def __init__(self, script):
        script = np.asarray(script, dtype=np.float64)
        if script.ndim != 2 or script.shape[0] < 1 or script.shape[1] < 2:
            raise ConfigError(f"script must be a T x K matrix, got shape {script.shape}")
        if np.any(script < 0.0) or np.any(script > 1.0) or not np.all(np.isfinite(script)):
            raise ConfigError("script entries must lie in [0, 1]")
        self.script = script
        self.num_arms = script.shape[1]

    def _block(self, lo, hi):
        return zip(itertools.repeat(0), self.script[lo:hi].tolist())

    def baseline(self, policies=None) -> np.ndarray:
        # The class's arm with the least total loss; ties go to the lowest arm.
        arms = range(self.num_arms) if policies is None else sorted({a for (a,) in policies})
        best = arms[int(np.argmin(self.script.sum(axis=0)[arms]))]
        return self.script[:, best].copy()


class StochasticContextual(Environment):
    """I.i.d. contexts with Bernoulli losses conditioned on the context.

    Decisions exchanged at play time are arms; ``baseline(policies)`` is
    exact over a finite policy class (context-to-arm tables). The
    constructor's ``policies`` are only that call's default: the harness
    always passes the union of its bases' classes (``union_baseline``).
    """

    kind = "stochastic-contextual"
    # Uniforms a round draws for its context, before one per arm.
    context_draws = 1

    def __init__(self, context_probs: Sequence[float], cond_means, policies, rng):
        probs = [float(x) for x in context_probs]
        # NaN fails ``x > 0``; +inf fails the sum check.
        if not probs or not all(x > 0.0 for x in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError("context distribution must be positive and sum to 1")
        cond = np.asarray(cond_means, dtype=np.float64)
        if cond.ndim != 2 or cond.shape[0] != len(probs) or cond.shape[1] < 2:
            raise ConfigError(
                f"conditional means must be contexts x arms, got shape {cond.shape}"
            )
        if not np.all((cond >= 0.0) & (cond <= 1.0)):
            raise ConfigError("conditional means must lie in [0, 1]")
        self.context_probs = probs
        self.cond_means = cond
        self.num_contexts = len(probs)
        self.num_arms = cond.shape[1]
        self.eval_policies = [tuple(int(a) for a in pol) for pol in policies]
        for pol in self.eval_policies:
            if len(pol) != self.num_contexts or any(
                not 0 <= a < self.num_arms for a in pol
            ):
                raise ConfigError(f"invalid evaluation policy {shown(pol)}")
        self.rng = rng

    def _block(self, lo, hi):
        u = self.rng.random((hi - lo, self.context_draws + self.num_arms))
        # ``sample_index``'s pick (``cumsum`` adds in order): the first context
        # whose partial sum exceeds u, or the last (every context has mass) for
        # a u in the shortfall past the last sum; one context whatever u is.
        contexts = np.searchsorted(np.cumsum(self.context_probs), u[:, 0], side="right")
        contexts = np.minimum(contexts, self.num_contexts - 1)
        losses = u[:, self.context_draws:] < self.cond_means[contexts]
        return zip(contexts.tolist(), losses.astype(np.float64).tolist())

    def baseline(self, policies=None) -> float:
        # The least expected loss of a policy in the class.
        table = self.eval_policies if policies is None else policies
        return min(
            float(sum(p * self.cond_means[c, policy[c]] for c, p in enumerate(self.context_probs)))
            for policy in table
        )


class StochasticMAB(StochasticContextual):
    """Independent Bernoulli losses per arm with fixed means: the contextual
    environment with one context, whose default class is the constant
    policies. A round draws no context, only one uniform per arm."""

    kind = "stochastic-mab"
    context_draws = 0

    def __init__(self, means: Sequence[float], rng):
        if len(means) < 2:
            raise ConfigError(f"stochastic-mab needs at least 2 arms, got {len(means)}")
        if not all(0.0 <= m <= 1.0 for m in means):
            raise ConfigError(f"means must lie in [0, 1], got {shown(list(means))}")
        super().__init__([1.0], [means], [(a,) for a in range(len(means))], rng)


class LowerBoundEnv(Environment):
    """Four deterministic actions split into a cheap pair and a dear pair.

    At construction one of two symmetric environments is drawn uniformly:
    either actions {0, 1} carry the losses {0.1, 0.2} and actions {2, 3}
    carry {0.3, 0.4}, or the pairs are swapped; the assignment inside each
    pair is also uniform. Losses are constant for the rest of the run, so a
    learner that identifies the 0.1 action once never regrets again.
    """

    kind = "lower-bound"

    def __init__(self, rng):
        self.num_arms = 4
        cheap_first = float(rng.random()) < 0.5
        flip_cheap = float(rng.random()) < 0.5
        flip_dear = float(rng.random()) < 0.5
        cheap = (0.2, 0.1) if flip_cheap else (0.1, 0.2)
        dear = (0.4, 0.3) if flip_dear else (0.3, 0.4)
        if cheap_first:
            self.losses = cheap + dear
        else:
            self.losses = dear + cheap
        self.cheap_pair = (0, 1) if cheap_first else (2, 3)

    def _block(self, lo, hi):
        return itertools.repeat((0, self.losses), hi - lo)

    def baseline(self, policies=None) -> float:
        losses = self.losses if policies is None else [self.losses[a] for (a,) in policies]
        return min(losses)


class InducedEnvironment:
    """The selection step of the induced environment.

    Each round's ``selects()`` draws the selection event, one uniform, with
    constant probability ``sampling_prob``. A selected round's ``observe``
    returns the packet of the raw loss divided by it: for 1.0 and +0.0 the
    one built and checked here, for any other loss (-0.0 among them) a new
    ``trusted_packet``. An unselected round shows its base nothing. The
    probability must lie in (0, 1] -- a zero selection probability leaves
    the weighted loss undefined, so it is rejected rather than given ad-hoc
    semantics.
    """

    def __init__(self, sampling_prob: float, rng):
        prob = float(sampling_prob)
        if not 0.0 < prob <= 1.0:
            raise ConfigError(f"sampling probability must be in (0, 1], got {prob}")
        self.sampling_prob = prob
        self.rng = UniformStream(rng)
        self.reused = {raw: FeedbackPacket(True, raw / prob, prob, raw) for raw in (0.0, 1.0)}

    def selects(self) -> bool:
        """Whether this round is selected; at probability one, always."""
        return self.rng.random() < self.sampling_prob

    def observe(self, raw: float) -> FeedbackPacket:
        """The packet a selected round's raw loss shows the base."""
        if raw == 1.0 or (raw == 0.0 and math.copysign(1.0, raw) > 0.0):  # not -0.0
            return self.reused[raw]
        p = self.sampling_prob
        return trusted_packet((True, raw / p, p, raw))
