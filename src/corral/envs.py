"""Environments: stateful generators of (context, loss vector) rounds.

Every environment realizes one round per ``next_context`` call (drawing the
context and the full loss vector), after which ``loss_of`` evaluates a
decision against the realized losses. ``loss_of`` does not check the
decision: a base's decision space is checked against its environment when
the base is built. Raw losses are always in [0, 1];
stochastic losses are Bernoulli so that regret baselines stay analytic and
the Beta-Bernoulli posterior of Thompson sampling applies directly. A
stochastic environment owns its generator and draws its uniforms through a
``UniformStream``; an arm's loss is one when its uniform falls below its mean.

The induced-environment wrapper composes an inner environment with random
selection and importance weighting: with probability ``p`` the learner's
loss is revealed inflated by ``1 / p``, otherwise the round emits zero.
On unselected rounds the learner's own decision is replayed to the inner
environment as the arbitrary filler decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, UniformStream, sample_index


@dataclass(frozen=True)
class RegretBaseline:
    """Best fixed decision and its per-round baseline loss.

    ``per_round`` is a constant (expected loss, stochastic environments) or
    a horizon-length array (realized loss of the best fixed decision,
    scripted adversarial environments).
    """

    best_decision: int
    per_round: float | np.ndarray

    def cumulative(self, rounds: int) -> float:
        if isinstance(self.per_round, np.ndarray):
            return float(np.sum(self.per_round[:rounds]))
        return float(self.per_round) * rounds


class Environment:
    """Common surface: arm count, context set size, per-round realization."""

    kind: str = "environment"
    num_arms: int
    num_contexts: int = 1

    def next_context(self) -> int:
        raise NotImplementedError

    def loss_of(self, decision: int) -> float:
        raise NotImplementedError

    def baseline(self) -> RegretBaseline:
        raise NotImplementedError


class StochasticMAB(Environment):
    """Independent Bernoulli losses per arm with fixed means."""

    kind = "stochastic-mab"

    def __init__(self, means: Sequence[float], rng):
        means = [float(m) for m in means]
        if len(means) < 2:
            raise ConfigError(f"need at least 2 arms, got {len(means)}")
        for m in means:
            if not 0.0 <= m <= 1.0:
                raise ConfigError(f"arm mean must be in [0, 1], got {m}")
        self.means = np.array(means)
        self._means = means
        self.num_arms = len(means)
        self.rng = UniformStream(rng)
        self._uniforms: list[float] = []

    def next_context(self) -> int:
        self._uniforms = self.rng.take(self.num_arms)
        return 0

    def loss_of(self, decision: int) -> float:
        return 1.0 if self._uniforms[decision] < self._means[decision] else 0.0

    def baseline(self) -> RegretBaseline:
        best = int(np.argmin(self.means))
        return RegretBaseline(best_decision=best, per_round=float(self.means[best]))


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
        self._t = -1

    def next_context(self) -> int:
        self._t += 1
        if self._t >= self.script.shape[0]:
            raise ConfigError(f"script exhausted after {self.script.shape[0]} rounds")
        return 0

    def loss_of(self, decision: int) -> float:
        return float(self.script[self._t, decision])

    def baseline(self) -> RegretBaseline:
        best = int(np.argmin(self.script.sum(axis=0)))
        return RegretBaseline(best_decision=best, per_round=self.script[:, best].copy())


class StochasticContextual(Environment):
    """I.i.d. contexts with Bernoulli losses conditioned on the context.

    Decisions exchanged at play time are arms; regret baselines are
    computed exactly over a finite policy class (context-to-arm tables),
    by default the evaluation class handed to the constructor.
    """

    kind = "stochastic-contextual"

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
                raise ConfigError(f"invalid evaluation policy {pol}")
        self._cond_means = cond.tolist()
        self.rng = UniformStream(rng)
        self._context = 0
        self._means: list[float] = []
        self._uniforms: list[float] = []

    def next_context(self) -> int:
        self._context = sample_index(self.rng, self.context_probs)
        self._means = self._cond_means[self._context]
        self._uniforms = self.rng.take(self.num_arms)
        return self._context

    def loss_of(self, decision: int) -> float:
        return 1.0 if self._uniforms[decision] < self._means[decision] else 0.0

    def expected_policy_loss(self, policy: Sequence[int]) -> float:
        return float(
            sum(
                p * self.cond_means[c, policy[c]]
                for c, p in enumerate(self.context_probs)
            )
        )

    def baseline(self, policies=None) -> RegretBaseline:
        table = self.eval_policies if policies is None else [tuple(p) for p in policies]
        values = [self.expected_policy_loss(pol) for pol in table]
        best = 0
        for j in range(1, len(values)):
            if values[j] < values[best]:
                best = j
        return RegretBaseline(best_decision=best, per_round=values[best])


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

    def next_context(self) -> int:
        return 0

    def loss_of(self, decision: int) -> float:
        return self.losses[decision]

    def baseline(self) -> RegretBaseline:
        best = self.losses.index(0.1)
        return RegretBaseline(best_decision=best, per_round=0.1)


class InducedEnvironment:
    """Importance-weighting wrapper around an inner environment.

    Each round: draw the selection event with constant probability
    ``sampling_prob``; on success reveal the learner's loss divided by it,
    on failure reveal zero and replay the learner's own decision to the
    inner environment. The probability must lie in (0, 1] -- a zero
    selection probability leaves the weighted loss undefined, so it is
    rejected rather than given ad-hoc semantics.

    ``last_raw_loss`` is the inner loss behind the last ``observe`` call,
    visible to the experimenter only.
    """

    kind = "induced"

    def __init__(self, inner: Environment, sampling_prob: float, rng):
        prob = float(sampling_prob)
        if not 0.0 < prob <= 1.0:
            raise ConfigError(f"sampling probability must be in (0, 1], got {prob}")
        self.inner = inner
        self.sampling_prob = prob
        self.rng = UniformStream(rng)
        self.last_raw_loss: float | None = None

    @property
    def num_arms(self) -> int:
        return self.inner.num_arms

    @property
    def num_contexts(self) -> int:
        return self.inner.num_contexts

    def next_context(self) -> int:
        return self.inner.next_context()

    def observe(self, decision: int) -> tuple[bool, float]:
        """Reveal (selected, emitted weighted loss) for the learner's decision."""
        raw = self.inner.loss_of(decision)
        self.last_raw_loss = raw
        if self.rng.random() < self.sampling_prob:
            return True, raw / self.sampling_prob
        return False, 0.0

    def baseline(self) -> RegretBaseline:
        return self.inner.baseline()
