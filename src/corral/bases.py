"""Base bandit algorithms behind a uniform propose / update / idle / reset contract.

Every base proposes a decision for the current context, consumes one
``FeedbackPacket`` per round (a selected one, or the shared ``UNSELECTED``
packet, which carries nothing but still marks a round), and can be reset
with a new loss-range parameter ``rho``. ``update`` follows the round's
``propose`` and trusts its packet, which ``FeedbackPacket`` has checked.
``idle(context)`` plays a whole round that does not select the base: it has
exactly the effect of ``propose(context)`` then ``update(UNSELECTED)``, and
a base may do it with less work (``Exp4`` only draws its proposal's
uniform). A reset re-initializes all learned state and re-tunes internal
rates for the new range; the component's random stream keeps its position.
A base owns the generator it is given: those that draw only uniforms serve
them from a ``UniformStream``, so the generator itself runs up to
``UniformStream.BLOCK - 1`` draws ahead, and nothing else may draw from it.

``Exp4`` reuses the action mixture ``propose`` samples from, and the
mixture's partial sums it bisects, until its cumulative losses change; for
``Exp3``, ``Exp4`` over the constant policies, that mixture is the policy
distribution itself. ``exp_weights`` depends only on those losses and the
rate, which changes only in ``reset``, and finite losses that compare equal
give bit-identical weights.

Range handling: a base expecting importance-weighted losses in ``[0, rho]``
tunes its internal rate with ``rho`` in the denominator, which is the same
update as rescaling incoming losses into ``[0, 1]`` and tuning for unit
range. Policies are explicit context-to-arm tables (tuples of arm ids), so
empirical risk minimization is exact exhaustive search.

A base's class attribute ``alpha`` is its stability exponent: fed
importance-weighted losses with range bound ``rho``, its regret degrades as
``rho ** alpha`` times its nominal bound. ``None`` means no such promise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from .core import (
    ConfigError,
    FeedbackPacket,
    UNSELECTED,
    UniformStream,
    last_with_mass,
)

Policy = tuple[int, ...]


def exp_weights(cum_loss, rate: float) -> list[float]:
    """Exponential weights ``exp(-rate * L_i)`` over cumulative losses, normalized.

    Losses are shifted by their minimum first, so the largest weight is one
    and the total cannot underflow.
    """
    floor = min(cum_loss)
    weights = [math.exp(-rate * (c - floor)) for c in cum_loss]
    total = sum(weights)
    return [w / total for w in weights]


def _check_range(range_param: float) -> float:
    range_param = float(range_param)
    if range_param < 1.0:
        raise ConfigError(f"range parameter must be >= 1, got {range_param}")
    return range_param


class BaseAlgorithm:
    """Uniform contract all base learners implement."""

    kind: str = "base"
    alpha: float | None = None

    def propose(self, context: int) -> int:
        raise NotImplementedError

    def update(self, packet: FeedbackPacket) -> None:
        raise NotImplementedError

    def idle(self, context: int) -> None:
        """A round that does not select this base."""
        self.propose(context)
        self.update(UNSELECTED)

    def reset(self, range_param: float) -> None:
        raise NotImplementedError


class PolicyLearner(BaseAlgorithm):
    """A learner over a finite policy class of context-to-arm tables.

    The constructor checks the table and indexes it: ``_players[c][a]`` lists,
    in table order, the policies that play arm ``a`` in context ``c``, which
    are the policies a selected round's estimate is charged to.
    """

    def __init__(
        self,
        policies,
        num_arms: int,
        num_contexts: int,
        horizon: int,
        range_param: float,
        rng,
    ):
        self.policies = [tuple(int(a) for a in pol) for pol in policies]
        if len(self.policies) < 2:
            raise ConfigError(f"need at least 2 policies, got {len(self.policies)}")
        for pol in self.policies:
            if len(pol) != num_contexts:
                raise ConfigError(
                    f"policy {pol} does not cover {num_contexts} contexts"
                )
            for a in pol:
                if not 0 <= a < num_arms:
                    raise ConfigError(f"policy action {a} out of range [0, {num_arms})")
        self.num_arms = num_arms
        self.horizon = horizon
        self.rng = UniformStream(rng)
        # Policy ``a`` alone plays arm ``a`` in every context (EXP3's table).
        self._arms_are_policies = self.policies == [(a,) * num_contexts for a in range(num_arms)]
        self._players = [
            [[j for j, pol in enumerate(self.policies) if pol[c] == a] for a in range(num_arms)]
            for c in range(num_contexts)
        ]
        self.reset(range_param)


class Exp4(PolicyLearner):
    """Exponential weights over a finite policy class (contextual).

    The action distribution is the policy-weight mixture pushed through the
    current context; the internal rate is ``sqrt(ln |policies| / (K*T*rho))``.
    A selected round charges its weighted loss over the played arm's
    probability, an unbiased estimate, to every policy playing that arm.
    """

    kind = "exp4"
    alpha = 0.5

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.rate = math.sqrt(
            math.log(len(self.policies))
            / (self.num_arms * self.horizon * self.range_param)
        )
        self.cum_loss = [0.0] * len(self.policies)
        self._last_arm: int | None = None
        self._last_context: int | None = None
        self._last_action_probs: list[float] | None = None
        # propose's policy weights, its action mixture and the mixture's
        # partial sums per context, and a copy of the losses they came from.
        self._policy_probs: list[float] = []
        self._mixtures: dict[int, tuple[list[float], list[float]]] = {}
        self._mixed_of: list[float] | None = None

    def distribution(self) -> list[float]:
        return exp_weights(self.cum_loss, self.rate)

    def propose(self, context: int) -> int:
        # Reused while the losses are equal to those they came from (see the
        # module docstring); keyed on a copy, so direct writes are seen.
        if self.cum_loss != self._mixed_of:
            self._mixed_of = list(self.cum_loss)
            self._policy_probs = self.distribution()
            self._mixtures = {}
        cached = self._mixtures.get(context)
        if cached is None:
            if self._arms_are_policies:
                action_probs = self._policy_probs
            else:
                action_probs = [0.0] * self.num_arms
                for pol, w in zip(self.policies, self._policy_probs):
                    action_probs[pol[context]] += w
            cached = self._mixtures[context] = action_probs, list(accumulate(action_probs))
        action_probs, sums = cached
        arm = bisect_right(sums, self.rng.random())  # ``sample_index``'s pick
        if arm == self.num_arms:
            arm = last_with_mass(action_probs)
        self._last_arm = arm
        self._last_context = context
        self._last_action_probs = action_probs
        return arm

    def idle(self, context: int) -> None:
        # An unselected round changes only the stream's position: the cache
        # and the ``_last_*`` fields are recomputed before anything reads them.
        self.rng.random()

    def update(self, packet: FeedbackPacket) -> None:
        if not packet.selected:
            return
        estimate = packet.weighted_loss / self._last_action_probs[self._last_arm]
        for j in self._players[self._last_context][self._last_arm]:
            self.cum_loss[j] += estimate


class Exp3(Exp4):
    """EXP4 over the constant policies (Auer et al. 2002): policy ``a`` plays
    arm ``a`` in every context, so the action mixture is the policy
    distribution itself (``0.0 + w == w``) and the rate is
    ``sqrt(ln K / (K*T*rho))``. ``num_contexts`` sizes the policy tables
    that a contextual baseline compares against.
    """

    kind = "exp3"

    def __init__(
        self, num_arms: int, horizon: int, range_param: float, rng, num_contexts: int = 1
    ):
        constants = [(a,) * num_contexts for a in range(num_arms)]
        super().__init__(constants, num_arms, num_contexts, horizon, range_param, rng)


class EpochGreedy(PolicyLearner):
    """Explore-first contextual learner with an exact ERM exploit phase.

    Explores uniformly over arms for the first ``T0`` selected rounds, where
    ``T0 = ceil(T^(2/3) * rho^(1/3) * sqrt(K * ln(T * |policies|)))`` clamped
    to ``[1, T]``. Each explored round's doubly importance-weighted loss (the
    packet's weight times its own uniform 1/K) is added, in round order, to
    the running total of every policy that plays the explored arm in its
    context. It then plays the policy of least total for the rest of the
    run, ties to the lowest index. Only selected rounds count toward T0;
    unselected rounds carry no information.
    """

    kind = "epoch-greedy"
    alpha = 1.0 / 3.0

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.explore_rounds = explore_budget(
            self.horizon, self.range_param, self.num_arms, len(self.policies)
        )
        self.totals = [0.0] * len(self.policies)
        self.selected_count = 0
        self.erm_policy: Policy | None = None
        self._last_arm: int | None = None
        self._last_context: int | None = None

    def propose(self, context: int) -> int:
        if self.erm_policy is not None:
            arm = self.erm_policy[context]
        else:
            arm = min(int(self.rng.random() * self.num_arms), self.num_arms - 1)
        self._last_arm = arm
        self._last_context = context
        return arm

    def update(self, packet: FeedbackPacket) -> None:
        if self.erm_policy is not None or not packet.selected:
            return
        weighted = self.num_arms * packet.weighted_loss
        for j in self._players[self._last_context][self._last_arm]:
            self.totals[j] += weighted
        self.selected_count += 1
        if self.selected_count >= self.explore_rounds:
            # The first minimum; totals are sums of finite losses, never NaN.
            best = min(range(len(self.totals)), key=self.totals.__getitem__)
            self.erm_policy = self.policies[best]


def explore_budget(horizon: int, range_param: float, num_arms: int, num_policies: int) -> int:
    """Length of the uniform-exploration phase, clamped to [1, horizon]."""
    raw = (
        horizon ** (2.0 / 3.0)
        * range_param ** (1.0 / 3.0)
        * math.sqrt(num_arms * math.log(horizon * num_policies))
    )
    return max(1, min(horizon, math.ceil(raw)))


class ThompsonSampling(BaseAlgorithm):
    """Beta-Bernoulli posterior sampling over arm losses.

    ``prior`` gives per-arm Beta pseudo-counts ``(ones, zeros)`` over the
    loss: ``ones`` counts loss-1 events, ``zeros`` counts loss-0 events, so
    the posterior mean ``ones / (ones + zeros)`` estimates the arm's mean
    loss. Proposals minimize a posterior sample. Updates happen only on
    selected rounds: the raw loss is recovered from the packet, converted to
    a Bernoulli outcome with success probability equal to the loss (which
    keeps conjugacy and is unbiased), and credited to the played arm.

    The counts are Python floats and each arm's sample is one scalar
    ``rng.beta(a, b)`` call, in arm order. numpy's array call
    ``rng.beta(ones, zeros)`` draws the same values from the same stream (one
    Beta variate per element, in element order) but pays Python-level
    argument checks on every call; ``tests/test_bases.py`` pins the two.
    """

    kind = "thompson"
    alpha = 0.5

    def __init__(self, prior, range_param: float, rng):
        prior = [(float(a), float(b)) for a, b in prior]
        if len(prior) < 2:
            raise ConfigError(f"need at least 2 arms, got {len(prior)}")
        for a, b in prior:
            # NaN and +-inf fail the range comparisons themselves.
            if not (0.0 < a < math.inf and 0.0 < b < math.inf):
                raise ConfigError(
                    f"prior pseudo-counts must be finite and > 0, got ({a}, {b})"
                )
        self.prior = prior
        self.num_arms = len(prior)
        self.rng = rng
        self.reset(range_param)

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.ones = [a for a, _ in self.prior]
        self.zeros = [b for _, b in self.prior]
        self._last_arm: int | None = None

    def propose(self, context: int) -> int:
        beta = self.rng.beta
        draws = [beta(a, b) for a, b in zip(self.ones, self.zeros)]
        # The first entry equal to the minimum, as np.argmin; Beta draws are never NaN.
        arm = draws.index(min(draws))
        self._last_arm = arm
        return arm

    def update(self, packet: FeedbackPacket) -> None:
        if not packet.selected:
            return
        outcome = 1.0 if self.rng.random() < packet.raw_loss else 0.0
        self.ones[self._last_arm] += outcome
        self.zeros[self._last_arm] += 1.0 - outcome


class Ucb1(BaseAlgorithm):
    """Deterministic confidence-index policy on recovered raw losses.

    Pulls each arm once in index order, then plays the arm minimizing
    ``mean_loss + sqrt(2 ln t / n)`` over its selected rounds, ties to the
    lowest index. Promises no stability exponent and is used only in
    demonstration scenarios.
    """

    kind = "ucb1"

    def __init__(self, num_arms: int):
        if num_arms < 2:
            raise ConfigError(f"need at least 2 arms, got {num_arms}")
        self.num_arms = num_arms
        self.reset(1.0)

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.counts = [0] * self.num_arms
        self.totals = [0.0] * self.num_arms
        self.selected_rounds = 0
        self._last_arm: int | None = None

    def propose(self, context: int) -> int:
        for a in range(self.num_arms):
            if self.counts[a] == 0:
                self._last_arm = a
                return a
        t = self.selected_rounds + 1
        best = 0
        best_index = math.inf
        for a in range(self.num_arms):
            idx = self.totals[a] / self.counts[a] + math.sqrt(
                2.0 * math.log(t) / self.counts[a]
            )
            if idx < best_index:
                best_index = idx
                best = a
        self._last_arm = best
        return best

    def update(self, packet: FeedbackPacket) -> None:
        if not packet.selected:
            return
        self.counts[self._last_arm] += 1
        self.totals[self._last_arm] += packet.raw_loss
        self.selected_rounds += 1


class PathologicalBase(BaseAlgorithm):
    """A learner that locks in after one observation and shatters on any other.

    Plays the first arm of its pair on its first selected round and reads
    the recoverable loss value: 0.1 or 0.3 locks it on the first arm, 0.2 or
    0.4 locks it on the second, and any other real value (including zero and
    importance-weighted values) sends it to uniformly random play over the
    pair forever. A locked base keeps its arm while observations stay inside
    the four recognized values and shatters on anything else; unselected
    rounds carry no observation. Standalone it has constant regret; fed
    doctored losses it is unrecoverable, which is the whole point.
    """

    kind = "pathological"

    _LOCK_FIRST = (0.1, 0.3)
    _LOCK_SECOND = (0.2, 0.4)
    _KNOWN = _LOCK_FIRST + _LOCK_SECOND

    def __init__(self, arm_pair: tuple[int, int], rng):
        self.arm_pair = (int(arm_pair[0]), int(arm_pair[1]))
        self.rng = UniformStream(rng)
        self.reset(1.0)

    def reset(self, range_param: float) -> None:
        self.range_param = _check_range(range_param)
        self.locked_arm: int | None = None
        self.shattered = False

    def propose(self, context: int) -> int:
        if self.shattered:
            return self.arm_pair[0] if self.rng.random() < 0.5 else self.arm_pair[1]
        if self.locked_arm is not None:
            return self.locked_arm
        return self.arm_pair[0]

    def update(self, packet: FeedbackPacket) -> None:
        if self.shattered or not packet.selected:
            return
        value = packet.raw_loss
        # Unlocked and not shattered: the first selected round.
        if self.locked_arm is None:
            if value in self._LOCK_FIRST:
                self.locked_arm = self.arm_pair[0]
            elif value in self._LOCK_SECOND:
                self.locked_arm = self.arm_pair[1]
            else:
                self.shattered = True
            return
        if value not in self._KNOWN:
            self.locked_arm = None
            self.shattered = True
