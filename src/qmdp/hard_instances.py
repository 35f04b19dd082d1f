"""Source/sink MDP families with closed-form optima.

These instances make accurate value estimation equivalent to telling a
return probability p0 from p0 + alpha, which is as hard as approximate
counting; they double as exactly-solvable fixtures (v* at the source is
1 / (1 - gamma * p) per arm) and as the substrate for the query-scaling
experiments.

The gap constant defaults to 9 rather than the smaller constant sometimes
quoted for this construction: with alpha = 3*eps/horizon^2 the value gap at
horizon 10, eps 1 evaluates to ~0.872 < 2*eps, too small to make an
eps-accurate solver distinguish the arms, while alpha = 9*eps/horizon^2
clears 2*eps across the whole supported (gamma, eps) grid and preserves the
Theta(eps/horizon^2) scaling.  The constant stays selectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError
from .mdp import Mdp

__all__ = [
    "HardInstanceSpec",
    "two_state_chain",
    "multi_arm_instance",
    "tiled_instance",
    "value_gap",
    "closed_form_arm_value",
    "DEFAULT_GAP_CONSTANT",
    "MAX_DENSE_BYTES",
]

DEFAULT_GAP_CONSTANT = 9.0
MAX_DENSE_BYTES = 2**30  # largest float64 transition tensor a spec may ask for


@dataclass(frozen=True)
class HardInstanceSpec:
    """Parameters of the multi-arm source/sink family."""

    gamma: float
    num_actions: int
    eps: float
    large_arms: frozenset = field(default_factory=frozenset)
    c_alpha: float = DEFAULT_GAP_CONSTANT
    copies: int = 1

    def __post_init__(self):
        object.__setattr__(self, "large_arms", frozenset(int(a) for a in self.large_arms))
        if not (0.9 <= self.gamma < 1.0):
            raise PreconditionError(
                f"gamma must be in [0.9, 1) (horizon >= 10), got {self.gamma}"
            )
        if self.num_actions < 1:
            raise PreconditionError("num_actions must be at least 1")
        if self.c_alpha <= 0:
            raise PreconditionError("c_alpha must be positive")
        horizon = self.horizon
        if not (0.0 < self.eps < horizon / self.c_alpha):
            raise PreconditionError(
                f"eps must lie in (0, horizon/c_alpha) = (0, {horizon / self.c_alpha:.6g}) "
                f"so that p0 + alpha < 1; got {self.eps}"
            )
        if any(a < 0 or a >= self.num_actions for a in self.large_arms):
            raise PreconditionError("large_arms must be valid action indices")
        if self.copies < 1:
            raise PreconditionError("copies must be at least 1")
        size = 8 * (2 * int(self.copies)) ** 2 * int(self.num_actions)  # no int64 wrap
        if size > MAX_DENSE_BYTES:
            raise PreconditionError(f"copies must keep the dense transition tensor within 2^30 "
                                    f"bytes; 8*(2*copies)^2*num_actions = {size}")

    @property
    def horizon(self) -> float:
        return 1.0 / (1.0 - self.gamma)

    @property
    def p_small(self) -> float:
        return 1.0 - 1.0 / self.horizon

    @property
    def alpha(self) -> float:
        return self.c_alpha * self.eps / self.horizon**2

    @property
    def p_large(self) -> float:
        return self.p_small + self.alpha

    def arm_probability(self, action: int) -> float:
        return self.p_large if action in self.large_arms else self.p_small

    def provenance(self) -> dict:
        return {
            "gamma": self.gamma,
            "eps": self.eps,
            "c_alpha": self.c_alpha,
            "large_arms": sorted(self.large_arms),
            "copies": self.copies,
        }


def closed_form_arm_value(gamma: float, p: float) -> float:
    """Source value of a reward-1 arm that returns to the source w.p. p."""
    return 1.0 / (1.0 - gamma * p)


def two_state_chain(gamma: float, p: float) -> Mdp:
    """Single-action source/sink gadget: reward 1 at the source, return to the
    source with probability p, otherwise absorb in the zero-reward sink.

    Closed form: v*(source) = 1 / (1 - gamma * p), v*(sink) = 0.
    """
    if not (0.0 <= gamma < 1.0):
        raise PreconditionError(f"gamma must be in [0, 1), got {gamma}")
    if not (0.0 <= p <= 1.0):
        raise PreconditionError(f"p must be in [0, 1], got {p}")
    transitions = np.array([[[p, 1.0 - p]], [[0.0, 1.0]]])
    rewards = np.array([[1.0], [0.0]])
    return Mdp(transitions=transitions, rewards=rewards, discount=gamma)


def multi_arm_instance(spec: HardInstanceSpec) -> Mdp:
    """Source with one arm per action: large arms return with p0 + alpha, the
    rest with p0; the sink absorbs with zero reward under every action.
    The single-copy :func:`tiled_instance`, whatever ``spec.copies`` says."""
    return tiled_instance(replace(spec, copies=1))


def tiled_instance(spec: HardInstanceSpec) -> Mdp:
    """Block-diagonal union of ``spec.copies`` identical source/sink gadgets
    (2 states per copy, no cross-copy transitions), each with the spec's
    large arms."""
    a_n = spec.num_actions
    s_n = 2 * spec.copies
    transitions = np.zeros((s_n, a_n, s_n))
    rewards = np.zeros((s_n, a_n))
    for j in range(spec.copies):
        src, sink = 2 * j, 2 * j + 1
        for a in range(a_n):
            p = spec.arm_probability(a)
            transitions[src, a, src] = p
            transitions[src, a, sink] = 1.0 - p
            transitions[sink, a, sink] = 1.0
        rewards[src, :] = 1.0
    return Mdp(transitions=transitions, rewards=rewards, discount=spec.gamma)


def value_gap(gamma: float, eps: float, c_alpha: float = DEFAULT_GAP_CONSTANT) -> float:
    """Exact source-value gap between a large arm and a small arm.

    The construction is only useful when this is at least 2*eps, the margin
    at which an eps-accurate value estimate distinguishes the arm types.
    """
    spec = HardInstanceSpec(gamma=gamma, num_actions=1, eps=eps, c_alpha=c_alpha)
    return closed_form_arm_value(gamma, spec.p_large) - closed_form_arm_value(
        gamma, spec.p_small
    )
