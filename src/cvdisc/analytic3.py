"""Closed-form separation success probability for the three-state alphabet.

For N = 3 the optimal separation success probability solves a cubic: with the
scaled failure probability q = (1 - p_s) * exp(3*alpha^2/2) and the cyclic
overlap phase phi = 3*sqrt(3)*alpha^2/2, the condition that the scaled Gram
matrix of the failure set drops rank reads q^3 - 3q + 2*cos(phi) = 0. The
physical branch is the unique root with q in [1, 2]; it switches branch every
time phi passes a multiple of 2*pi, producing kinks in p_s(alpha^2) at
alpha^2 = 4*pi*m/(3*sqrt(3)) where the two smallest coefficients cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSpec, _frozen
from .errors import DomainError

# Spacing of the coefficient-degeneracy kinks: the phase phi advances by 2*pi
# as alpha^2 advances by this amount.
KINK_PERIOD = 4.0 * math.pi / (3.0 * math.sqrt(3.0))

# Branch labels cycle (3, 1, 2) on successive kink intervals.
_BRANCH_CYCLE = (3, 1, 2)


@dataclass(frozen=True)
class CubicSolution:
    """The three cubic roots and the selected physical branch.

    roots holds (p_s_1, p_s_2, p_s_3) from the trigonometric closed forms;
    selected is the 1-based branch label whose root is physical on this
    alpha^2 interval; q_tilde = (1 - p_s) * exp(3*alpha^2/2) >= 1.
    """

    alpha_sq: float
    berry_phase: float
    q_tilde: float
    roots: tuple[float, float, float]
    selected: int
    p_s: float


def _branch_q(theta: float, branch: int) -> float:
    # q roots of q^3 - 3q + 2*cos(3*theta) = 0, evaluated without the
    # cancellation that 1 - p_s would suffer at large alpha^2.
    if branch == 1:
        return -2.0 * math.cos(theta)
    if branch == 2:
        return 2.0 * math.cos(theta + math.pi / 3.0)
    return 2.0 * math.cos(theta - math.pi / 3.0)


def solve_n3(alpha_sq: float) -> CubicSolution:
    """Evaluate the three closed-form roots and select the physical branch.

    theta = sqrt(3)*alpha^2/2 is a third of the phase; the physical branch is
    3 for theta in [0, 2*pi/3), 1 on [2*pi/3, 4*pi/3), 2 on [4*pi/3, 2*pi),
    then periodic. The schedule is the closed-form statement of "the root
    that stays in [1, 2]", so no runtime continuity tracking is needed.
    """
    a2 = EnsembleSpec(3, alpha_sq).alpha_sq
    theta = math.sqrt(3.0) * a2 / 2.0
    phi = 3.0 * theta
    damp = math.exp(-1.5 * a2)
    roots = (
        1.0 + 2.0 * damp * math.cos(theta),
        1.0 - damp * (math.cos(theta) - math.sqrt(3.0) * math.sin(theta)),
        1.0 - damp * (math.cos(theta) + math.sqrt(3.0) * math.sin(theta)),
    )
    selected = _BRANCH_CYCLE[int(theta // (2.0 * math.pi / 3.0)) % 3]
    q = _branch_q(theta, selected)
    # cos(pi/3) rounds a hair above 1/2, so the vacuum would land at -2e-16.
    p_s = min(1.0, max(0.0, 1.0 - q * damp))
    return CubicSolution(alpha_sq=a2, berry_phase=phi, q_tilde=q,
                         roots=roots, selected=selected, p_s=p_s)


def kinks_n3(alpha_sq_max: float) -> np.ndarray:
    """Ascending kink locations m * KINK_PERIOD with m >= 1, up to the bound,
    as a read-only float array. The bound is checked as every alpha^2 is,
    by EnsembleSpec, and must also be > 0."""
    bound = EnsembleSpec(3, alpha_sq_max).alpha_sq
    if bound == 0.0:
        raise DomainError("alpha_sq_max must be > 0, got 0.0")
    # The quotient and the products round, so the rule m * KINK_PERIOD <=
    # bound may hold for one m more or one less than the quotient's floor.
    m = math.floor(bound / KINK_PERIOD) + 1
    while m * KINK_PERIOD > bound:
        m -= 1
    kinks = np.arange(1.0, m + 1)     # whole numbers, exact in a double
    kinks *= KINK_PERIOD
    return _frozen(kinks)
