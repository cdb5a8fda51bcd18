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
    alpha^2 interval, kink_below <= alpha_sq < kink_above (kink_below None
    below the first kink); p_s is the selected root clamped to [0, 1], and
    q_tilde = (1 - p_s) * exp(3*alpha^2/2) >= 1 is its branch value.
    """

    alpha_sq: float
    berry_phase: float
    q_tilde: float
    roots: tuple[float, float, float]
    selected: int
    p_s: float
    kink_below: float | None
    kink_above: float


def solve_n3(alpha_sq: float) -> CubicSolution:
    """Evaluate the three closed-form roots and select the physical branch.

    theta = sqrt(3)*alpha^2/2 is a third of the phase; the physical branch is
    3 for theta in [0, 2*pi/3), 1 on [2*pi/3, 4*pi/3), 2 on [4*pi/3, 2*pi),
    then periodic, so the branch follows kinks_n3's count of kinks at or
    below alpha^2. The schedule is the closed-form statement of "the root
    that stays in [1, 2]", so no runtime continuity tracking is needed.
    """
    a2 = EnsembleSpec(3, alpha_sq).alpha_sq
    theta = math.sqrt(3.0) * a2 / 2.0
    phi = 3.0 * theta
    damp = math.exp(-1.5 * a2)
    # The q roots of q^3 - 3q + 2*cos(3*theta) = 0, one per branch.
    c, s = math.cos(theta), math.sin(theta)
    qs = (-2.0 * c, c - math.sqrt(3.0) * s, c + math.sqrt(3.0) * s)
    roots = tuple(1.0 - damp * q for q in qs)
    m = _kink_count(a2)
    selected = _BRANCH_CYCLE[m % 3]
    q = qs[selected - 1]
    # 1 - q*damp cancels at small alpha^2; the clamp bounds its rounding.
    p_s = min(1.0, max(0.0, roots[selected - 1]))
    return CubicSolution(alpha_sq=a2, berry_phase=phi, q_tilde=q,
                         roots=roots, selected=selected, p_s=p_s,
                         kink_below=m * KINK_PERIOD if m else None,
                         kink_above=(m + 1) * KINK_PERIOD)


def _kink_count(a2: float) -> int:
    """How many kinks m * KINK_PERIOD, m >= 1, lie at or below a2 >= 0. The
    quotient rounds, so m starts one past its floor and steps down."""
    m = math.floor(a2 / KINK_PERIOD) + 1
    while m * KINK_PERIOD > a2:
        m -= 1
    return m


def kinks_n3(alpha_sq_max: float) -> np.ndarray:
    """Ascending kink locations m * KINK_PERIOD with m >= 1, up to the bound,
    as a read-only float array. The bound is checked as every alpha^2 is,
    by EnsembleSpec, and must also be > 0."""
    bound = EnsembleSpec(3, alpha_sq_max).alpha_sq
    if bound == 0.0:
        raise DomainError("alpha_sq_max must be > 0, got 0.0")
    kinks = np.arange(1.0, _kink_count(bound) + 1)     # whole numbers, exact in a double
    kinks *= KINK_PERIOD
    return _frozen(kinks)
