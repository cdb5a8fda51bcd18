"""Seeded simulator of the two-stage separate-then-recycle measurement chain.

Each shot draws a uniformly random preparation, a success/failure branch with
the analytic success probability, and on failure an outcome from the
normalized failure row of the joint distribution. The generator is numpy's
PCG64 (a published, seedable, splittable algorithm); results are fully
deterministic functions of (seed, shots, alphabet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrim import JointDistribution, _failure_or_none, _joint, ud_success
from .ensemble import EnsembleSpec, _frozen, coefficients
from .errors import DegenerateEnsemble, DomainError

RNG_ALGORITHM = "numpy-pcg64"
SHOT_CAP = 10 ** 9


@dataclass(frozen=True)
class MCConfig:
    """Simulation request: alphabet, shot count, and 64-bit unsigned seed."""

    spec: EnsembleSpec
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if isinstance(self.shots, bool) or not isinstance(self.shots, (int, np.integer)):
            raise DomainError(f"shots must be an integer, got {self.shots!r}")
        if self.shots < 1:
            raise DomainError(f"shots must be >= 1, got {self.shots}")
        if self.shots > SHOT_CAP:
            raise DomainError(f"shots {self.shots} exceeds cap {SHOT_CAP}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class MCResult:
    """Count tensor and empirical estimates from one simulation run.

    counts[k][k'][branch] counts shots prepared as k with outcome k' on the
    given branch (index 0 success, 1 failure); empirical_joint is exactly
    counts/shots. empirical_confidence_failure is the fraction of
    failure-branch shots whose outcome matched the preparation (NaN when the
    failure branch never fired). joint is the analytic joint distribution
    sampled. rng_algorithm records the generator used.
    """

    counts: np.ndarray
    empirical_joint: np.ndarray
    empirical_p_s: float
    empirical_confidence_failure: float
    shots: int
    seed: int
    joint: JointDistribution
    rng_algorithm: str = RNG_ALGORITHM


def simulate(config: MCConfig) -> MCResult:
    """Run the chain for config.shots shots.

    Draw order contract (one stream, three fixed-length draws): preparations
    via integers(0, N), branch uniforms via random(), failure-outcome
    uniforms via random(). Failure outcomes come from inverse-CDF sampling of
    the normalized failure columns, with the final cumulative cell forced to
    exactly 1 so no draw can fall off the end. A fully separating alphabet
    has a zero failure block and collapses to an all-success simulation.
    """
    spec = config.spec
    profile = coefficients(spec)
    if profile.degenerate:
        raise DegenerateEnsemble("simulation undefined for a single-state alphabet")
    n = spec.n_states
    p_s = ud_success(profile)
    joint = _joint(profile, _failure_or_none(profile))

    # Per-preparation cumulative distributions over failure outcomes.
    cdfs = np.empty((n, n))
    for k in range(n):
        col = joint.failure[:, k]
        total = float(col.sum())
        cdfs[k] = np.cumsum(col) / total if total > 0.0 else 0.0
        cdfs[k, -1] = 1.0

    rng = np.random.default_rng(config.seed)
    preps = rng.integers(0, n, size=config.shots)
    branch_u = rng.random(config.shots)
    outcome_u = rng.random(config.shots)

    success = branch_u < p_s
    outcomes = preps.copy()
    for k in range(n):
        mask = ~success & (preps == k)
        if mask.any():
            outcomes[mask] = np.searchsorted(cdfs[k], outcome_u[mask], side="right")

    flat = (preps * n + outcomes) * 2 + (~success)
    counts = np.bincount(flat, minlength=n * n * 2).reshape(n, n, 2)

    fail_counts = counts[:, :, 1]
    n_fail = int(fail_counts.sum())
    conf_fail = float(np.trace(fail_counts) / n_fail) if n_fail > 0 else math.nan
    return MCResult(
        counts=_frozen(counts),
        empirical_joint=_frozen(counts / config.shots),
        empirical_p_s=float(counts[:, :, 0].sum() / config.shots),
        empirical_confidence_failure=conf_fail,
        shots=config.shots,
        seed=config.seed,
        joint=joint,
    )
