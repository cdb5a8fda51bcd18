"""Seeded simulator of the two-stage separate-then-recycle measurement chain.

A run of S shots is summarised by its count tensor over (preparation,
outcome, branch), and that tensor is drawn exactly rather than shot by shot:
the preparation counts are multinomial(S, uniform), and given n_k shots of
preparation k, its (outcome, branch) counts are multinomial(n_k, column k of
the joint distribution). numpy samples each multinomial by conditional
binomials (Davis, CSDA 16, 205 (1993)), so memory is O(N^2) and the cost
does not grow with S. The generator is numpy's PCG64; results are
deterministic functions of (seed, shots, alphabet) for a given numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrim import JointDistribution, joint_distribution
from .ensemble import EnsembleSpec, _frozen, coefficients
from .errors import DegenerateEnsemble, DomainError

RNG_ALGORITHM = "numpy-pcg64-multinomial-v2"
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
    given branch (index 0 success, 1 failure) and sums to exactly shots;
    empirical_joint is exactly counts/shots. empirical_confidence_failure is
    the fraction of failure-branch shots whose outcome matched the
    preparation (NaN when the failure branch never fired). joint is the
    analytic joint distribution sampled. rng_algorithm names the generator
    and the draw order.
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
    """Draw the count tensor of config.shots shots of the chain.

    Draw order contract (one stream, two calls): the preparation counts via
    multinomial(shots, [1/N] * N), then all N rows at once via
    multinomial(preps, cells), where row k of cells is column k of the joint
    laid out as [outcome, branch] and normalised to sum to 1. A fully
    separating alphabet has a zero failure block, so every shot succeeds.
    """
    spec = config.spec
    if coefficients(spec).degenerate:
        raise DegenerateEnsemble("simulation undefined for a single-state alphabet")
    n = spec.n_states
    joint = joint_distribution(spec)

    cells = np.stack([joint.success.T, joint.failure.T], axis=-1).reshape(n, 2 * n)
    cells /= cells.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(config.seed)
    preps = rng.multinomial(config.shots, np.full(n, 1.0 / n))
    counts = rng.multinomial(preps, cells).reshape(n, n, 2)

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
