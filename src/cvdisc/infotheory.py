"""Mutual-information quantities for the recycled discrimination strategy.

The preparation is uniform over N states, so the prior entropy is log2(N).
Unambiguous discrimination alone conveys p_s * log2(N) bits; recycling the
failure branch through a minimum-error measurement recovers part of the
remaining uncertainty, quantified by the failure-posterior entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrim import (
    FailureProfile,
    JointDistribution,
    _failure_or_none,
    _failure_spectrum,
    ud_success,
)
from .ensemble import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_ZERO_THRESHOLD,
    CoefficientProfile,
    EnsembleSpec,
    _frozen,
    coefficients,
)
from .errors import DomainError


@dataclass(frozen=True)
class PosteriorVector:
    """Posterior p(prepared k | outcome 0, failure branch); entry 0 is maximal."""

    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class InfoReport:
    """Mutual informations in bits: unambiguous-only, recycled, and their gap."""

    i_ud: float
    i_ir: float
    gain: float
    h_fail: float


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits with the 0 * log2(0) = 0 convention."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("probs must be a nonempty 1-D vector")
    if np.any(p < -1e-12):
        raise DomainError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    p = np.clip(p, 0.0, None)
    nz = p > 0.0
    return float(-(p[nz] * np.log2(p[nz])).sum())


def failure_posterior(fail: FailureProfile) -> PosteriorVector:
    """Posterior over preparations given outcome 0 on the failure branch.

    probs[k] = (1/N) * |sum_l w^(-kl) b_l|^2, the N entries being one FFT of
    b. By symmetry the outcome-k posterior is this vector rotated by k, so
    one vector carries the whole failure branch.
    """
    probs = _failure_spectrum(fail.b)
    # Parseval gives sum(probs) = sum(b^2), which the exact-zeroing of
    # band-degenerate entries leaves marginally below 1 near orthogonality;
    # a posterior must still sum to 1.
    probs /= probs.sum()
    return PosteriorVector(probs=_frozen(probs))


def info_report(spec: EnsembleSpec,
                zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> InfoReport:
    """Mutual informations of the unambiguous-only and recycled strategies.

    i_ud = p_s * log2(N); i_ir = log2(N) - (1 - p_s) * H(failure posterior),
    using the symmetry reduction that makes every failure outcome's posterior
    a rotation of one vector. A fully separating alphabet gives h_fail = 0
    and i_ir = log2(N) by the empty-failure-branch limit. The vacuum alphabet
    passes through with i_ud = i_ir = 0.
    """
    profile = coefficients(spec, zero_threshold=zero_threshold,
                           degeneracy_tol=degeneracy_tol)
    return _info_report(profile, _failure_or_none(profile))


def _info_report(profile: CoefficientProfile,
                 fail: FailureProfile | None) -> InfoReport:
    """info_report from a coefficient profile and its failure profile (None
    when the failure branch is empty)."""
    log2n = math.log2(profile.n_states)
    if fail is None:
        i_ud = ud_success(profile) * log2n
        return InfoReport(i_ud=i_ud, i_ir=log2n, gain=log2n - i_ud, h_fail=0.0)
    p_s = fail.p_s
    h_fail = shannon_entropy(failure_posterior(fail).probs)
    i_ud = p_s * log2n
    i_ir = log2n - (1.0 - p_s) * h_fail
    return InfoReport(i_ud=i_ud, i_ir=i_ir, gain=i_ir - i_ud, h_fail=h_fail)


def mutual_information_from_joint(joint: JointDistribution) -> float:
    """Mutual information in bits from the full 2N-outcome joint distribution.

    Redundant evaluation path kept as a cross-check against the
    symmetry-reduced formula in info_report: builds p(outcome, branch | k),
    the outcome marginals under the uniform prior, and the exact Bayes
    posteriors, with no symmetry assumption.
    """
    n = joint.n_states
    cond = np.vstack([joint.success, joint.failure])     # (2N, N): p(m | k)
    marginal = cond.mean(axis=1)                         # p(m), uniform prior
    h_cond = 0.0
    for m in range(2 * n):
        if marginal[m] <= 0.0:
            continue
        posterior = cond[m] / (n * marginal[m])
        nz = posterior > 0.0
        h_cond -= marginal[m] * float((posterior[nz] * np.log2(posterior[nz])).sum())
    return math.log2(n) - h_cond
