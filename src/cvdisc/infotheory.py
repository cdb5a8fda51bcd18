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

from .discrim import _failure_spectrum, failure_profile
from .ensemble import CoefficientProfile, EnsembleSpec, _frozen, coefficients
from .errors import DomainError


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


def failure_posterior(profile: CoefficientProfile) -> np.ndarray:
    """Posterior over preparations given outcome 0 on the failure branch.

    probs[k] = (1/N) * |sum_l w^(-kl) b_l|^2, the N entries being one FFT of
    the profile's b; entry 0 is maximal and the array is read-only. Raises
    FullSeparation when the failure branch is empty. By symmetry the
    outcome-k posterior is this vector rotated by k, so one vector carries
    the whole failure branch.
    """
    probs = _failure_spectrum(failure_profile(profile).b)
    # Parseval gives sum(probs) = sum(b^2), which the exact-zeroing of
    # band-degenerate entries leaves marginally below 1 near orthogonality;
    # a posterior must still sum to 1.
    probs /= probs.sum()
    return _frozen(probs)


def info_report(spec: EnsembleSpec) -> InfoReport:
    """Mutual informations of the unambiguous-only and recycled strategies.

    i_ud = p_s * log2(N); i_ir = log2(N) - (1 - p_s) * H(failure posterior),
    using the symmetry reduction that makes every failure outcome's posterior
    a rotation of one vector. A fully separating alphabet gives h_fail = 0
    and i_ir = log2(N) by the empty-failure-branch limit. The vacuum alphabet
    passes through with i_ud = i_ir = 0.
    """
    return _info_report(coefficients(spec))


def _info_report(profile: CoefficientProfile) -> InfoReport:
    """info_report as a view of one coefficient profile."""
    log2n = math.log2(profile.n_states)
    p_s = profile.p_s
    i_ud = p_s * log2n
    if profile.b is None:
        return InfoReport(i_ud=i_ud, i_ir=log2n, gain=log2n - i_ud, h_fail=0.0)
    h_fail = shannon_entropy(failure_posterior(profile))
    i_ir = log2n - (1.0 - p_s) * h_fail
    return InfoReport(i_ud=i_ud, i_ir=i_ir, gain=i_ir - i_ud, h_fail=h_fail)
