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

from .discrim import failure_profile
from .ensemble import CoefficientProfile, EnsembleSpec, _frozen, coefficients


@dataclass(frozen=True)
class InfoReport:
    """Mutual informations in bits: unambiguous-only, recycled, and their
    gap; from info_columns of a grid record, columns over its rows."""

    i_ud: float
    i_ir: float
    gain: float
    h_fail: float


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of nonnegative p, 0 log2 0 = 0."""
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * logs).sum(axis=-1)


def failure_posterior(profile: CoefficientProfile) -> np.ndarray:
    """Posterior over preparations given outcome 0 on the failure branch.

    probs[k] = (1/N) * |sum_l w^(-kl) b_l|^2, the profile's failure
    spectrum divided by its sum; entry 0 is maximal and the array is
    read-only. Raises FullSeparation when the failure branch is empty. By
    symmetry the outcome-k posterior is this vector rotated by k, so one
    vector carries the whole failure branch.
    """
    return _frozen(_posterior(failure_profile(profile).spectrum))


def _posterior(spectrum: np.ndarray) -> np.ndarray:
    """failure_posterior of every failure spectrum along the last axis."""
    # Parseval gives sum(spectrum) = sum(b^2), which the exact-zeroing of
    # band-degenerate entries leaves marginally below 1 near orthogonality;
    # a posterior must still sum to 1.
    return spectrum / spectrum.sum(axis=-1, keepdims=True)


def info_report(spec: EnsembleSpec) -> InfoReport:
    """Mutual informations of the unambiguous-only and recycled strategies:
    info_columns of the alphabet's profile.

    i_ud = p_s * log2(N); i_ir = log2(N) - (1 - p_s) * H(failure posterior),
    using the symmetry reduction that makes every failure outcome's posterior
    a rotation of one vector. A fully separating alphabet gives h_fail = 0
    and i_ir = log2(N) by the empty-failure-branch limit. The vacuum alphabet
    passes through with i_ud = i_ir = 0.
    """
    return info_columns(coefficients(spec))


def info_columns(profile: CoefficientProfile) -> InfoReport:
    """The figures of info_report over the rows of a profile: columns for a
    grid record, Python scalars for one point. The spectrum is NaN where
    full_separation is set, and h_fail and i_ir take their limits 0 and
    log2 N there."""
    log2n = math.log2(profile.n_states)
    i_ud = profile.p_s * log2n
    h_fail = np.where(profile.full_separation, 0.0, _entropy_bits(_posterior(profile.spectrum)))
    i_ir = log2n - (1.0 - profile.p_s) * h_fail
    return profile.view(InfoReport, i_ud=i_ud, i_ir=i_ir, gain=i_ir - i_ud, h_fail=h_fail)
