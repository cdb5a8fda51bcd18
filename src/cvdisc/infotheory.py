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
from .ensemble import CoefficientBlock, CoefficientProfile, EnsembleSpec, _frozen, coefficients
from .errors import DomainError


@dataclass(frozen=True)
class InfoReport:
    """Mutual informations in bits: unambiguous-only, recycled, and their
    gap; from info_columns, one column per field over the rows of a block."""

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
    return float(_entropy_bits(np.clip(p, 0.0, None)))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of nonnegative p, 0 log2 0 = 0."""
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * logs).sum(axis=-1)


def failure_posterior(profile: CoefficientProfile) -> np.ndarray:
    """Posterior over preparations given outcome 0 on the failure branch.

    probs[k] = (1/N) * |sum_l w^(-kl) b_l|^2, the N entries being one FFT of
    the profile's b; entry 0 is maximal and the array is read-only. Raises
    FullSeparation when the failure branch is empty. By symmetry the
    outcome-k posterior is this vector rotated by k, so one vector carries
    the whole failure branch.
    """
    return _frozen(_posterior(failure_profile(profile).b))


def _posterior(b: np.ndarray) -> np.ndarray:
    """failure_posterior of every failure profile b along the last axis."""
    probs = _failure_spectrum(b)
    # Parseval gives sum(probs) = sum(b^2), which the exact-zeroing of
    # band-degenerate entries leaves marginally below 1 near orthogonality;
    # a posterior must still sum to 1.
    return probs / probs.sum(axis=-1, keepdims=True)


def info_report(spec: EnsembleSpec) -> InfoReport:
    """Mutual informations of the unambiguous-only and recycled strategies.

    i_ud = p_s * log2(N); i_ir = log2(N) - (1 - p_s) * H(failure posterior),
    using the symmetry reduction that makes every failure outcome's posterior
    a rotation of one vector. A fully separating alphabet gives h_fail = 0
    and i_ir = log2(N) by the empty-failure-branch limit. The vacuum alphabet
    passes through with i_ud = i_ir = 0.
    """
    profile = coefficients(spec)
    empty = profile.b is None
    b = np.full(profile.n_states, math.nan) if empty else profile.b
    figures = _info_figures(b, profile.p_s, empty)
    return InfoReport(**{k: float(v) for k, v in figures.items()})


def info_columns(block: CoefficientBlock) -> InfoReport:
    """info_report for every row of a block: each field is a column."""
    return InfoReport(**_info_figures(block.b, block.p_s, block.full_separation))


def _info_figures(b: np.ndarray, p_s, empty) -> dict:
    """The figures of info_report over the leading axes of b (..., N); b is
    NaN where empty is set (the failure branch is empty), and h_fail and
    i_ir take their limits 0 and log2 N there."""
    log2n = math.log2(b.shape[-1])
    i_ud = p_s * log2n
    h_fail = np.where(empty, 0.0, _entropy_bits(_posterior(b)))
    i_ir = log2n - (1.0 - p_s) * h_fail
    return {"i_ud": i_ud, "i_ir": i_ir, "gain": i_ir - i_ud, "h_fail": h_fail}
