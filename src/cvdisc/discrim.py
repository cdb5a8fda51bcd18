"""Discrimination figures of merit for the phase-symmetric alphabet.

Covers minimum-error discrimination (the Helstrom optimum for symmetric pure
states), optimal unambiguous discrimination via a two-outcome separation map,
the structure of the normalized failure states, and the recycled strategy
that follows a failed separation with a minimum-error measurement on the
failure set. All quantities are closed-form views of the coefficient profile,
which carries p_s and the failure profile b and decides once whether the
failure branch is empty; the oracle module re-derives them from explicit
states and measurement vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    CoefficientBlock,
    CoefficientProfile,
    EnsembleSpec,
    _empty_branch,
    _frozen,
    coefficients,
)
from .errors import DegenerateEnsemble, FullSeparation


@dataclass(frozen=True)
class SeparationOperators:
    """Diagonals of the separation Kraus pair in the symmetric basis.

    Success action scales basis vector j by c_min/c_j, failure by
    sqrt(1 - (c_min/c_j)^2); the failure unitary is fixed to the identity.
    Entries degenerate with c_min, including any c_j that underflows to 0
    (then c_min = 0), keep the exact fixed point success = 1, failure = 0.
    """

    a_success_diag: np.ndarray
    a_failure_diag: np.ndarray


@dataclass(frozen=True)
class DiscriminationReport:
    """All scalar figures of merit for one (N, alpha^2) point. From
    ir_columns, each field is a column over the rows of a block, except
    confidence_success, which is 1 on every row and stays the scalar 1.0.

    p_c_med = (1/N)(sum_j c_j)^2 is the Helstrom minimum-error probability,
    p_c_med_beta = (1/N)(sum_j b_j)^2 the same on the failure set.

    When full_separation is set the failure branch is empty; p_c_ir is 1 by
    its limit and the failure-branch fields (p_c_med_beta, fidelity,
    infidelity, error_bound, confidence_failure) are NaN.
    """

    p_s: float
    p_c_med: float
    p_c_med_beta: float
    p_c_ir: float
    fidelity: float
    infidelity: float
    error_bound: float
    confidence_success: float
    confidence_failure: float
    full_separation: bool = False


@dataclass(frozen=True)
class JointDistribution:
    """Outcome probabilities conditioned on the prepared state.

    success[k'][k] = p(outcome k', success | prepared k) and likewise for
    failure; columns of success + failure sum to 1.
    """

    success: np.ndarray
    failure: np.ndarray

    @property
    def n_states(self) -> int:
        return self.success.shape[0]


def _med(x: np.ndarray) -> np.ndarray:
    """(1/N)(sum_j x_j)^2 over the last axis: the minimum-error correct
    probability of the symmetric states with coefficient vector x.

    float_power is libm pow, as Python's float ** 2; numpy's x**2 is x*x.
    """
    return np.float_power(x.sum(axis=-1), 2.0) / x.shape[-1]


def separation_operators(profile: CoefficientProfile) -> SeparationOperators:
    """Kraus diagonals of the optimal separation map."""
    if profile.degenerate:
        raise DegenerateEnsemble("separation map undefined for a single-state alphabet")
    n = profile.n_states
    a_s = np.ones(n)
    a_f = np.zeros(n)
    # Entries degenerate with c_min keep the exact fixed point (1, 0).
    scaled = ~profile.degenerate_mask
    ratios = profile.c_min / profile.c[scaled]
    a_s[scaled] = ratios
    a_f[scaled] = np.sqrt(np.clip(1.0 - ratios ** 2, 0.0, None))
    return SeparationOperators(a_success_diag=_frozen(a_s), a_failure_diag=_frozen(a_f))


def failure_profile(profile: CoefficientProfile) -> CoefficientProfile:
    """The profile itself, checked to have a non-empty failure branch.

    Raises FullSeparation, with the reason, when profile.b is None:
    1 - p_s < 1e-15, or every coefficient lies in the degeneracy band of
    c_min. The vacuum alphabet passes through with p_s = 0 and b = c.
    """
    if profile.b is None:
        raise FullSeparation(_empty_branch(profile.n_states, profile.p_s,
                                           profile.multiplicity))
    return profile


def _failure_spectrum(b: np.ndarray) -> np.ndarray:
    """(1/N) * |sum_l w^(-kl) b_l|^2 for k = 0..N-1, one FFT of b along
    its last axis.

    Equal to the double sum (1/N) * sum_{l,m} w^(-k(l-m)) b_l b_m, and, since
    b is real, symmetric under k -> -k. Nonnegative by construction.
    """
    return np.abs(np.fft.fft(b)) ** 2 / b.shape[-1]


def ir_report(spec: EnsembleSpec) -> DiscriminationReport:
    """Assemble every scalar figure of merit for one alphabet.

    The recycled strategy succeeds with p_s and otherwise falls back on
    minimum error over the failure set, so
    p_c_ir = p_s + (1 - p_s) * p_c_med_beta. The fidelity
    F = (sum_j c_j b_j)^2 is the squared overlap between an alphabet state
    and its failure state, and 1 - F/p_c_med lower-bounds the failure-set
    error probability.
    """
    profile = coefficients(spec)
    empty = profile.b is None
    b = np.full(profile.n_states, math.nan) if empty else profile.b
    figures = _ir_figures(profile.c, b, profile.p_s, empty)
    return DiscriminationReport(**{k: float(v) for k, v in figures.items()},
                                full_separation=empty)


def ir_columns(block: CoefficientBlock) -> DiscriminationReport:
    """ir_report for every row of a block: each field is a column."""
    return DiscriminationReport(
        **_ir_figures(block.c, block.b, block.p_s, block.full_separation),
        full_separation=block.full_separation)


def _ir_figures(c: np.ndarray, b: np.ndarray, p_s, empty) -> dict:
    """The figures of ir_report but full_separation, over the leading axes
    of c and b (..., N).

    b is NaN where empty is set (the failure branch is empty), which makes
    the failure-branch fields NaN there; p_c_ir takes its limit 1. The
    batched matmul is the same dot product as c @ b on one row.
    """
    p_c_med = _med(c)
    p_c_med_beta = _med(b)
    fidelity = np.float_power(np.matmul(c[..., None, :], b[..., :, None])[..., 0, 0], 2.0)
    return {
        "p_s": p_s,
        "p_c_med": p_c_med,
        "p_c_med_beta": p_c_med_beta,
        "p_c_ir": np.where(empty, 1.0, p_s + (1.0 - p_s) * p_c_med_beta),
        "fidelity": fidelity,
        "infidelity": 1.0 - fidelity,
        "error_bound": np.maximum(0.0, 1.0 - fidelity / p_c_med),
        "confidence_success": 1.0,
        "confidence_failure": p_c_med_beta,
    }


def joint_distribution(spec: EnsembleSpec) -> JointDistribution:
    """Joint outcome/branch probabilities conditioned on the preparation.

    success[k'][k] = p_s * delta(k', k). The failure block is circulant:
    failure[k'][k] = ((1 - p_s)/N) * |sum_l w^((k'-k)l) b_l|^2, so its N
    distinct entries are one FFT of the failure profile b. A fully separating
    alphabet yields a zero failure block (the limit of the formula), not an
    error.
    """
    profile = coefficients(spec)
    if profile.degenerate:
        raise DegenerateEnsemble("joint distribution undefined for a single-state alphabet")
    n = profile.n_states
    if profile.b is None:
        # The declared failure branch is empty, so the success block carries
        # its limit weight 1 and the columns stay normalized.
        return JointDistribution(success=_frozen(np.eye(n)),
                                 failure=_frozen(np.zeros((n, n))))
    p_s = profile.p_s
    shift_vals = (1.0 - p_s) * _failure_spectrum(profile.b)   # one per (k' - k) mod N
    # failure[k', k] = shift_vals[(k' - k) mod N] = twice[N + k' - k]: a view
    # into two copies of shift_vals that starts at element N and steps +1 per
    # row and -1 per column, copied out.
    twice = np.concatenate((shift_vals, shift_vals))
    step = twice.itemsize
    failure = np.ndarray((n, n), twice.dtype, twice, n * step, (step, -step)).copy()
    success = np.diag(np.full(n, p_s))
    return JointDistribution(success=_frozen(success), failure=_frozen(failure))

