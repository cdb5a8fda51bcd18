"""Discrimination figures of merit for the phase-symmetric alphabet.

Covers minimum-error discrimination (the Helstrom optimum for symmetric pure
states), optimal unambiguous discrimination via a two-outcome separation map,
the structure of the normalized failure states, and the recycled strategy
that follows a failed separation with a minimum-error measurement on the
failure set. All quantities are closed-form views of the coefficient profile,
which carries p_s and the failure profile b and decides once whether the
failure branch is empty; the oracle module forms the separation's Kraus
diagonals and re-derives these figures from explicit states and measurement
vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    FULL_SEPARATION_EPS,
    CoefficientProfile,
    EnsembleSpec,
    _frozen,
    coefficients,
)
from .errors import DegenerateEnsemble, FullSeparation


@dataclass(frozen=True)
class DiscriminationReport:
    """All scalar figures of merit for one (N, alpha^2) point. From
    ir_columns of a grid record, each field is a column over its rows,
    except confidence_success, which stays the scalar 1.0.

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
    """Outcome probabilities conditioned on the prepared state, as the N + 1
    numbers that fix them.

    The success branch never errs and the failure branch is symmetric, so
    p(outcome k', success | prepared k) = p_s * delta(k', k) and
    p(outcome k', failure | prepared k) = shift[(k' - k) mod N]; for each k
    they sum to 1 over k' and the branch. success and failure are these as
    dense N x N blocks, [k'][k], read-only and built on first access;
    columns() lays rows of them out per preparation.
    """

    p_s: float
    shift: np.ndarray

    @property
    def n_states(self) -> int:
        return self.shift.shape[0]

    @functools.cached_property
    def success(self) -> np.ndarray:
        return _frozen(np.diag(np.full(self.n_states, self.p_s)))

    @functools.cached_property
    def failure(self) -> np.ndarray:
        return _frozen(_circulant(self.shift).copy())

    def columns(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The columns of the blocks for preparations k = start..stop-1, as a
        new array [k - start, k', branch] = p(outcome k', branch | k) with
        branch 0 success and 1 failure; no dense block is built."""
        n = self.n_states
        stop = n if stop is None else min(stop, n)
        cols = np.zeros((stop - start, n, 2))
        cols[:, :, 1] = _circulant(self.shift).T[start:stop]
        # Row r is preparation start + r, whose success outcome is itself.
        np.fill_diagonal(cols[:, start:, 0], self.p_s)
        return cols


def _circulant(shift: np.ndarray) -> np.ndarray:
    """The read-only N x N view [k', k] = shift[(k' - k) mod N] =
    twice[N + k' - k] into two copies of shift: it starts at element N and
    steps +1 per row and -1 per column."""
    n = shift.shape[0]
    twice = np.concatenate((shift, shift))
    step = twice.itemsize
    return _frozen(np.ndarray((n, n), twice.dtype, twice, n * step, (step, -step)))


def _med(x: np.ndarray) -> np.ndarray:
    """(1/N)(sum_j x_j)^2 over the last axis: the minimum-error correct
    probability of the symmetric states with coefficient vector x.

    float_power is libm pow, as Python's float ** 2; numpy's x**2 is x*x.
    """
    return np.float_power(x.sum(axis=-1), 2.0) / x.shape[-1]


def failure_profile(profile: CoefficientProfile) -> CoefficientProfile:
    """The profile itself, checked to have a non-empty failure branch.

    Raises FullSeparation, with the reason, when profile.full_separation is
    set: 1 - p_s < 1e-15 (named first), or every coefficient lies in the
    degeneracy band of c_min. The vacuum alphabet passes through with
    p_s = 0 and b = c.
    """
    if not profile.full_separation:
        return profile
    n, p_s = profile.n_states, profile.p_s
    if 1.0 - p_s < FULL_SEPARATION_EPS:
        raise FullSeparation(f"separation succeeds with probability {p_s}; "
                             "no failure states exist")
    raise FullSeparation(f"all {n} live coefficients are degenerate "
                         f"with c_min; failure space is empty (p_s={p_s})")


def ir_report(spec: EnsembleSpec) -> DiscriminationReport:
    """Every scalar figure of merit for one alphabet: ir_columns of its
    profile.

    The recycled strategy succeeds with p_s and otherwise falls back on
    minimum error over the failure set, so
    p_c_ir = p_s + (1 - p_s) * p_c_med_beta. The fidelity
    F = (sum_j c_j b_j)^2 is the squared overlap between an alphabet state
    and its failure state, and 1 - F/p_c_med lower-bounds the failure-set
    error probability.
    """
    return ir_columns(coefficients(spec))


def ir_columns(profile: CoefficientProfile) -> DiscriminationReport:
    """The figures of ir_report over the rows of a profile: columns for a
    grid record, Python scalars for one point. b is NaN where full_separation
    is set, which makes the failure-branch fields NaN there; p_c_ir takes
    its limit 1. The batched matmul is the same dot product as c @ b on one
    row.
    """
    c, b, p_s = profile.c, profile.b, profile.p_s
    p_c_med = _med(c)
    p_c_med_beta = _med(b)
    fidelity = np.float_power(np.matmul(c[..., None, :], b[..., :, None])[..., 0, 0], 2.0)
    return profile.view(
        DiscriminationReport,
        p_s=p_s,
        p_c_med=p_c_med,
        p_c_med_beta=p_c_med_beta,
        p_c_ir=np.where(profile.full_separation, 1.0, p_s + (1.0 - p_s) * p_c_med_beta),
        fidelity=fidelity,
        infidelity=1.0 - fidelity,
        error_bound=np.maximum(0.0, 1.0 - fidelity / p_c_med),
        confidence_success=1.0,
        confidence_failure=p_c_med_beta,
        full_separation=profile.full_separation,
    )


def joint_distribution(spec: EnsembleSpec) -> JointDistribution:
    """Joint outcome/branch probabilities conditioned on the preparation.

    success[k'][k] = p_s * delta(k', k). The failure block is circulant:
    failure[k'][k] = shift[(k' - k) mod N] with shift = (1 - p_s) times the
    profile's failure spectrum, (1/N) * |sum_l w^(-kl) b_l|^2. The record
    holds p_s and shift, O(N). A fully separating alphabet yields p_s = 1
    and a zero shift (the limit of the formula), not an error.
    """
    profile = coefficients(spec)
    if profile.degenerate:
        raise DegenerateEnsemble("joint distribution undefined for a single-state alphabet")
    if profile.full_separation:
        # The declared failure branch is empty, so the success block carries
        # its limit weight 1 and the columns stay normalized.
        return JointDistribution(p_s=1.0, shift=_frozen(np.zeros(profile.n_states)))
    return JointDistribution(p_s=profile.p_s,
                             shift=_frozen((1.0 - profile.p_s) * profile.spectrum))

