"""Discrimination figures of merit for the phase-symmetric alphabet.

Covers minimum-error discrimination (the Helstrom optimum for symmetric pure
states), optimal unambiguous discrimination via a two-outcome separation map,
the structure of the normalized failure states, and the recycled strategy
that follows a failed separation with a minimum-error measurement on the
failure set. All quantities are closed-form in the coefficient profile; the
oracle module re-derives them from explicit matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_ZERO_THRESHOLD,
    CoefficientProfile,
    EnsembleSpec,
    _frozen,
    coefficients,
)
from .errors import DegenerateEnsemble, DomainError, FullSeparation

# Below this failure probability the failure branch is treated as empty.
FULL_SEPARATION_EPS = 1e-15


@dataclass(frozen=True)
class SeparationOperators:
    """Diagonals of the separation Kraus pair in the symmetric basis.

    Success action scales basis vector j by c_min/c_j, failure by
    sqrt(1 - (c_min/c_j)^2); the failure unitary is fixed to the identity.
    Masked (zero-coefficient) entries carry the convention success = 1,
    failure = 0: the map acts as the identity off the alphabet's support.
    """

    a_success_diag: np.ndarray
    a_failure_diag: np.ndarray


@dataclass(frozen=True)
class FailureProfile:
    """Coefficient vector b of the normalized failure states.

    b[j] = sqrt((c_j^2 - p_s/N) / (1 - p_s)), clamped at zero and forced to
    exactly zero on entries degenerate with c_min. failure_dim is
    N - multiplicity, the dimension spanned by the failure set.
    """

    b: np.ndarray
    p_s: float
    failure_dim: int

    @property
    def n_states(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class DiscriminationReport:
    """All scalar figures of merit for one (N, alpha^2) point.

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


def helstrom_med(profile: CoefficientProfile) -> float:
    """Minimum-error correct-identification probability (1/N)(sum_j c_j)^2."""
    n = profile.n_states
    return float(profile.c.sum()) ** 2 / n


def ud_success(profile: CoefficientProfile) -> float:
    """Optimal unambiguous-discrimination success probability N * c_min^2.

    The degenerate single-coefficient profile (vacuum alphabet) returns 0 by
    continuity: identical states admit no unambiguous conclusion.
    """
    if profile.degenerate:
        return 0.0
    return profile.n_states * profile.c_min ** 2


def separation_operators(profile: CoefficientProfile) -> SeparationOperators:
    """Kraus diagonals of the optimal separation map."""
    if profile.degenerate:
        raise DegenerateEnsemble("separation map undefined for a single-state alphabet")
    n = profile.n_states
    a_s = np.ones(n)
    a_f = np.zeros(n)
    live = ~profile.zero_mask & ~profile.degenerate_mask
    ratios = profile.c_min / profile.c[live]
    a_s[live] = ratios
    a_f[live] = np.sqrt(np.clip(1.0 - ratios ** 2, 0.0, None))
    # Entries degenerate with c_min keep the exact fixed point (1, 0).
    return SeparationOperators(a_success_diag=_frozen(a_s), a_failure_diag=_frozen(a_f))


def failure_profile(profile: CoefficientProfile) -> FailureProfile:
    """Coefficients of the failure states under the identity failure gauge.

    Raises FullSeparation when 1 - p_s < 1e-15 (empty failure branch). The
    vacuum-degenerate profile passes through with p_s = 0 and b = c, its
    continuity limit.
    """
    p_s = ud_success(profile)
    if 1.0 - p_s < FULL_SEPARATION_EPS:
        raise FullSeparation(f"separation succeeds with probability {p_s}; "
                             "no failure states exist")
    n = profile.n_states
    live = int(np.count_nonzero(~profile.zero_mask))
    if not profile.degenerate and profile.multiplicity == live:
        # Every live coefficient sits in the degeneracy band of c_min, so the
        # declared failure space has dimension zero even though p_s has not
        # numerically reached 1 (large alphabets near orthogonality).
        raise FullSeparation(f"all {live} live coefficients are degenerate "
                             f"with c_min; failure space is empty (p_s={p_s})")
    if profile.degenerate:
        b = profile.c.copy()
    else:
        # Clamp before the square root: rounding can land c_j^2 - p_s/N near
        # -1e-17 on entries that are analytically zero.
        raw = (profile.c_sq - p_s / n) / (1.0 - p_s)
        raw[profile.degenerate_mask] = 0.0
        b = np.sqrt(np.clip(raw, 0.0, None))
    return FailureProfile(b=_frozen(b), p_s=p_s,
                          failure_dim=n - profile.multiplicity)


def _failure_or_none(profile: CoefficientProfile) -> FailureProfile | None:
    """failure_profile(profile), or None when the failure branch is empty."""
    try:
        return failure_profile(profile)
    except FullSeparation:
        return None


def failure_med(fail: FailureProfile) -> float:
    """Minimum-error correct probability (1/N)(sum_j b_j)^2 on the failure set."""
    n = fail.n_states
    return float(fail.b.sum()) ** 2 / n


def _failure_spectrum(b: np.ndarray) -> np.ndarray:
    """(1/N) * |sum_l w^(-kl) b_l|^2 for k = 0..N-1, one FFT of b.

    Equal to the double sum (1/N) * sum_{l,m} w^(-k(l-m)) b_l b_m, and, since
    b is real, symmetric under k -> -k. Nonnegative by construction.
    """
    return np.abs(np.fft.fft(b)) ** 2 / b.shape[0]


def ir_report(spec: EnsembleSpec,
              zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
              degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> DiscriminationReport:
    """Assemble every scalar figure of merit for one alphabet.

    The recycled strategy succeeds with p_s and otherwise falls back on
    minimum error over the failure set, so
    p_c_ir = p_s + (1 - p_s) * p_c_med_beta. The fidelity
    F = (sum_j c_j b_j)^2 is the squared overlap between an alphabet state
    and its failure state, and 1 - F/p_c_med lower-bounds the failure-set
    error probability.
    """
    profile = coefficients(spec, zero_threshold=zero_threshold,
                           degeneracy_tol=degeneracy_tol)
    return _ir_report(profile, _failure_or_none(profile))


def _ir_report(profile: CoefficientProfile,
               fail: FailureProfile | None) -> DiscriminationReport:
    """ir_report from a coefficient profile and its failure profile (None
    when the failure branch is empty)."""
    p_c_med = helstrom_med(profile)
    if fail is None:
        nan = math.nan
        return DiscriminationReport(
            p_s=ud_success(profile), p_c_med=p_c_med, p_c_med_beta=nan, p_c_ir=1.0,
            fidelity=nan, infidelity=nan, error_bound=nan,
            confidence_success=1.0, confidence_failure=nan,
            full_separation=True)
    p_s = fail.p_s
    p_c_med_beta = failure_med(fail)
    p_c_ir = p_s + (1.0 - p_s) * p_c_med_beta
    fidelity = float(profile.c @ fail.b) ** 2
    return DiscriminationReport(
        p_s=p_s,
        p_c_med=p_c_med,
        p_c_med_beta=p_c_med_beta,
        p_c_ir=p_c_ir,
        fidelity=fidelity,
        infidelity=1.0 - fidelity,
        error_bound=max(0.0, 1.0 - fidelity / p_c_med),
        confidence_success=1.0,
        confidence_failure=p_c_med_beta,
    )


def joint_distribution(spec: EnsembleSpec,
                       zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                       degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> JointDistribution:
    """Joint outcome/branch probabilities conditioned on the preparation.

    success[k'][k] = p_s * delta(k', k). The failure block is circulant:
    failure[k'][k] = ((1 - p_s)/N) * |sum_l w^((k'-k)l) b_l|^2, so its N
    distinct entries are one FFT of the failure profile b. A fully separating
    alphabet yields a zero failure block (the limit of the formula), not an
    error.
    """
    profile = coefficients(spec, zero_threshold=zero_threshold,
                           degeneracy_tol=degeneracy_tol)
    if profile.degenerate:
        raise DegenerateEnsemble("joint distribution undefined for a single-state alphabet")
    n = profile.n_states
    fail = _failure_or_none(profile)
    if fail is None:
        # The declared failure branch is empty, so the success block carries
        # its limit weight 1 and the columns stay normalized.
        return JointDistribution(success=_frozen(np.eye(n)),
                                 failure=_frozen(np.zeros((n, n))))
    p_s = fail.p_s
    shift_vals = (1.0 - p_s) * _failure_spectrum(fail.b)   # one per (k' - k) mod N
    idx = np.arange(n)
    failure = shift_vals[(idx[:, None] - idx[None, :]) % n]
    success = np.eye(n) * p_s
    return JointDistribution(success=_frozen(success), failure=_frozen(failure))


def overlap_alpha_beta(spec: EnsembleSpec, j: int, k: int,
                       zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                       degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> complex:
    """Overlap <alpha_j|beta_k> = sum_l c_l b_l w^(l(k-j)).

    Its magnitude is maximal at j = k, where it equals sqrt(fidelity).
    """
    n = spec.n_states
    if not (isinstance(j, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise DomainError(f"indices must be integers, got {j!r}, {k!r}")
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError(f"indices must lie in [0, {n}), got {j}, {k}")
    profile = coefficients(spec, zero_threshold=zero_threshold,
                           degeneracy_tol=degeneracy_tol)
    fail = failure_profile(profile)
    ell = np.arange(n)
    return complex(np.sum(profile.c * fail.b * np.exp(2j * np.pi * ell * (k - j) / n)))
