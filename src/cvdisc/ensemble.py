"""Phase-symmetric coherent-state alphabet.

An alphabet is the set of N coherent states alpha * w^k with w = exp(2*pi*i/N)
and alpha real, all equiprobable. Every derived quantity depends on alpha only
through the mean photon number alpha^2. This module computes the exact
finite-sum decomposition of the alphabet: the amplitude coefficients c_j over
the symmetric orthonormal basis, the Gram matrix of mutual overlaps, and the
Fock-space amplitudes of the basis vectors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import CutoffOverflow, DomainError

# The package's one tolerance policy; coefficients() documents how each applies.
ZERO_THRESHOLD = 1e-12
DEGENERACY_TOL = 1e-9
DEFAULT_FOCK_CAP = 4096
FOCK_CAP_ENV = "CVDISC_HARD_CUTOFF"

# Residue tolerance: the coefficient sums are real analytically, so a large
# imaginary part signals a broken complex evaluation rather than roundoff.
_IMAG_RESIDUE_TOL = 1e-10


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of the alphabet: state count N and mean photon number."""

    n_states: int
    alpha_sq: float

    def __post_init__(self) -> None:
        if isinstance(self.n_states, bool) or not isinstance(self.n_states, (int, np.integer)):
            raise DomainError(f"n_states must be an integer, got {self.n_states!r}")
        if self.n_states < 2:
            raise DomainError(f"n_states must be >= 2, got {self.n_states}")
        try:
            a2 = float(self.alpha_sq)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"alpha_sq must be a real number, got {self.alpha_sq!r}") from exc
        if not math.isfinite(a2) or a2 < 0.0:
            raise DomainError(f"alpha_sq must be finite and >= 0, got {a2}")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "alpha_sq", a2)


@dataclass(frozen=True)
class CoefficientProfile:
    """Amplitude coefficients of the alphabet over the symmetric basis.

    c_sq[j] is the squared coefficient of basis vector j (a probability),
    c[j] its nonnegative square root. c_min is the smallest coefficient among
    entries not flagged by zero_mask; multiplicity counts the non-masked
    entries whose c_sq lies within the degeneracy band of c_min**2
    (degenerate_mask marks them). degenerate is set when only one entry
    survives the zero mask (all states coincide, e.g. the vacuum alphabet);
    near_band_edge warns that some gap sits within a factor of 10 of the
    degeneracy band, where the multiplicity count is resolution-limited.
    """

    c_sq: np.ndarray
    c: np.ndarray
    c_min: float
    multiplicity: int
    zero_mask: np.ndarray
    degenerate_mask: np.ndarray
    degenerate: bool
    near_band_edge: bool

    @property
    def n_states(self) -> int:
        return self.c_sq.shape[0]


@dataclass(frozen=True)
class BasisAmplitudes:
    """Fock-space amplitudes of the symmetric basis vectors.

    Row j of amps holds <n|phi_j> for n = 0..cutoff; the amplitude vanishes
    unless n = j (mod N). tail_mass bounds the Poisson weight discarded by
    the truncation.
    """

    cutoff: int
    amps: np.ndarray
    tail_mass: float

    @property
    def n_states(self) -> int:
        return self.amps.shape[0]


def coefficients(spec: EnsembleSpec) -> CoefficientProfile:
    """Evaluate the squared coefficients and classify the minimum.

    c_j^2 = (1/N) * sum_l w^(-j*l) * exp(alpha^2 * (w^l - 1)): the Gram
    matrix is circulant, so the N sums are one FFT of its first row. Entries
    with c_j^2 below ZERO_THRESHOLD are masked as zero and excluded from the
    c_min search; non-masked entries within DEGENERACY_TOL *
    max(c_min^2, 1e-300) of c_min^2 count toward the multiplicity.
    """
    n = spec.n_states
    w_ell = np.exp(2j * np.pi * np.arange(n) / n)
    sums = np.fft.fft(np.exp(spec.alpha_sq * (w_ell - 1.0))) / n

    residue = float(np.max(np.abs(sums.imag)))
    if residue >= _IMAG_RESIDUE_TOL:
        raise DomainError(f"imaginary residue {residue:.3e} in coefficient sums "
                          f"(n_states={n}, alpha_sq={spec.alpha_sq})")
    c_sq = sums.real
    if np.any(c_sq < -1e-12):
        raise DomainError(f"coefficient sum fell below -1e-12: min {c_sq.min():.3e}")
    c_sq = np.clip(c_sq, 0.0, None)

    zero_mask = c_sq < ZERO_THRESHOLD
    live = ~zero_mask
    if not live.any():
        # Unreachable for a valid spec (the c_sq sum to 1) but kept as a guard.
        raise DomainError("all coefficients are zero-masked")

    # Masked entries are declared zero, not merely small: without this the
    # square root turns 1e-16 sum noise into 1e-8 amplitudes, visible in
    # every (sum_j c_j)^2 quantity near the vacuum.
    c_sq = np.where(zero_mask, 0.0, c_sq)
    c = np.sqrt(c_sq)
    c_min_sq = float(c_sq[live].min())
    band = DEGENERACY_TOL * max(c_min_sq, 1e-300)
    gaps = c_sq - c_min_sq
    degenerate_mask = live & (gaps <= band)
    multiplicity = int(degenerate_mask.sum())
    near_band_edge = bool(np.any(live & (gaps >= band / 10.0) & (gaps <= band * 10.0)))
    degenerate = int(live.sum()) == 1

    return CoefficientProfile(
        c_sq=_frozen(c_sq),
        c=_frozen(c),
        c_min=math.sqrt(c_min_sq),
        multiplicity=multiplicity,
        zero_mask=_frozen(zero_mask),
        degenerate_mask=_frozen(degenerate_mask),
        degenerate=degenerate,
        near_band_edge=near_band_edge,
    )


def gram(spec: EnsembleSpec) -> np.ndarray:
    """Overlap matrix G[j][k] = exp(alpha^2 * (w^(k-j) - 1)).

    Circulant, Hermitian, with unit diagonal; off-diagonal magnitudes decay
    as exp(-alpha^2 * (1 - cos(2*pi*(k-j)/N))). The array is read-only.
    """
    n = spec.n_states
    idx = np.arange(n)
    diff = idx[None, :] - idx[:, None]
    entries = np.exp(spec.alpha_sq * (np.exp(2j * np.pi * diff / n) - 1.0))
    return _frozen(entries)


def _fock_cap() -> int:
    raw = os.environ.get(FOCK_CAP_ENV)
    if raw is None:
        return DEFAULT_FOCK_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{FOCK_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"Fock hard cap must be >= 1, got {cap}")
    return cap


def basis_amplitudes(spec: EnsembleSpec, tail_eps: float) -> BasisAmplitudes:
    """Fock amplitudes <n|phi_j> = exp(-alpha^2/2) * alpha^n / (c_j * sqrt(n!))
    on the ladder n = j + p*N, for every non-masked j (masked rows are zero).

    The cutoff is the smallest n_max >= N-1 whose Poisson tail mass is below
    tail_eps. Amplitudes are computed in log space; n_max can reach hundreds
    and alpha^n / sqrt(n!) overflows long before that. The cutoff is capped
    by the CVDISC_HARD_CUTOFF environment variable, default 4096.
    """
    if not (0.0 < tail_eps <= 1e-6):
        raise DomainError(f"tail_eps must be in (0, 1e-6], got {tail_eps}")
    cap = _fock_cap()

    n = spec.n_states
    a2 = spec.alpha_sq
    profile = coefficients(spec)

    # Poisson tail P(X > m) = gammainc(m+1, a2), regularized lower incomplete.
    candidates = np.arange(n - 1, cap + 1)
    tails = special.gammainc(candidates + 1.0, a2) if a2 > 0 else np.zeros(candidates.size)
    below = np.nonzero(tails < tail_eps)[0]
    if below.size == 0:
        raise CutoffOverflow(f"no cutoff <= {cap} reaches tail mass {tail_eps} "
                             f"at alpha_sq={a2}")
    n_max = int(candidates[below[0]])
    tail_mass = float(tails[below[0]])

    log_alpha = 0.5 * math.log(a2) if a2 > 0 else -math.inf
    amps = np.zeros((n, n_max + 1))
    for j in range(n):
        if profile.zero_mask[j]:
            continue
        ns = np.arange(j, n_max + 1, n)
        with np.errstate(invalid="ignore"):
            log_pow = np.where(ns == 0, 0.0, ns * log_alpha)
        log_amp = -0.5 * a2 + log_pow - 0.5 * special.gammaln(ns + 1.0) \
            - math.log(profile.c[j])
        amps[j, ns] = np.exp(log_amp)

    return BasisAmplitudes(cutoff=n_max, amps=_frozen(amps), tail_mass=tail_mass)
