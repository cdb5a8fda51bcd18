"""Phase-symmetric coherent-state alphabet.

An alphabet is the set of N coherent states alpha * w^k with w = exp(2*pi*i/N)
and alpha real, all equiprobable. Every derived quantity depends on alpha only
through the mean photon number alpha^2. This module computes the exact
finite-sum decomposition of the alphabet: the amplitude coefficients c_j over
the symmetric orthonormal basis together with the separation success
probability and failure profile they fix, and the Fock-space amplitudes of
|alpha>, whose state k lies in residue class k mod N.

Everything here needs numpy alone. The coefficients and the Fock route share
one construction: Poisson weights p_k = e^(-alpha^2) alpha^(2k) / k! as
running products outward from the mode floor(alpha^2), in np.longdouble. The
coefficients fold them mod N; basis_amplitudes returns the ladder sqrt(p_k)
and takes the tails P(X > m) as their suffix sums, smallest term first.
Where np.longdouble is a plain double, a weight loses about |k - mode| ulp,
no worse than the log-space route through lgamma.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CutoffOverflow, DomainError

# The degeneracy band; coefficients() documents how it applies.
DEGENERACY_TOL = 1e-9
# Below this failure probability the failure branch is treated as empty.
FULL_SEPARATION_EPS = 1e-15
# Fock truncation: the largest cutoff, and the default Poisson tail target.
FOCK_CAP = 4096
TAIL_EPS = 1e-12
# coefficients() sums ~24 * sqrt(alpha^2) terms; alphabets with N up to
# ~5000 separate fully (1 - p_s < 1e-15) below this bound.
MAX_ALPHA_SQ = 1e8
# report and sweep run within 1 GiB of address space up to this N at any
# alpha^2; at 2^23 the folds of a sweep no longer fit.
MAX_N_STATES = 2 ** 22
# coefficient_grid works in blocks of at most this many entries per array, so
# its memory is bounded whatever the grid length, N or alpha^2.
GRID_BLOCK = 2 ** 16


def _real(value, name: str) -> float:
    """float(value) for a real number, else DomainError naming the value."""
    # float() would take these, numpy complex scalars as their real part.
    if not isinstance(value, (bool, np.bool_, str, bytes, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of the alphabet: state count N and mean photon number.

    alpha_sq is stored as a float, with -0.0 stored as 0.0. The spec is a
    value: ==, hash, repr and pickling see only these two fields. It also
    carries its coefficient profile, evaluated on first use: one evaluation
    per spec object, shared by every call that is handed the same spec (see
    coefficients).
    """

    n_states: int
    alpha_sq: float

    def __post_init__(self) -> None:
        if isinstance(self.n_states, bool) or not isinstance(self.n_states, (int, np.integer)):
            raise DomainError(f"n_states must be an integer, got {self.n_states!r}")
        if self.n_states < 2:
            raise DomainError(f"n_states must be >= 2, got {self.n_states}")
        if self.n_states > MAX_N_STATES:
            raise DomainError(f"n_states must be <= {MAX_N_STATES}, got {self.n_states}")
        a2 = _real(self.alpha_sq, "alpha_sq")
        if not math.isfinite(a2) or a2 < 0.0:
            raise DomainError(f"alpha_sq must be finite and >= 0, got {a2}")
        if a2 > MAX_ALPHA_SQ:
            raise DomainError(f"alpha_sq must be <= {MAX_ALPHA_SQ:g}, got {a2}")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "alpha_sq", a2 + 0.0)   # -0.0 + 0.0 is 0.0

    def __getstate__(self) -> dict:
        # Pickle and copy the fields only: a profile is rebuilt on first use,
        # and unpickled arrays would come back writeable.
        return {"n_states": self.n_states, "alpha_sq": self.alpha_sq}

    @functools.cached_property
    def _profile(self) -> CoefficientProfile:
        """The body of coefficients(), run once per spec object: the
        cached_property stores its result in the instance __dict__, which
        the frozen dataclass leaves writeable."""
        n = self.n_states
        a2 = self.alpha_sq
        c_sq = _fold(a2, n, math.floor(a2))

        c_min_sq = float(c_sq.min())
        band = DEGENERACY_TOL * max(c_min_sq, 1e-300)
        degenerate_mask = c_sq - c_min_sq <= band
        c_min = math.sqrt(c_min_sq)
        multiplicity = int(degenerate_mask.sum())
        # The square of the rounded c_min, not c_min_sq: the two differ in
        # the last bit on many points, and the output keeps this form's.
        p_s = min(1.0, n * (c_min * c_min))
        full_separation = 1.0 - p_s < FULL_SEPARATION_EPS or multiplicity == n
        b, spectrum = _failure_branch(c_sq, degenerate_mask, p_s / n,
                                      math.nan if full_separation else 1.0 - p_s)

        return CoefficientProfile(
            alpha_sq=a2,
            c_sq=_frozen(c_sq),
            c=_frozen(np.sqrt(c_sq)),
            c_min=c_min,
            multiplicity=multiplicity,
            degenerate_mask=_frozen(degenerate_mask),
            p_s=p_s,
            b=_frozen(b),
            spectrum=_frozen(spectrum),
            full_separation=full_separation,
        )


@dataclass(frozen=True)
class CoefficientProfile:
    """Everything an (N, alpha^2) point fixes: coefficients, separation
    success probability and failure profile. From coefficients, one point:
    scalars and length-N arrays. From coefficient_grid, a block of rows, row
    r for alpha_sq[r]: (rows, N) arrays and columns, the properties too.

    c_sq[j] is the squared coefficient of basis vector j (a probability),
    c[j] its nonnegative square root. c_min is the smallest coefficient, 0
    when an entry underflows (the vacuum alphabet, or tiny alpha^2 at large
    N); multiplicity counts the entries whose c_sq lies within the
    degeneracy band of c_min**2 (degenerate_mask marks them). degenerate is
    set when exactly one c_sq is nonzero (all states coincide: the vacuum
    alphabet).

    p_s = N * c_min^2 is the optimal unambiguous success probability,
    clamped at 1 (rounding lifts it above on rows that separate fully). b is
    the coefficient vector of the normalized failure states,
    b[j] = sqrt((c_j^2 - p_s/N) / (1 - p_s)), clamped at zero and exactly
    zero on entries degenerate with c_min. spectrum[k] = (1/N) |sum_l
    w^(-kl) b_l|^2 is the failure spectrum of b (one FFT, see
    _failure_branch): the failure posterior is it normalised, and the
    failure block of the joint distribution is (1 - p_s) times it, shifted.
    failure_dim = N - multiplicity is the dimension spanned by the failure
    set.

    full_separation marks an empty failure branch, where b and spectrum are
    NaN: 1 - p_s < FULL_SEPARATION_EPS, or every entry is degenerate with
    c_min (the failure space then has dimension zero though p_s has not
    numerically reached 1). The vacuum alphabet has p_s = 0 and a
    one-dimensional failure space.
    """

    alpha_sq: float
    c_sq: np.ndarray
    c: np.ndarray
    c_min: float
    multiplicity: int
    degenerate_mask: np.ndarray
    p_s: float
    b: np.ndarray
    spectrum: np.ndarray
    full_separation: bool

    @property
    def n_states(self) -> int:
        return self.c_sq.shape[-1]

    @property
    def failure_dim(self):
        return self.n_states - self.multiplicity

    @functools.cached_property
    def degenerate(self):
        # Kept on first read; np.count_nonzero along an axis is numpy's slow path.
        return (self.c_sq != 0.0).sum(axis=-1) == 1

    def view(self, record: type, **fields):
        """record(**fields), fields being figures of this profile: Python
        scalars for one point, a float for every field but a bool, and the
        columns as given for a grid block."""
        if self.c_sq.ndim == 1:
            fields = {k: v if type(v) is bool else float(v) for k, v in fields.items()}
        return record(**fields)


@dataclass(frozen=True)
class BasisAmplitudes:
    """Fock-space amplitudes of |alpha>: the read-only Poisson ladder
    amps[k] = sqrt(p_k), k = 0..cutoff, state k in residue class k mod N.
    tail_mass bounds the Poisson weight discarded by the truncation.
    """

    cutoff: int
    amps: np.ndarray
    tail_mass: float


def coefficients(spec: EnsembleSpec) -> CoefficientProfile:
    """Evaluate the squared coefficients, classify the minimum, and decide
    the failure branch once: p_s, b, its spectrum and full_separation as
    CoefficientProfile describes them.

    c_j^2 is the Poisson weight e^(-alpha^2) alpha^(2k)/k! summed over
    k = j (mod N): running products outward from the mode, over the N terms
    around it and 12*sqrt(floor(alpha^2) + 1) + 40 more on each side,
    normalised by their total. Every term is positive, so each entry keeps
    full relative precision down to underflow; np.longdouble, where it is
    wider than a double, makes the entries correctly rounded. Entries within
    DEGENERACY_TOL * max(c_min^2, 1e-300) of c_min^2 count toward the
    multiplicity. coefficient_grid gives the same record, bit for bit, as
    columns over many alpha^2 at once.

    One evaluation per spec object: the profile is computed on the first
    call and kept on the spec, so every later call with the same spec object
    returns the same frozen CoefficientProfile. Equal but distinct specs
    each evaluate once, to bitwise-equal profiles.
    """
    return spec._profile


def coefficient_grid(n: int, alpha_sq) -> Iterator[CoefficientProfile]:
    """coefficients over a 1-D array of alpha^2 values, as consecutive
    CoefficientProfile blocks of at most GRID_BLOCK // N rows each.

    Row r of the blocks is bit for bit coefficients(EnsembleSpec(n,
    alpha_sq[r])): every value is checked as EnsembleSpec checks it, and
    consecutive values that share the Poisson mode floor(alpha^2) are
    folded in one pass.
    """
    n = EnsembleSpec(n, 0.0).n_states     # checks N as every point would
    cells = alpha_sq if isinstance(alpha_sq, np.ndarray) else np.array(alpha_sq, dtype=object)
    if cells.dtype.kind in "bcOSU":
        cells = np.reshape([_real(v, "alpha_sq") for v in cells.ravel().tolist()], cells.shape)
    a2 = np.asarray(cells, dtype=float) + 0.0     # -0.0 + 0.0 is 0.0, as in EnsembleSpec
    if a2.ndim != 1:
        raise DomainError(f"alpha_sq must be a 1-D array, got shape {a2.shape}")
    bad = ~((a2 >= 0.0) & (a2 <= MAX_ALPHA_SQ))
    if bad.any():
        EnsembleSpec(n, float(a2[bad][0]))    # raises with EnsembleSpec's message
    rows = max(1, GRID_BLOCK // n)
    for start in range(0, a2.size, rows):
        chunk = a2[start:start + rows]
        yield _classify(chunk, _fold_runs(chunk, n))


def _fold_runs(a2: np.ndarray, n: int) -> np.ndarray:
    """c_sq for every alpha^2 in a2: one _fold per run of consecutive values
    sharing the Poisson mode floor(alpha^2), and so sharing one window,
    split so that a fold holds at most GRID_BLOCK terms."""
    modes = np.floor(a2)
    c_sq = np.empty((a2.size, n))
    cuts = (np.flatnonzero(np.diff(modes)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, a2.size]):
        mode = int(modes[lo])
        # A fold spans fewer than 2 * half + 2 * N terms per row.
        step = max(1, GRID_BLOCK // (2 * _half(n, mode) + 2 * n))
        for s in range(lo, hi, step):
            e = min(hi, s + step)
            c_sq[s:e] = _fold(a2[s:e], n, mode)
    return c_sq


def _half(n: int, mode: int) -> int:
    """Fold half-width: 12*sqrt(alpha^2) + 40 past N for all alpha^2 in [mode, mode + 1)."""
    return n + math.ceil(12.0 * math.sqrt(mode + 1)) + 40


def _fold(a2: float | np.ndarray, n: int, mode: int) -> np.ndarray:
    """c_sq (..., N) for alpha^2 values a2 (...) whose Poisson mode is mode,
    folded in np.longdouble: the terms k in [mode - half, mode + half] with
    half = _half(n, mode), widened to whole multiples of N, summed mod N. The
    window depends on N and the mode only, so every row of a run folds
    exactly as its own one-point fold does."""
    half = _half(n, mode)
    low = max(0, mode - half) // n * n
    high = -(-(mode + half + 1) // n) * n
    weights = _running_products(np.asarray(a2, np.longdouble)[..., None], mode, low, high)
    sums = weights.reshape(*weights.shape[:-1], -1, n).sum(axis=-2)   # [..., p, j]: k = low + p*N + j
    return (sums / sums.sum(axis=-1, keepdims=True)).astype(float)


def _running_products(a2: np.ndarray, mode: int, low: int, high: int) -> np.ndarray:
    """Poisson weights of k = low..high-1 relative to the mode's, for the
    np.longdouble alpha^2 values a2 (..., 1): running products outward from
    the mode, a2/k going up and k/a2 going down. Every factor is positive,
    so every weight keeps full relative precision down to underflow.
    multiply.accumulate is np.cumprod without its Python-level dispatch."""
    up = np.multiply.accumulate(a2 / np.arange(mode + 1, high, dtype=np.longdouble), axis=-1)
    down = np.multiply.accumulate(np.arange(mode, low, -1, dtype=np.longdouble) / a2, axis=-1)
    return np.concatenate((down[..., ::-1], np.ones(a2.shape, np.longdouble), up), axis=-1)


def _classify(alpha_sq: np.ndarray, c_sq: np.ndarray) -> CoefficientProfile:
    """The classification of coefficients(), on every row of c_sq at once.

    coefficients() keeps its one-row form because numpy calls on one row
    cost more than the Python scalars it uses; both form b and its spectrum
    with _failure_branch, and tests hold the two equal bit for bit.
    """
    n = c_sq.shape[1]
    c_min_sq = c_sq.min(axis=1)
    band = (DEGENERACY_TOL * np.maximum(c_min_sq, 1e-300))[:, None]
    degenerate_mask = c_sq - c_min_sq[:, None] <= band
    multiplicity = degenerate_mask.sum(axis=1)
    c_min = np.sqrt(c_min_sq)
    p_s = np.minimum(1.0, n * (c_min * c_min))
    empty = (1.0 - p_s < FULL_SEPARATION_EPS) | (multiplicity == n)
    b, spectrum = _failure_branch(c_sq, degenerate_mask, (p_s / n)[:, None],
                                  np.where(empty, np.nan, 1.0 - p_s)[:, None])
    return CoefficientProfile(
        alpha_sq=alpha_sq,
        c_sq=c_sq,
        c=np.sqrt(c_sq),
        c_min=c_min,
        multiplicity=multiplicity,
        degenerate_mask=degenerate_mask,
        p_s=p_s,
        b=b,
        spectrum=spectrum,
        full_separation=empty,
    )


def _failure_branch(c_sq: np.ndarray, degenerate_mask: np.ndarray,
                    share, divisor) -> tuple[np.ndarray, np.ndarray]:
    """The failure profile b and its spectrum for coefficients c_sq (..., N):
    b_j = sqrt((c_j^2 - share) / divisor), zero on the degenerate entries,
    and spectrum[k] = (1/N) |sum_l w^(-kl) b_l|^2, one FFT of b along its
    last axis. One point passes share = p_s/N and divisor = 1 - p_s as
    floats, a grid block passes them as (rows, 1) columns; a NaN divisor
    marks an empty branch and makes b, and so the spectrum, NaN.

    The spectrum equals the double sum (1/N) * sum_{l,m} w^(-k(l-m)) b_l b_m
    and, since b is real, is symmetric under k -> -k. Nonnegative by
    construction.
    """
    raw = c_sq - share
    raw[degenerate_mask] = 0.0
    raw /= divisor
    # Clamp before the square root: rounding can land c_j^2 - p_s/N
    # near -1e-17 on entries that are analytically zero.
    b = np.sqrt(np.maximum(raw, 0.0))
    return b, np.square(np.abs(np.fft.fft(b))) / b.shape[-1]


def basis_amplitudes(spec: EnsembleSpec, tail_eps: float) -> BasisAmplitudes:
    """The Fock ladder sqrt(p_k), k = 0..cutoff, of the Poisson weights p_k =
    e^(-alpha^2) alpha^(2k) / k!: |alpha w^m> puts e^(-alpha^2/2) alpha^k
    w^(mk) / sqrt(k!) = w^(mk) sqrt(p_k) on |k>, in residue class k mod N.
    Nothing is read from the coefficients.

    The cutoff is the smallest n_max >= N-1 whose Poisson tail mass
    P(X > n_max) is below tail_eps, a real number in (0, 1e-6], capped at
    FOCK_CAP; CutoffOverflow is raised when no cutoff up to it suffices. The
    weights p_k, k = 0..top, are running products outward from the mode
    floor(alpha^2) in np.longdouble, normalised by their sum, as
    coefficients() folds them; the tails are their suffix sums, taken
    smallest term first.

    The ladder runs a margin past the cutoff: the fold's reach past the
    mode, _half(0, mode). Past a cutoff m, whose tail is below 1e-6, the
    weights fall by alpha^2/(k + 1) per step, and the weight beyond m +
    margin is under 1e-56 of P(X > m) (checked with mpmath for alpha^2 from
    1e-4 to 4096), far below 2^-64. Tails summed over a ladder that ends at
    top miss only the weight past top, so they may read low, never high: a
    candidate whose tail reads at least tail_eps truly has one. A first hit
    is kept once the ladder runs the margin past it. The ladder is built at
    most twice: first to a top that holds the cutoff of every tail target
    down to ~1e-30, then, only when that top has no hit with the margin past
    it, to FOCK_CAP + margin, which holds every cutoff the cap allows.

    Where np.longdouble is wider than a double, each p_k is good to a few
    long-double ulp and each amplitude to about one double ulp. Where it is a
    plain double, the running products lose about |k - mode| ulp of p_k,
    which is no worse than evaluating alpha^k / sqrt(k!) in log space.
    """
    tail_eps = _real(tail_eps, "tail_eps")
    if not (0.0 < tail_eps <= 1e-6):
        raise DomainError(f"tail_eps must be in (0, 1e-6], got {tail_eps}")
    n = spec.n_states
    a2 = spec.alpha_sq
    mode = math.floor(a2)
    margin = _half(0, mode)
    # From mode FOCK_CAP up P(X > FOCK_CAP) is about 1/2 or more, and with
    # N - 1 > FOCK_CAP no cutoff fits.
    if mode < FOCK_CAP and n - 1 <= FOCK_CAP:
        for top in (max(n - 1, mode + margin) + margin, FOCK_CAP + margin):
            weights = _running_products(np.array([a2], np.longdouble), mode, 0, top + 1)
            p = weights / weights.sum()
            tails = np.add.accumulate(p[:0:-1])[::-1].astype(float)   # tails[m] = P(m < X <= top)
            hits = (tails[n - 1:FOCK_CAP + 1] < tail_eps).nonzero()[0] + (n - 1)   # cutoffs
            if hits.size and top >= hits[0] + margin:
                n_max = int(hits[0])
                amps = _frozen(np.sqrt(p[:n_max + 1]).astype(float))
                return BasisAmplitudes(cutoff=n_max, amps=amps, tail_mass=float(tails[n_max]))
    raise CutoffOverflow(f"no cutoff <= {FOCK_CAP} reaches tail mass {tail_eps} at alpha_sq={a2}")
