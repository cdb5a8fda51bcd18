"""Phase-symmetric coherent-state alphabet.

An alphabet is the set of N coherent states alpha * w^k with w = exp(2*pi*i/N)
and alpha real, all equiprobable. Every derived quantity depends on alpha only
through the mean photon number alpha^2. This module computes the exact
finite-sum decomposition of the alphabet: the amplitude coefficients c_j over
the symmetric orthonormal basis together with the separation success
probability and failure profile they fix, the Gram matrix of mutual overlaps,
and the Fock-space amplitudes of the basis vectors.

Everything here needs numpy alone. The coefficients and the Fock route share
one construction: Poisson weights p_k = e^(-alpha^2) alpha^(2k) / k! as
running products outward from the mode floor(alpha^2), in np.longdouble. The
coefficients fold them mod N; basis_amplitudes takes the amplitudes
<k|phi_j> = sqrt(p_k) / c_j from them and the tails P(X > m) as their suffix
sums, smallest term first. Where np.longdouble is a plain double, a weight
loses about |k - mode| ulp, no worse than the log-space route through
lgamma.
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
# coefficient_grid works in blocks of at most this many entries per array, so
# its memory is bounded whatever the grid length, N or alpha^2.
GRID_BLOCK = 2 ** 16


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
        try:
            a2 = float(self.alpha_sq)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"alpha_sq must be a real number, got {self.alpha_sq!r}") from exc
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

        c = np.sqrt(c_sq)
        c_min_sq = float(c_sq.min())
        band = DEGENERACY_TOL * max(c_min_sq, 1e-300)
        gaps = c_sq - c_min_sq
        degenerate_mask = gaps <= band
        near_band_edge = bool(((gaps >= band / 10.0) & (gaps <= band * 10.0)).any())

        c_min = math.sqrt(c_min_sq)
        multiplicity = int(degenerate_mask.sum())
        p_s = n * c_min ** 2
        b = None
        if _empty_branch(n, p_s, multiplicity) is None:
            # Clamp before the square root: rounding can land c_j^2 - p_s/N
            # near -1e-17 on entries that are analytically zero.
            raw = (c_sq - p_s / n) / (1.0 - p_s)
            raw[degenerate_mask] = 0.0
            b = _frozen(np.sqrt(np.maximum(raw, 0.0)))

        return CoefficientProfile(
            c_sq=_frozen(c_sq),
            c=_frozen(c),
            c_min=c_min,
            multiplicity=multiplicity,
            degenerate_mask=_frozen(degenerate_mask),
            degenerate=int(np.count_nonzero(c_sq)) == 1,
            near_band_edge=near_band_edge,
            p_s=p_s,
            b=b,
            failure_dim=n - multiplicity,
        )


@dataclass(frozen=True)
class CoefficientProfile:
    """Everything one (N, alpha^2) point fixes: coefficients, separation
    success probability and failure profile.

    c_sq[j] is the squared coefficient of basis vector j (a probability),
    c[j] its nonnegative square root. c_min is the smallest coefficient, 0
    when an entry underflows (the vacuum alphabet, or tiny alpha^2 at large
    N); multiplicity counts the entries whose c_sq lies within the
    degeneracy band of c_min**2 (degenerate_mask marks them). degenerate is
    set when exactly one c_sq is nonzero (all states coincide: the vacuum
    alphabet); near_band_edge warns that some gap sits within a factor of 10
    of the degeneracy band, where the multiplicity count is
    resolution-limited.

    p_s = N * c_min^2 is the optimal unambiguous success probability. b is
    the coefficient vector of the normalized failure states,
    b[j] = sqrt((c_j^2 - p_s/N) / (1 - p_s)), clamped at zero and exactly
    zero on entries degenerate with c_min; it is None exactly when the
    failure branch is empty (1 - p_s < FULL_SEPARATION_EPS, or every entry
    is degenerate with c_min). failure_dim = N - multiplicity is the
    dimension spanned by the failure set.
    """

    c_sq: np.ndarray
    c: np.ndarray
    c_min: float
    multiplicity: int
    degenerate_mask: np.ndarray
    degenerate: bool
    near_band_edge: bool
    p_s: float
    b: np.ndarray | None
    failure_dim: int

    @property
    def n_states(self) -> int:
        return self.c_sq.shape[0]


@dataclass(frozen=True)
class CoefficientBlock:
    """CoefficientProfile for a block of alpha^2 values at one N, less the
    flags degenerate and near_band_edge.

    Row r belongs to alpha_sq[r]: c_sq, c, degenerate_mask and b are
    (rows, N) arrays, every other field a column with one entry per row.
    b is NaN on the rows whose failure branch is empty, and
    full_separation marks those rows.
    """

    alpha_sq: np.ndarray
    c_sq: np.ndarray
    c: np.ndarray
    c_min: np.ndarray
    multiplicity: np.ndarray
    degenerate_mask: np.ndarray
    p_s: np.ndarray
    b: np.ndarray
    failure_dim: np.ndarray
    full_separation: np.ndarray


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
    """Evaluate the squared coefficients, classify the minimum, and decide
    the failure branch once: p_s, b and failure_dim as CoefficientProfile
    describes them.

    c_j^2 is the Poisson weight e^(-alpha^2) alpha^(2k)/k! summed over
    k = j (mod N): running products outward from the mode, over the N terms
    around it and 12*sqrt(floor(alpha^2) + 1) + 40 more on each side,
    normalised by their total. Every term is positive, so each entry keeps
    full relative precision down to underflow; np.longdouble, where it is
    wider than a double, makes the entries correctly rounded. Entries within
    DEGENERACY_TOL * max(c_min^2, 1e-300) of c_min^2 count toward the
    multiplicity. coefficient_grid gives the same c_sq, p_s, b and
    failure decision, bit for bit, for many alpha^2 at once.

    One evaluation per spec object: the profile is computed on the first
    call and kept on the spec, so every later call with the same spec object
    returns the same frozen CoefficientProfile. Equal but distinct specs
    each evaluate once, to bitwise-equal profiles.
    """
    return spec._profile


def coefficient_grid(n: int, alpha_sq) -> Iterator[CoefficientBlock]:
    """coefficients over a 1-D array of alpha^2 values, as consecutive
    CoefficientBlocks of at most GRID_BLOCK // N rows each.

    Row r of the blocks is bit for bit coefficients(EnsembleSpec(n,
    alpha_sq[r])): every value is checked as EnsembleSpec checks it, and
    consecutive values that share the Poisson mode floor(alpha^2) are
    folded in one pass.
    """
    n = EnsembleSpec(n, 0.0).n_states     # checks N as every point would
    a2 = np.asarray(alpha_sq, dtype=float)
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


def _classify(alpha_sq: np.ndarray, c_sq: np.ndarray) -> CoefficientBlock:
    """The classification of coefficients(), on every row of c_sq at once.

    coefficients() keeps its one-row form because numpy calls on one row
    cost more than the Python scalars it uses; tests hold the two equal bit
    for bit.
    """
    n = c_sq.shape[1]
    c_min_sq = c_sq.min(axis=1)
    band = (DEGENERACY_TOL * np.maximum(c_min_sq, 1e-300))[:, None]
    degenerate_mask = c_sq - c_min_sq[:, None] <= band
    multiplicity = degenerate_mask.sum(axis=1)
    c_min = np.sqrt(c_min_sq)
    # float_power is libm pow, as Python's float ** 2; numpy's x**2 is x*x.
    p_s = n * np.float_power(c_min, 2.0)
    empty = (1.0 - p_s < FULL_SEPARATION_EPS) | (multiplicity == n)
    raw = c_sq - (p_s / n)[:, None]
    raw[degenerate_mask] = 0.0
    # Dividing by NaN makes b NaN on empty rows.
    raw /= np.where(empty, np.nan, 1.0 - p_s)[:, None]
    return CoefficientBlock(
        alpha_sq=alpha_sq,
        c_sq=c_sq,
        c=np.sqrt(c_sq),
        c_min=c_min,
        multiplicity=multiplicity,
        degenerate_mask=degenerate_mask,
        p_s=p_s,
        b=np.sqrt(np.maximum(raw, 0.0)),
        failure_dim=n - multiplicity,
        full_separation=empty,
    )


def _empty_branch(n: int, p_s: float, multiplicity: int) -> str | None:
    """Why the failure branch of a point is empty, or None when it is not.

    It is empty when 1 - p_s < FULL_SEPARATION_EPS, or when every
    coefficient lies in the degeneracy band of c_min: then the declared
    failure space has dimension zero even though p_s has not numerically
    reached 1 (large alphabets near orthogonality). The vacuum alphabet has
    p_s = 0 and a one-dimensional failure space.
    """
    if 1.0 - p_s < FULL_SEPARATION_EPS:
        return f"separation succeeds with probability {p_s}; no failure states exist"
    if multiplicity == n:
        return (f"all {n} live coefficients are degenerate "
                f"with c_min; failure space is empty (p_s={p_s})")
    return None


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


def check_tail_eps(tail_eps: float) -> None:
    """Raise DomainError unless the Poisson tail target lies in (0, 1e-6]."""
    if not (0.0 < tail_eps <= 1e-6):
        raise DomainError(f"tail_eps must be in (0, 1e-6], got {tail_eps}")


def basis_amplitudes(spec: EnsembleSpec, tail_eps: float) -> BasisAmplitudes:
    """Fock amplitudes <k|phi_j> = sqrt(p_k) / c_j on the ladder k = j + p*N,
    where p_k = e^(-alpha^2) alpha^(2k) / k! is the Poisson weight of the
    coherent states: |alpha w^m> = sum_j c_j w^(mj) |phi_j> puts the
    amplitude e^(-alpha^2/2) alpha^k / sqrt(k!) = c_j <k|phi_j> on |k>. A row
    whose c_j underflows to 0 stays zero.

    The cutoff is the smallest n_max >= N-1 whose Poisson tail mass
    P(X > n_max) is below tail_eps, capped at FOCK_CAP; CutoffOverflow is
    raised when no cutoff up to it suffices. The weights p_k, k = 0..top,
    are running products outward from the mode floor(alpha^2) in
    np.longdouble, normalised by their sum, as coefficients() folds them;
    the tails are their suffix sums, taken smallest term first. The ladder
    runs _half(0, mode) terms past the cutoff, where the terms it drops add
    less than 2^-64 of the tail at the cutoff (see _poisson_ladder).

    Where np.longdouble is wider than a double, each p_k is good to a few
    long-double ulp and each amplitude to about one double ulp. Where it is a
    plain double, the running products lose about |k - mode| ulp of p_k,
    which is no worse than evaluating alpha^k / sqrt(k!) in log space.
    """
    check_tail_eps(tail_eps)
    n = spec.n_states
    a2 = spec.alpha_sq
    ladder = _poisson_ladder(a2, n, tail_eps)
    if ladder is None:
        raise CutoffOverflow(f"no cutoff <= {FOCK_CAP} reaches tail mass {tail_eps} "
                             f"at alpha_sq={a2}")
    n_max, p, tail_mass = ladder

    # Every k in one pass, on row k mod N; dividing by inf keeps a row whose
    # c_j is 0 at zero.
    c = coefficients(spec).c
    c = np.where(c > 0.0, c, np.inf)
    ks = np.arange(n_max + 1)
    rows = ks % n
    amps = np.zeros((n, n_max + 1))
    amps[rows, ks] = np.sqrt(p[:n_max + 1]) / c[rows]
    return BasisAmplitudes(cutoff=n_max, amps=_frozen(amps), tail_mass=tail_mass)


def _poisson_ladder(a2: float, n: int, tail_eps: float) -> tuple[int, np.ndarray, float] | None:
    """(n_max, p, tail) for basis_amplitudes: the cutoff, the normalised
    np.longdouble Poisson weights p_k for k = 0..top with top >= n_max +
    margin, and the tail P(X > n_max) as a double; None when no cutoff <=
    FOCK_CAP reaches tail_eps.

    The margin is the fold's reach past the mode, _half(0, mode). Past a
    cutoff m, whose tail is below 1e-6, the weights fall by a2/(k + 1) per
    step, and the weight beyond m + margin is under 1e-56 of P(X > m)
    (checked with mpmath for alpha^2 from 1e-4 to 4096), far below 2^-64.

    Tails summed over a ladder that ends at top miss only the weight past
    top, so they may read low, never high: a candidate whose tail reads at
    least tail_eps truly has one. A first hit is kept once the ladder runs
    the margin past it; until then the ladder grows, from a top that holds
    the cutoff of every tail target down to ~1e-30.
    """
    mode = math.floor(a2)
    if mode >= FOCK_CAP:
        return None    # P(X > FOCK_CAP) is then about 1/2 or more
    margin = _half(0, mode)
    top = max(n - 1, mode + margin) + margin
    while True:
        weights = _running_products(np.array([a2], np.longdouble), mode, 0, top + 1)
        p = weights / weights.sum()
        tails = np.add.accumulate(p[:0:-1])[::-1].astype(float)   # tails[m] = P(m < X <= top)
        hits = (tails[n - 1:FOCK_CAP + 1] < tail_eps).nonzero()[0]
        if hits.size:
            n_max = n - 1 + int(hits[0])
            if top >= n_max + margin:
                return n_max, p, float(tails[n_max])
            top = n_max + margin
        elif top > FOCK_CAP:
            return None
        else:
            top *= 2
