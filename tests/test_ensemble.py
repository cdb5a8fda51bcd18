"""Coefficient profile, Gram matrix, and truncated Fock amplitudes."""

import copy
import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest
from scipy import special

from cvdisc import (
    CoefficientProfile,
    CutoffOverflow,
    DomainError,
    EnsembleSpec,
    basis_amplitudes,
    build_workspace,
    coefficient_grid,
    coefficients,
    ensemble,
    gram,
    info_report,
    ir_report,
    joint_distribution,
)
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.ensemble import FOCK_CAP, MAX_N_STATES, TAIL_EPS

# Independently derived at (N=3, alpha^2=1) from Poisson block sums.
C_SQ_3_1 = [0.429704639580390, 0.383280844609673, 0.187014515809936]


def poisson_block(n_states, alpha_sq, j, terms=500):
    """Oracle for c_j^2: e^(-a) * sum_p a^(j+pN) / (j+pN)! in log space."""
    if alpha_sq == 0.0:
        return 1.0 if j == 0 else 0.0
    log_a = math.log(alpha_sq)
    total = 0.0
    for p in range(terms):
        k = j + p * n_states
        total += math.exp(-alpha_sq + k * log_a - math.lgamma(k + 1))
    return total


# --- EnsembleSpec validation ---------------------------------------------


@pytest.mark.parametrize("n_states", [1, 0, -2, 2.5, "3", True])
def test_spec_rejects_bad_n(n_states):
    with pytest.raises(DomainError):
        EnsembleSpec(n_states, 1.0)


def test_spec_n_cap_is_inclusive():
    # Validation runs before anything of size N is allocated.
    assert EnsembleSpec(MAX_N_STATES, 1.0).n_states == MAX_N_STATES
    with pytest.raises(DomainError, match=f"n_states must be <= {MAX_N_STATES}"):
        EnsembleSpec(MAX_N_STATES + 1, 1.0)


@pytest.mark.parametrize("alpha_sq", [-1.0, -1e-12, math.inf, math.nan, "x", 1.0000001e8,
                                      True, np.True_, "1.5", b"2", np.complex128(1.0)])
def test_spec_rejects_bad_alpha_sq(alpha_sq):
    with pytest.raises(DomainError):
        EnsembleSpec(3, alpha_sq)


def test_spec_normalizes_types():
    spec = EnsembleSpec(np.int64(4), np.float64(2.0))
    assert isinstance(spec.n_states, int)
    assert isinstance(spec.alpha_sq, float)


def test_spec_drops_the_sign_of_zero():
    spec = EnsembleSpec(3, -0.0)
    assert math.copysign(1.0, spec.alpha_sq) == 1.0
    assert repr(spec) == repr(EnsembleSpec(3, 0.0))


# --- coefficients ----------------------------------------------------------


def test_vacuum_profile_is_exact():
    profile = coefficients(EnsembleSpec(3, 0.0))
    assert profile.c_sq.tolist() == [1.0, 0.0, 0.0]
    assert profile.c.tolist() == [1.0, 0.0, 0.0]
    # Only c_0 is nonzero: c_min is 0, shared by the other N - 1 entries.
    assert profile.c_min == 0.0
    assert profile.multiplicity == 2
    assert profile.degenerate_mask.tolist() == [False, True, True]
    assert profile.degenerate


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vacuum_profile_any_n(n):
    profile = coefficients(EnsembleSpec(n, 0.0))
    assert profile.c_sq[0] == 1.0
    assert not profile.c_sq[1:].any()
    assert profile.multiplicity == n - 1
    assert profile.degenerate


def test_frozen_values_3_1():
    profile = coefficients(EnsembleSpec(3, 1.0))
    np.testing.assert_allclose(profile.c_sq, C_SQ_3_1, rtol=0, atol=1e-12)
    assert profile.multiplicity == 1
    assert not profile.degenerate


@pytest.mark.parametrize("n,alpha_sq", [
    (2, 0.3), (3, 1.0), (4, 2.0), (5, 0.7), (6, 3.5), (8, 1.2),
])
def test_block_sum_oracle(n, alpha_sq):
    profile = coefficients(EnsembleSpec(n, alpha_sq))
    expect = [poisson_block(n, alpha_sq, j) for j in range(n)]
    np.testing.assert_allclose(profile.c_sq, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_normalization_invariant(n):
    for a2 in np.linspace(0.05, 10.0, 200):
        profile = coefficients(EnsembleSpec(n, float(a2)))
        assert abs(profile.c_sq.sum() - 1.0) < 1e-12


def test_cmin_matches_block_scan():
    n, a2 = 4, 2.0
    profile = coefficients(EnsembleSpec(n, a2))
    blocks = np.array([poisson_block(n, a2, j) for j in range(n)])
    assert profile.c_min == pytest.approx(math.sqrt(blocks.min()), abs=1e-12)
    assert np.argmin(profile.c_sq) == np.argmin(blocks)


def test_degeneracy_at_kink():
    profile = coefficients(EnsembleSpec(3, KINK_PERIOD))
    assert profile.multiplicity == 2
    assert profile.degenerate_mask.sum() == 2
    assert not profile.degenerate


def test_small_amplitude_entry_is_resolved():
    # c_2^2 ~ 5e-17 sits far below the resolution of a Fourier sum of O(1)
    # terms; the Poisson fold still gives it to full relative precision.
    a2 = 1e-8
    profile = coefficients(EnsembleSpec(3, a2))
    expect = math.exp(-a2) * (a2 ** 2 / 2 + a2 ** 5 / 120 + a2 ** 8 / 40320)
    assert profile.c_sq[2] > 0.0
    assert profile.c_sq[2] == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert profile.c_min == math.sqrt(profile.c_sq[2])
    assert profile.multiplicity == 1
    assert not profile.degenerate


@pytest.mark.parametrize("n,alpha_sq", [(3, 45.0), (3, 16.0), (2, 50.0), (3, 0.0), (3, 1.0),
                                        (8, 2.0)])
def test_empty_branch_has_one_form_on_both_routes(n, alpha_sq):
    # No field is ever None: b and spectrum are NaN exactly where
    # full_separation is set, on a one-point record and on a grid row alike.
    (block,) = coefficient_grid(n, [alpha_sq])
    profile = coefficients(EnsembleSpec(n, alpha_sq))
    for record in (profile, block):
        assert all(getattr(record, f.name) is not None for f in dataclasses.fields(record))
        for field in (record.b, record.spectrum):
            assert np.array_equal(np.isnan(field).all(axis=-1), record.full_separation)
            assert np.array_equal(np.isnan(field).any(axis=-1), record.full_separation)
    # One point: scalars, as the report lines print them.
    assert type(profile.full_separation) is bool and type(profile.p_s) is float
    assert type(profile.multiplicity) is int and type(profile.failure_dim) is int
    assert block.full_separation.tolist() == [profile.full_separation]


def test_profile_arrays_are_immutable():
    profile = coefficients(EnsembleSpec(3, 1.0))
    with pytest.raises(ValueError):
        profile.c_sq[0] = 0.5


# --- one evaluation per spec -------------------------------------------------


def bitwise_equal_profiles(p, q):
    for field in dataclasses.fields(CoefficientProfile):
        x, y = np.asarray(getattr(p, field.name)), np.asarray(getattr(q, field.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name


def count_folds(monkeypatch):
    """Count the evaluations of the coefficient fold, one per profile."""
    calls = []
    fold = ensemble._fold

    def counting(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(ensemble, "_fold", counting)
    return calls


def test_every_view_of_one_spec_shares_one_evaluation(monkeypatch):
    folds = count_folds(monkeypatch)
    spec = EnsembleSpec(4, 2.0)
    ir_report(spec)
    info_report(spec)
    joint_distribution(spec)
    build_workspace(spec, "phi")
    build_workspace(spec, "fock")
    assert len(folds) == 1
    # An equal but distinct spec is a new object with its own evaluation.
    coefficients(EnsembleSpec(4, 2.0))
    assert len(folds) == 2


@pytest.mark.parametrize("n,alpha_sq", [(5, 1.5), (3, 0.0), (3, 45.0), (64, 50.0)])
def test_the_memo_leaves_the_spec_a_value(n, alpha_sq):
    spec = EnsembleSpec(n, alpha_sq)
    before = (repr(spec), hash(spec), dataclasses.asdict(spec), pickle.dumps(spec))
    profile = coefficients(spec)
    assert coefficients(spec) is profile
    assert (repr(spec), hash(spec), dataclasses.asdict(spec), pickle.dumps(spec)) == before
    assert repr(spec) == f"EnsembleSpec(n_states={n}, alpha_sq={float(alpha_sq)!r})"

    twin = EnsembleSpec(n, alpha_sq)
    assert twin == spec and twin is not spec
    assert coefficients(twin) is not profile
    bitwise_equal_profiles(coefficients(twin), profile)

    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert clone == spec and hash(clone) == hash(spec)
        assert coefficients(clone) is not profile
        bitwise_equal_profiles(coefficients(clone), profile)

    for arr in (profile.c_sq, profile.c, profile.degenerate_mask, profile.b,
                profile.spectrum):
        assert arr is None or not arr.flags.writeable


# --- gram ------------------------------------------------------------------


def test_gram_identical_states():
    g = gram(EnsembleSpec(2, 0.0))
    np.testing.assert_array_equal(g, np.ones((2, 2)))


def test_gram_3_1_entry():
    g = gram(EnsembleSpec(3, 1.0))
    # <a_0|a_1> = exp(a^2 (w - 1)) with w - 1 = -3/2 + i sqrt(3)/2
    assert abs(g[0, 1]) == pytest.approx(math.exp(-1.5), abs=1e-15)
    assert np.angle(g[0, 1]) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_gram_structure():
    for n, a2 in ((2, 0.5), (3, 1.0), (5, 2.2), (7, 0.9)):
        g = gram(EnsembleSpec(n, a2))
        np.testing.assert_allclose(g, g.conj().T, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(np.diag(g), np.ones(n))
        idx = np.arange(n)
        np.testing.assert_allclose(g, g[(idx[:, None] - idx[None, :]) % n, 0],
                                   rtol=0, atol=1e-14)


def test_gram_orthogonality_limit():
    g = gram(EnsembleSpec(3, 40.0))
    off = g[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-26


@pytest.mark.parametrize("n,alpha_sq", [(3, 1.0), (4, 2.0), (6, 0.7)])
def test_gram_coefficient_consistency(n, alpha_sq):
    # G is the Fourier transform of the coefficient spectrum.
    profile = coefficients(EnsembleSpec(n, alpha_sq))
    g = gram(EnsembleSpec(n, alpha_sq))
    j = np.arange(n)
    for d in range(n):
        lhs = np.sum(profile.c_sq * np.exp(2j * np.pi * j * d / n))
        assert abs(lhs - g[0, d]) < 1e-10


def test_gram_eigenvalues_are_scaled_coefficients():
    n, a2 = 5, 1.3
    profile = coefficients(EnsembleSpec(n, a2))
    g = gram(EnsembleSpec(n, a2))
    eigs = np.sort(np.linalg.eigvalsh(g))
    np.testing.assert_allclose(eigs, np.sort(n * profile.c_sq), rtol=0, atol=1e-10)


# --- basis_amplitudes ------------------------------------------------------


# scipy's log-space route, gammainc tails and exp(... - gammaln/2) amplitudes,
# is good to about this relative error; at alpha^2 = 3500 it is off by 6e-12.
SCIPY_RTOL = 1e-11
TINY = np.finfo(float).tiny


@pytest.mark.parametrize("n,alpha_sq", [(3, 1.0), (4, 1.0), (4, 2.0), (8, 6.0), (64, 30.0)])
def test_basis_rows_are_orthogonal(n, alpha_sq):
    # Row j is the residue class k = j (mod N) of the ladder, c_j |phi_j>
    # less its class's tail: disjoint rows, so orthogonal, each no longer
    # than c_j, together holding all but the truncated weight.
    spec = EnsembleSpec(n, alpha_sq)
    amp = basis_amplitudes(spec, 1e-14)
    row_sq = np.bincount(np.arange(amp.cutoff + 1) % n, amp.amps ** 2, n)
    assert np.all(row_sq <= coefficients(spec).c_sq * (1.0 + 4e-16))
    assert row_sq.sum() == pytest.approx(1.0 - amp.tail_mass, rel=1e-15, abs=0.0)


def test_basis_reconstructs_coherent_state():
    a2 = 2.0
    amp = basis_amplitudes(EnsembleSpec(4, a2), 1e-14)
    ns = np.arange(amp.cutoff + 1)
    expect = np.exp(-a2 / 2 + ns * math.log(a2) / 2
                    - special.gammaln(ns + 1) / 2)
    assert amp.amps.shape == (amp.cutoff + 1,) and not amp.amps.flags.writeable
    np.testing.assert_allclose(amp.amps, expect, rtol=1e-14, atol=0.0)


def test_basis_vacuum():
    amp = basis_amplitudes(EnsembleSpec(3, 0.0), 1e-12)
    assert amp.cutoff == 2
    assert amp.tail_mass == 0.0
    assert amp.amps.tolist() == [1.0, 0.0, 0.0]


def test_tail_mass_matches_poisson_tail():
    amp = basis_amplitudes(EnsembleSpec(3, 2.5), 1e-10)
    assert amp.tail_mass <= 1e-10
    expect = float(special.gammainc(amp.cutoff + 1, 2.5))
    assert amp.tail_mass == pytest.approx(expect, rel=SCIPY_RTOL, abs=0.0)
    # Minimality: one level lower must miss the target.
    assert float(special.gammainc(amp.cutoff, 2.5)) > 1e-10


@pytest.mark.parametrize("tail_eps", [0.0, -1e-9, 1e-5, 1.0])
def test_tail_eps_validation(tail_eps):
    with pytest.raises(DomainError):
        basis_amplitudes(EnsembleSpec(3, 1.0), tail_eps)


def test_cutoff_overflow():
    with pytest.raises(CutoffOverflow):
        basis_amplitudes(EnsembleSpec(3, 5000.0), 1e-12)


def test_fock_cap_is_fixed():
    assert FOCK_CAP == 4096
    # A cutoff just under the cap is reached; the overflow names the cap.
    amp = basis_amplitudes(EnsembleSpec(3, 3500.0), 1e-12)
    assert 3500 < amp.cutoff <= FOCK_CAP
    with pytest.raises(CutoffOverflow, match="no cutoff <= 4096 "):
        basis_amplitudes(EnsembleSpec(3, 4000.0), 1e-12)


def test_ladder_is_built_at_most_twice(monkeypatch):
    # A tail target far below ~1e-30 outruns the first ladder; the second
    # runs to FOCK_CAP and holds the cutoff.
    calls = []
    original = ensemble._running_products

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ensemble, "_running_products", counting)
    amp = basis_amplitudes(EnsembleSpec(8, 6.0), 1e-300)
    assert amp.cutoff == 249
    assert len(calls) <= 2


def full_scan_basis(spec, tail_eps):
    """Reference for basis_amplitudes in scipy's log space: one gammainc pass
    over every candidate cutoff N-1..FOCK_CAP, first hit, then the
    amplitudes exp(-alpha^2/2) alpha^k / sqrt(k!) computed one row j at a
    time on its ladder k = j + p*N. Returns the cutoff, the tail and the
    amplitudes, ladder[k] for k = 0..cutoff."""
    n, a2 = spec.n_states, spec.alpha_sq
    candidates = np.arange(n - 1, FOCK_CAP + 1)
    tails = special.gammainc(candidates + 1.0, a2) if a2 > 0 else np.zeros(candidates.size)
    below = np.nonzero(tails < tail_eps)[0]
    if below.size == 0:
        raise CutoffOverflow(f"no cutoff <= {FOCK_CAP} reaches tail mass {tail_eps} "
                             f"at alpha_sq={a2}")
    n_max = int(candidates[below[0]])
    log_alpha = 0.5 * math.log(a2) if a2 > 0 else -math.inf
    ladder = np.zeros(n_max + 1)
    for j in range(n):
        ks = np.arange(j, n_max + 1, n)
        with np.errstate(invalid="ignore"):
            log_pow = np.where(ks == 0, 0.0, ks * log_alpha)
        ladder[ks] = np.exp(-0.5 * a2 + log_pow - 0.5 * special.gammaln(ks + 1.0))
    return n_max, float(tails[below[0]]), ladder


def assert_matches_full_scan(n, alpha_sq, tail_eps):
    """The cutoff, or the CutoffOverflow message, exactly as the scipy scan
    finds it; the tail and the amplitudes within scipy's own error."""
    spec = EnsembleSpec(n, alpha_sq)
    try:
        n_max, tail, ladder = full_scan_basis(spec, tail_eps)
    except CutoffOverflow as exc:
        with pytest.raises(CutoffOverflow) as got:
            basis_amplitudes(spec, tail_eps)
        assert str(got.value) == str(exc)
        return None
    amp = basis_amplitudes(spec, tail_eps)
    assert amp.cutoff == n_max
    assert amp.tail_mass == pytest.approx(tail, rel=SCIPY_RTOL, abs=TINY)
    np.testing.assert_allclose(amp.amps, ladder, rtol=SCIPY_RTOL, atol=TINY)
    return amp.cutoff


@pytest.mark.parametrize("tail_eps", [1e-6, 1e-12, 1e-300])
@pytest.mark.parametrize("alpha_sq", [0.0, 1e-300, 8.0, 3500.0, 4000.0, 1e5])
@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024, 4097, 4098])
def test_cutoff_search_matches_full_scan(n, alpha_sq, tail_eps):
    assert_matches_full_scan(n, alpha_sq, tail_eps)


@pytest.mark.parametrize("alpha_sq", [0.0, 1e-3, 0.01, 0.5, 0.63, 1.0, 1.9, 4.1, 5.9,
                                      8.0, 20.0, 64.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 16, 32, 128])
def test_amplitudes_match_the_row_loop(n, alpha_sq):
    # At the default tail target, where verify builds its Fock workspaces;
    # tiny alpha^2 at large N leaves rows whose squared norm, like c_j^2,
    # underflows to 0.
    assert assert_matches_full_scan(n, alpha_sq, TAIL_EPS) is not None


# Cutoffs for N=2 at alpha^2 = 8, where the Poisson ladder first runs to 160
# and keeps a cutoff up to 84 (its margin is 76 terms), and at alpha^2 =
# 3500 up to FOCK_CAP itself: cutoffs inside the first ladder (64, 65), on
# its edge (84, 85), far past it (192, 193), and the last below the cap.
@pytest.mark.parametrize("alpha_sq,cutoff", [
    (8.0, 64), (8.0, 65), (8.0, 84), (8.0, 85), (8.0, 192), (8.0, 193),
    (3500.0, 4032), (3500.0, 4033), (3500.0, FOCK_CAP),
])
def test_cutoff_search_block_edges(alpha_sq, cutoff):
    spec = EnsembleSpec(2, alpha_sq)
    # scipy's tail is within 1e-11 of the code's: a target 1e-9 above it
    # lands on `cutoff` and reads the code's own tail there.
    own = basis_amplitudes(spec, float(special.gammainc(cutoff + 1.0, alpha_sq)) * (1 + 1e-9))
    assert own.cutoff == cutoff
    # The smallest target above that tail makes `cutoff` the first hit; the
    # tail itself is not below it, so the next candidate is.
    tail_eps = float(np.nextafter(own.tail_mass, np.inf))
    assert tail_eps <= 1e-6
    amp = basis_amplitudes(spec, tail_eps)
    assert (amp.cutoff, amp.tail_mass) == (cutoff, own.tail_mass)
    if cutoff == FOCK_CAP:
        with pytest.raises(CutoffOverflow, match="no cutoff <= 4096 "):
            basis_amplitudes(spec, own.tail_mass)
    else:
        assert basis_amplitudes(spec, own.tail_mass).cutoff == cutoff + 1


with open(os.path.join(os.path.dirname(__file__), "data", "mpmath_reference.json"),
          encoding="utf-8") as _handle:
    FOCK_REFERENCE = json.load(_handle)["fock"]


@pytest.mark.parametrize("point", FOCK_REFERENCE,
                         ids=lambda p: f"{p['n']}-{p['alpha_sq']!r}-{p['tail_eps']!r}")
def test_fock_route_matches_mpmath(point):
    # Frozen 60-digit values from data/make_mpmath_reference.py; only values
    # that are normal doubles are compared.
    n = point["n"]
    amp = basis_amplitudes(EnsembleSpec(n, point["alpha_sq"]), point["tail_eps"])
    assert amp.cutoff == point["cutoff"]
    tail = float(point["tail_mass"])
    assert tail >= TINY
    assert amp.tail_mass == pytest.approx(tail, rel=1e-14, abs=0.0)
    ks, expect = zip(*[(k, float(v)) for k, v in point["amplitudes"] if float(v) >= TINY])
    ks = np.array(ks)
    assert ks.size >= min(20, amp.cutoff + 1)
    np.testing.assert_allclose(amp.amps[ks], expect, rtol=1e-14, atol=0.0)
