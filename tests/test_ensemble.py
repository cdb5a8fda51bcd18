"""Coefficient profile, Gram matrix, and truncated Fock amplitudes."""

import math

import numpy as np
import pytest
from scipy import special

from cvdisc import (
    CutoffOverflow,
    DomainError,
    EnsembleSpec,
    basis_amplitudes,
    coefficients,
    gram,
)
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.ensemble import FOCK_CAP

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


@pytest.mark.parametrize("alpha_sq", [-1.0, -1e-12, math.inf, math.nan, "x", 1.0000001e8])
def test_spec_rejects_bad_alpha_sq(alpha_sq):
    with pytest.raises(DomainError):
        EnsembleSpec(3, alpha_sq)


def test_spec_normalizes_types():
    spec = EnsembleSpec(np.int64(4), np.float64(2.0))
    assert isinstance(spec.n_states, int)
    assert isinstance(spec.alpha_sq, float)


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
    assert not profile.near_band_edge


def test_near_band_edge_flag():
    # 6e-8 past the kink the c^2 gap sits within a decade of the band edge.
    assert coefficients(EnsembleSpec(3, KINK_PERIOD + 6e-8)).near_band_edge
    assert not coefficients(EnsembleSpec(3, KINK_PERIOD + 1e-6)).near_band_edge
    assert not coefficients(EnsembleSpec(3, 1.0)).near_band_edge


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


def test_profile_arrays_are_immutable():
    profile = coefficients(EnsembleSpec(3, 1.0))
    with pytest.raises(ValueError):
        profile.c_sq[0] = 0.5


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


def test_basis_selection_rule():
    amp = basis_amplitudes(EnsembleSpec(4, 2.0), 1e-12)
    ns = np.arange(amp.cutoff + 1)
    for j in range(4):
        off = amp.amps[j][(ns - j) % 4 != 0]
        assert not off.any()


def test_basis_orthonormality():
    amp = basis_amplitudes(EnsembleSpec(3, 1.0), 1e-14)
    gram_rows = amp.amps @ amp.amps.T
    np.testing.assert_allclose(gram_rows, np.eye(3), rtol=0, atol=1e-10)


def test_basis_reconstructs_coherent_state():
    n, a2 = 4, 2.0
    amp = basis_amplitudes(EnsembleSpec(n, a2), 1e-14)
    profile = coefficients(EnsembleSpec(n, a2))
    rebuilt = profile.c @ amp.amps
    ns = np.arange(amp.cutoff + 1)
    expect = np.exp(-a2 / 2 + ns * math.log(a2) / 2
                    - special.gammaln(ns + 1) / 2)
    np.testing.assert_allclose(rebuilt, expect, rtol=0, atol=1e-10)


def test_basis_vacuum():
    amp = basis_amplitudes(EnsembleSpec(3, 0.0), 1e-12)
    assert amp.cutoff == 2
    assert amp.tail_mass == 0.0
    assert amp.amps[0, 0] == 1.0
    assert not amp.amps[1:].any()


def test_tail_mass_matches_poisson_tail():
    amp = basis_amplitudes(EnsembleSpec(3, 2.5), 1e-10)
    assert amp.tail_mass <= 1e-10
    expect = float(special.gammainc(amp.cutoff + 1, 2.5))
    assert amp.tail_mass == pytest.approx(expect, abs=1e-15)
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
