"""Brute-force matrix oracle and Helstrom optimality certificates."""

import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from cvdisc import (
    CertificationFailure,
    CutoffOverflow,
    DegenerateEnsemble,
    DomainError,
    EnsembleSpec,
    FullSeparation,
    basis_amplitudes,
    brute_force_joint,
    brute_force_probabilities,
    build_workspace,
    certify_med_optimality,
    coefficients,
    failure_profile,
    gram,
    ir_report,
    joint_distribution,
)
from cvdisc import oracle
from test_discrim import synthetic_profile

REPORT_FIELDS = ("p_s", "p_c_med", "p_c_med_beta", "p_c_ir", "fidelity",
                 "infidelity", "error_bound", "confidence_success",
                 "confidence_failure")


def max_field_gap(a, b):
    return max(abs(getattr(a, f) - getattr(b, f)) for f in REPORT_FIELDS)


# --- build_workspace ---------------------------------------------------------


def test_workspace_phi_basic():
    ws = build_workspace(EnsembleSpec(3, 1.0))
    assert ws.basis == "phi"
    assert ws.dimension == 3
    assert ws.tail_mass == 0.0
    norms = np.linalg.norm(ws.alpha_states, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(ws.beta_states, axis=1), 1.0,
                               rtol=0, atol=1e-12)


def test_workspace_states_reproduce_gram():
    ws = build_workspace(EnsembleSpec(4, 1.3), basis="fock", tail_eps=1e-14)
    g = ws.alpha_states.conj() @ ws.alpha_states.T
    np.testing.assert_allclose(g, gram(EnsembleSpec(4, 1.3)),
                               rtol=0, atol=1e-10)


def test_workspace_two_states_share_failure_direction():
    ws = build_workspace(EnsembleSpec(2, 0.5))
    inner = abs(ws.beta_states[0].conj() @ ws.beta_states[1])
    assert inner == pytest.approx(1.0, abs=1e-12)


def test_workspace_rejects_unknown_basis():
    with pytest.raises(DomainError):
        build_workspace(EnsembleSpec(3, 1.0), basis="position")


def test_workspace_vacuum_raises():
    with pytest.raises(DegenerateEnsemble):
        build_workspace(EnsembleSpec(3, 0.0))


def test_workspace_fock_cap_overflow():
    with pytest.raises(CutoffOverflow):
        build_workspace(EnsembleSpec(128, 4000.0), basis="fock")


def test_workspace_rejects_n_above_cap():
    with pytest.raises(DomainError, match=f"exceeds cap {oracle.VERIFY_N_CAP}$"):
        build_workspace(EnsembleSpec(oracle.VERIFY_N_CAP + 1, 1.0))


# --- brute force vs closed form ------------------------------------------------


@pytest.mark.parametrize(
    "n,alpha_sq,basis",
    [pytest.param(n, a, "phi", id=f"{a}-{n}") for a in (0.5, 2.5) for n in (3, 4, 5, 6)]
    + [(48, 1.0, "phi"), (32, 1.0, "fock")])
def test_brute_matches_closed_form(n, alpha_sq, basis):
    spec = EnsembleSpec(n, alpha_sq)
    brute = brute_force_probabilities(build_workspace(spec, basis=basis))
    assert max_field_gap(brute, ir_report(spec)) < 1e-9


@pytest.mark.parametrize("n,alpha_sq", [(3, 1.0), (5, 2.0)])
def test_brute_joint_matches_closed_form(n, alpha_sq):
    spec = EnsembleSpec(n, alpha_sq)
    success, failure = brute_force_joint(build_workspace(spec))
    closed = joint_distribution(spec)
    assert np.max(np.abs(success - closed.success)) < 1e-10
    assert np.max(np.abs(failure - closed.failure)) < 1e-10


def test_fock_basis_agrees_with_phi():
    spec = EnsembleSpec(4, 2.0)
    phi = brute_force_probabilities(build_workspace(spec, basis="phi"))
    fock = brute_force_probabilities(build_workspace(spec, basis="fock",
                                                     tail_eps=1e-12))
    assert max_field_gap(phi, fock) < 1e-9


@pytest.mark.parametrize("n, alpha_sq", [(103, 0.03), (177, 1.0)])
def test_fock_builds_where_rows_are_long(n, alpha_sq):
    # Subnormal c_j leave some Fock rows sqrt(p_k)/c_j off unit norm; the
    # measurement acts on the normalised rows, so the chain still resolves
    # the span and the probabilities match the phi basis.
    spec = EnsembleSpec(n, alpha_sq)
    phi = brute_force_probabilities(build_workspace(spec))
    fock = brute_force_probabilities(build_workspace(spec, "fock"))
    assert max_field_gap(phi, fock) < 1e-9


def test_brute_unambiguity():
    # A success outcome never points at the wrong preparation.
    success, _ = brute_force_joint(build_workspace(EnsembleSpec(5, 1.2)))
    off = success[~np.eye(5, dtype=bool)]
    assert np.max(off) < 1e-10


@pytest.mark.parametrize("basis", ["phi", "fock"])
@pytest.mark.parametrize("n,alpha_sq", [(2, 0.7), (3, 1.0), (3, 8.0), (4, 2.0), (5, 1.5),
                                        (6, 3.0), (8, 2.0), (12, 5.0), (16, 4.0)])
def test_brute_joint_is_diagonal_plus_circulant(n, alpha_sq, basis):
    # The paper's error-free structure, read off traces that assume none:
    # the success block is p_s * I and the failure block depends on
    # (k' - k) mod N only. Worst residuals measured over these points: 3.4e-31
    # (phi) and 3.0e-24 (Fock) off the success diagonal, 8.9e-16 along it,
    # 7.6e-16 off the circulant (both bases). The tolerances keep >= 300x,
    # 10x and 10x of headroom.
    success, failure = brute_force_joint(build_workspace(EnsembleSpec(n, alpha_sq), basis))
    off_diagonal = success[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off_diagonal)) < 1e-21
    assert np.max(np.abs(np.diag(success) - success[0, 0])) < 1e-14
    idx = np.arange(n)
    assert np.max(np.abs(failure - failure[(idx[:, None] - idx[None, :]) % n, 0])) < 1e-14


def test_brute_vacuum_adjacent_limit():
    # P_c^MED approaches 1/N as the states merge; the gap closes at the
    # amplitude scale, (2/3) * sqrt(alpha^2) for N = 3.
    brute = brute_force_probabilities(build_workspace(EnsembleSpec(3, 1e-10)))
    gap = brute.p_c_med - 1.0 / 3.0
    assert 0.0 < gap < 1e-5
    assert gap == pytest.approx((2.0 / 3.0) * 1e-5, rel=0.01)


# --- certificates ---------------------------------------------------------------


@pytest.mark.parametrize("which", ["inputs", "failure_states"])
def test_certificates_pass(which):
    ws = build_workspace(EnsembleSpec(4, 2.0))
    certs = certify_med_optimality(ws)
    assert [cert.which for cert in certs] == ["inputs", "failure_states"]
    cert = certs[["inputs", "failure_states"].index(which)]
    assert cert.passed
    assert cert.which == which
    assert cert.hermiticity_defect < 1e-10
    assert cert.worst_eigenvalue >= -1e-9


def certify_one_family(vectors, states, which):
    """The certificate of one state family, through the same _certify as
    certify_med_optimality's pair."""
    (defect,), (lows,) = oracle._certify(vectors, states[None])
    return oracle._certificate(which, defect, lows)


def test_certificate_pair_matches_single_family_certificates():
    ws = build_workspace(EnsembleSpec(5, 1.5), basis="fock")
    inputs, failure_states = certify_med_optimality(ws)
    assert inputs == certify_one_family(ws.u_states, ws.alpha_states, "inputs")
    assert failure_states == certify_one_family(ws.u_states, ws.beta_states, "failure_states")


def test_certificate_rejects_swapped_projectors():
    # A deliberately wrong measurement must fail the optimality conditions,
    # on the input states and on the failure states alike.
    ws = build_workspace(EnsembleSpec(3, 1.0))
    swapped = ws.u_states[[1, 0, 2]]
    for states in (ws.alpha_states, ws.beta_states):
        cert = certify_one_family(swapped, states, "swapped")
        assert not cert.passed
        assert cert.worst_eigenvalue < -1e-3


@pytest.mark.parametrize("n", [3, 8, 64])
def test_certificates_do_not_depend_on_the_block_size(monkeypatch, n):
    # Blocks of one matrix, blocks that leave a partial last block, and one
    # block of all 2N matrices give bitwise the same certificates.
    ws = build_workspace(EnsembleSpec(n, 2.0))
    d2 = ws.dimension ** 2
    results = []
    for matrices in (1, 5, 2 * n):
        monkeypatch.setattr(oracle, "GRID_BLOCK", matrices * d2)
        results.append(certify_med_optimality(ws))
    assert results[0] == results[1] == results[2]


def test_certificate_memory_is_bounded():
    # Formed all at once, the 2N matrices Gamma - rho_k/N at N = 128 take
    # 64 MiB each time they are written; in blocks the pass stays far below.
    ws = build_workspace(EnsembleSpec(128, 32.0))
    tracemalloc.start()
    try:
        certs = certify_med_optimality(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(cert.passed for cert in certs)
    assert peak < 16 * 2 ** 20


def test_fock_workspace_memory_is_bounded():
    # Every array of the Fock build is N x N, whatever the cutoff (d = 431,
    # 1231 and 3394 here): the cold build, its memoised measurement
    # included, peaks below 16 complex N x N arrays. numpy.fft, which the
    # kernel imports on first use, is loaded before tracing.
    importlib.import_module("numpy.fft")
    for n, alpha_sq in [(32, 300.0), (64, 1000.0), (64, 3000.0)]:
        oracle._measurement.cache_clear()
        tracemalloc.start()
        try:
            ws = build_workspace(EnsembleSpec(n, alpha_sq), "fock")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.dimension > 6 * n
        assert peak < 16 * 16 * n * n


@pytest.mark.parametrize("n, alpha_sq", [(4, 2.0), (16, 0.5), (103, 0.03), (64, 1000.0)])
def test_phi_and_fock_workspaces_share_the_measurement(n, alpha_sq):
    # Both bases hold N coordinates per vector, and their measurement vectors
    # agree on every row of nonzero norm in both; a row of norm 0 spans
    # nothing in either.
    spec = EnsembleSpec(n, alpha_sq)
    phi, fock = build_workspace(spec, "phi"), build_workspace(spec, "fock")
    assert (phi.dimension, fock.dimension) == (n, basis_amplitudes(spec, 1e-12).cutoff + 1)
    names = ("alpha_states", "beta_states", "u_states", "success_vectors", "failure_vectors")
    live = []
    for ws in (phi, fock):
        assert {getattr(ws, name).shape for name in names} == {(n, n)}
        live.append(ws.alpha_states[0] != 0.0)      # alpha_0 holds the row norms
        for name in names[2:]:
            assert not np.any(getattr(ws, name)[:, ~live[-1]])
    both = live[0] & live[1]
    assert both.any()
    for name in names[2:]:
        np.testing.assert_array_equal(getattr(phi, name)[:, both], getattr(fock, name)[:, both])


# --- separation Kraus diagonals ------------------------------------------------


def test_separation_diagonals_3_1():
    profile = coefficients(EnsembleSpec(3, 1.0))
    a_s, a_f = oracle._kraus_diagonals(profile)
    np.testing.assert_allclose(a_s * profile.c, profile.c_min, rtol=0, atol=1e-15)
    np.testing.assert_allclose(a_s ** 2 + a_f ** 2, 1.0, rtol=0, atol=1e-15)
    # The minimum entry is the fixed point of the success action.
    j_min = int(np.argmin(profile.c_sq))
    assert a_s[j_min] == 1.0
    assert a_f[j_min] == 0.0


def test_separation_small_amplitude_scales_every_entry():
    # At alpha^2 = 1e-8 the minimum c_2^2 ~ 5e-17 is resolved, so the
    # success action scales every entry by c_min/c_j, as at any amplitude.
    profile = coefficients(EnsembleSpec(3, 1e-8))
    a_s, a_f = oracle._kraus_diagonals(profile)
    assert int(np.argmin(profile.c_sq)) == 2
    np.testing.assert_allclose(a_s, profile.c_min / profile.c, rtol=1e-15, atol=0)
    assert a_s[2] == 1.0
    assert a_f[2] == 0.0


@pytest.mark.parametrize("n, alpha_sq, zeros, masked", [(128, 0.01, 36, 40),
                                                        (1024, 1.0, 846, 853)])
def test_separation_underflowed_entries_keep_fixed_point(n, alpha_sq, zeros, masked):
    # Some c_j underflow to 0, so c_min = 0 and c_min/c_j is 0/0 there; every
    # entry degenerate with c_min is (1, 0) exactly, with no warning.
    profile = coefficients(EnsembleSpec(n, alpha_sq))
    assert (int(np.sum(profile.c == 0.0)), profile.c_min) == (zeros, 0.0)
    assert int(profile.degenerate_mask.sum()) == masked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_s, a_f = oracle._kraus_diagonals(profile)
    mask = profile.degenerate_mask
    assert np.all(a_s[mask] == 1.0) and np.all(a_f[mask] == 0.0)
    np.testing.assert_array_equal(a_s[~mask], 0.0)
    np.testing.assert_array_equal(a_f[~mask], 1.0)


def test_separation_uniform_profile_fully_separates():
    profile = synthetic_profile([0.25] * 4, degenerate_with_min=range(4))
    a_s, a_f = oracle._kraus_diagonals(profile)
    np.testing.assert_array_equal(a_s, np.ones(4))
    np.testing.assert_array_equal(a_f, np.zeros(4))
    assert profile.p_s == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(FullSeparation, match="^separation succeeds with probability 1.0; "):
        failure_profile(profile)


def test_separation_vacuum_raises():
    with pytest.raises(DegenerateEnsemble,
                       match="^separation map undefined for a single-state alphabet$"):
        oracle._kraus_diagonals(coefficients(EnsembleSpec(3, 0.0)))


# --- operator structure ---------------------------------------------------------


def test_failure_povm_eigenvalues():
    spec = EnsembleSpec(4, 1.5)
    ws = build_workspace(spec)
    _, a_f = oracle._kraus_diagonals(coefficients(spec))
    f = ws.failure_vectors
    total_failure = f.T @ f.conj()
    eigs = np.sort(np.linalg.eigvalsh(total_failure))
    np.testing.assert_allclose(eigs, np.sort(a_f ** 2),
                               rtol=0, atol=1e-12)


def test_povm_completeness():
    # Every c_j > 0 at (5, 0.8), so the phi rows span the whole space.
    ws = build_workspace(EnsembleSpec(5, 0.8))
    s, f, u = ws.success_vectors, ws.failure_vectors, ws.u_states
    total = s.T @ s.conj() + f.T @ f.conj()
    np.testing.assert_allclose(total, np.eye(5), rtol=0, atol=1e-10)
    med_total = u.T @ u.conj()
    np.testing.assert_allclose(med_total, np.eye(5), rtol=0, atol=1e-10)


def test_workspace_arrays_immutable():
    ws = build_workspace(EnsembleSpec(3, 1.0))
    with pytest.raises(ValueError):
        ws.u_states[0, 0] = 1.0


@pytest.mark.parametrize("basis, n, alpha_sq, stretch", [
    pytest.param("phi", 4, 2.0, 1e-8, id="phi"),
    pytest.param("fock", 4, 2.0, 1e-8, id="fock"),
    # Row phi_1 keeps almost none of its norm below this cutoff.
    pytest.param("fock", 128, 64.0, 1e-6, id="fock-row-truncated-away"),
])
def test_broken_separation_fails_chain_completeness(monkeypatch, basis, n, alpha_sq, stretch):
    # A failure Kraus diagonal slightly too long breaks A_s'A_s + A_f'A_f = 1.
    exact = oracle._kraus_diagonals

    def stretched(profile):
        return exact(profile) * [[1.0], [1 + stretch]]

    monkeypatch.setattr(oracle, "_kraus_diagonals", stretched)
    with pytest.raises(CertificationFailure, match="two-stage POVM"):
        build_workspace(EnsembleSpec(n, alpha_sq), basis=basis)


def test_stretched_projectors_fail_completeness():
    # The minimum-error coordinates w^(kj)/sqrt(N) resolve the span; made
    # slightly too long, they do not, whatever the separation pair.
    n = 4
    k = np.arange(n)
    u = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    a_s, a_f = oracle._kraus_diagonals(coefficients(EnsembleSpec(n, 2.0)))
    oracle._check_completeness(np.array((u, u * a_s, u * a_f)))
    with pytest.raises(CertificationFailure,
                       match="^minimum-error projectors do not resolve the span$"):
        oracle._check_completeness(np.array((u * (1 + 1e-8), u * a_s, u * a_f)))
