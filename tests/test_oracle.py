"""Brute-force matrix oracle and Helstrom optimality certificates."""

import dataclasses

import numpy as np
import pytest

from cvdisc import (
    CertificationFailure,
    CutoffOverflow,
    DegenerateEnsemble,
    DomainError,
    EnsembleSpec,
    brute_force_joint,
    brute_force_probabilities,
    build_workspace,
    certify_helstrom,
    certify_med_optimality,
    gram,
    ir_report,
    joint_distribution,
)
from cvdisc import oracle

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
    brute = brute_force_joint(build_workspace(spec))
    closed = joint_distribution(spec)
    assert np.max(np.abs(brute.success - closed.success)) < 1e-10
    assert np.max(np.abs(brute.failure - closed.failure)) < 1e-10


def test_fock_basis_agrees_with_phi():
    spec = EnsembleSpec(4, 2.0)
    phi = brute_force_probabilities(build_workspace(spec, basis="phi"))
    fock = brute_force_probabilities(build_workspace(spec, basis="fock",
                                                     tail_eps=1e-12))
    assert max_field_gap(phi, fock) < 1e-9


def test_brute_unambiguity():
    # A success outcome never points at the wrong preparation.
    jd = brute_force_joint(build_workspace(EnsembleSpec(5, 1.2)))
    off = jd.success[~np.eye(5, dtype=bool)]
    assert np.max(off) < 1e-10


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
    cert = certify_med_optimality(ws, which=which)
    assert cert.passed
    assert cert.which == which
    assert cert.hermiticity_defect < 1e-10
    assert cert.worst_eigenvalue >= -1e-9
    cert.raise_if_failed()


def test_certificate_rejects_swapped_projectors():
    # A deliberately wrong measurement must fail the optimality conditions.
    ws = build_workspace(EnsembleSpec(3, 1.0))
    swapped = ws.u_states[[1, 0, 2]]
    cert = certify_helstrom(swapped, ws.alpha_states, which="swapped")
    assert not cert.passed
    assert cert.worst_eigenvalue < -1e-3
    with pytest.raises(CertificationFailure) as err:
        cert.raise_if_failed()
    assert err.value.worst_index == cert.worst_index
    assert err.value.worst_eigenvalue == cert.worst_eigenvalue


def test_certificate_count_mismatch():
    ws = build_workspace(EnsembleSpec(3, 1.0))
    with pytest.raises(DomainError):
        certify_helstrom(ws.u_states[:2], ws.alpha_states)


def test_certify_which_validation():
    ws = build_workspace(EnsembleSpec(3, 1.0))
    with pytest.raises(DomainError):
        certify_med_optimality(ws, which="outputs")


# --- operator structure ---------------------------------------------------------


def test_failure_povm_eigenvalues():
    spec = EnsembleSpec(4, 1.5)
    ws = build_workspace(spec)
    from cvdisc import coefficients, separation_operators
    sep = separation_operators(coefficients(spec))
    f = ws.failure_vectors
    total_failure = f.T @ f.conj()
    eigs = np.sort(np.linalg.eigvalsh(total_failure))
    np.testing.assert_allclose(eigs, np.sort(sep.a_failure_diag ** 2),
                               rtol=0, atol=1e-12)


def test_povm_completeness():
    ws = build_workspace(EnsembleSpec(5, 0.8))
    s, f, u = ws.success_vectors, ws.failure_vectors, ws.u_states
    total = s.T @ s.conj() + f.T @ f.conj()
    np.testing.assert_allclose(total, ws.span_projector, rtol=0, atol=1e-10)
    med_total = u.T @ u.conj()
    np.testing.assert_allclose(med_total, ws.span_projector, rtol=0, atol=1e-10)


def test_workspace_arrays_immutable():
    ws = build_workspace(EnsembleSpec(3, 1.0))
    with pytest.raises(ValueError):
        ws.u_states[0, 0] = 1.0


@pytest.mark.parametrize("basis", ["phi", "fock"])
def test_broken_separation_fails_chain_completeness(monkeypatch, basis):
    # A failure Kraus diagonal 1e-8 too long breaks A_s'A_s + A_f'A_f = 1.
    exact = oracle.separation_operators

    def stretched(profile):
        sep = exact(profile)
        return dataclasses.replace(sep, a_failure_diag=sep.a_failure_diag * (1 + 1e-8))

    monkeypatch.setattr(oracle, "separation_operators", stretched)
    with pytest.raises(CertificationFailure, match="two-stage POVM"):
        build_workspace(EnsembleSpec(4, 2.0), basis=basis)
