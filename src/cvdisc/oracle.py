"""Brute-force verification layer.

Rebuilds every state and measurement operator of the discrimination chain as
explicit vectors and matrices, either in the N-dimensional symmetric basis or
in a truncated Fock space, re-derives all probabilities from traces, and
certifies minimum-error optimality through the standard Helstrom conditions
(Gamma = (1/N) * sum_k Pi_k rho_k Hermitian and Gamma - rho_k/N positive
semidefinite). The separation model itself is not rebuilt: build_workspace
takes the coefficients, the separation Kraus diagonals and the failure
profile from ensemble and discrim. Agreement between the two paths therefore
checks the assembly, the trace-derived probabilities and the Helstrom
certificates against the closed forms in discrim, not the choice of
separation; the acceptance tests check that against the Gram matrix. The
Fock-basis checks allow for the measured truncation of each basis row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrim import (
    DiscriminationReport,
    JointDistribution,
    failure_profile,
    separation_operators,
)
from .ensemble import EnsembleSpec, _frozen, basis_amplitudes, coefficients
from .errors import CertificationFailure, DomainError

HERMITICITY_TOL = 1e-10
# Smallest acceptable eigenvalue in PSD checks; above dense-eigensolver noise
# for the dimensions used here.
EIGENVALUE_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10
_PSD_CONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class MatrixWorkspace:
    """Explicit vector/matrix assembly of one alphabet's measurement chain.

    State arrays hold one state per row. med_projectors[k] projects onto the
    symmetric orthogonal vector u_k; pi_success[j]/pi_failure[j] are the
    POVM elements of the two-stage chain (separation Kraus conjugated into
    the minimum-error projectors). span_projector projects onto the span of
    the symmetric basis vectors (the identity when the basis is 'phi').
    """

    basis: str
    n_states: int
    alpha_sq: float
    dimension: int
    alpha_states: np.ndarray
    u_states: np.ndarray
    beta_states: np.ndarray
    med_projectors: np.ndarray
    a_success: np.ndarray
    a_failure: np.ndarray
    pi_success: np.ndarray
    pi_failure: np.ndarray
    span_projector: np.ndarray
    tail_mass: float


@dataclass(frozen=True)
class MedCertificate:
    """Outcome of a Helstrom optimality check.

    worst_eigenvalue is the most negative eigenvalue of Gamma - rho_k/N over
    all k (worst_index says which k); hermiticity_defect is the largest entry
    of |Gamma - Gamma^dagger|.
    """

    which: str
    passed: bool
    hermiticity_defect: float
    worst_eigenvalue: float
    worst_index: int

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise CertificationFailure(
                f"Helstrom certificate failed for {self.which}: "
                f"hermiticity defect {self.hermiticity_defect:.3e}, "
                f"worst eigenvalue {self.worst_eigenvalue:.3e} at state "
                f"{self.worst_index}",
                worst_index=self.worst_index,
                worst_eigenvalue=self.worst_eigenvalue,
            )


def build_workspace(spec: EnsembleSpec,
                    basis: str = "phi",
                    tail_eps: float = 1e-14) -> MatrixWorkspace:
    """Assemble all states and operators and verify structural invariants.

    basis 'phi' works in the N-dimensional symmetric basis (exact, fast);
    basis 'fock' reconstructs everything in a truncated Fock space whose
    cutoff is controlled by tail_eps. Construction raises
    CertificationFailure if any projector fails positive semidefiniteness or
    either completeness relation misses the span projector by more than 1e-10,
    plus, for the two-stage chain, 2 * max_j(1 - |phi_j|^2): truncation
    shortens each Fock row, and the chain sees that once per Kraus factor.
    """
    if basis not in ("phi", "fock"):
        raise DomainError(f"basis must be 'phi' or 'fock', got {basis!r}")
    profile = coefficients(spec)
    sep = separation_operators(profile)       # raises DegenerateEnsemble on vacuum
    fail = failure_profile(profile)           # raises FullSeparation when empty
    n = spec.n_states

    if basis == "phi":
        phi_rows = np.eye(n, dtype=complex)
        tail_mass = 0.0
    else:
        amp = basis_amplitudes(spec, tail_eps)
        phi_rows = amp.amps.astype(complex)
        tail_mass = amp.tail_mass
    dim = phi_rows.shape[1]

    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)      # w^(k*j)
    alpha_states = (phases * profile.c) @ phi_rows
    u_states = phases @ phi_rows / np.sqrt(n)
    beta_states = (phases * fail.b) @ phi_rows

    med = np.einsum("ki,kj->kij", u_states, u_states.conj())
    a_success = (phi_rows.T * sep.a_success_diag) @ phi_rows.conj()
    a_failure = (phi_rows.T * sep.a_failure_diag) @ phi_rows.conj()
    pi_success = np.einsum("ab,kbc,cd->kad", a_success.conj().T, med, a_success)
    pi_failure = np.einsum("ab,kbc,cd->kad", a_failure.conj().T, med, a_failure)
    span = phi_rows.T @ phi_rows.conj()

    ws = MatrixWorkspace(
        basis=basis, n_states=n, alpha_sq=spec.alpha_sq, dimension=dim,
        alpha_states=_frozen(alpha_states), u_states=_frozen(u_states),
        beta_states=_frozen(beta_states), med_projectors=_frozen(med),
        a_success=_frozen(a_success), a_failure=_frozen(a_failure),
        pi_success=_frozen(pi_success), pi_failure=_frozen(pi_failure),
        span_projector=_frozen(span), tail_mass=tail_mass,
    )
    # Rows of underflowed coefficients are zero and span nothing.
    norms = np.sum(np.abs(phi_rows) ** 2, axis=1)
    _check_construction(ws, float(np.max(1.0 - norms[norms > 0.0], initial=0.0)))
    return ws


def _check_construction(ws: MatrixWorkspace, norm_defect: float) -> None:
    for name, ops in (("med", ws.med_projectors),
                      ("success", ws.pi_success),
                      ("failure", ws.pi_failure)):
        for k, op in enumerate(ops):
            low = float(np.linalg.eigvalsh((op + op.conj().T) / 2.0)[0])
            if low < -_PSD_CONSTRUCTION_TOL:
                raise CertificationFailure(
                    f"{name} element {k} not PSD: eigenvalue {low:.3e}",
                    worst_index=k, worst_eigenvalue=low)
    med_sum = ws.med_projectors.sum(axis=0)
    if float(np.max(np.abs(med_sum - ws.span_projector))) > _COMPLETENESS_TOL:
        raise CertificationFailure("minimum-error projectors do not resolve the span")
    chain_sum = ws.pi_success.sum(axis=0) + ws.pi_failure.sum(axis=0)
    chain_tol = _COMPLETENESS_TOL + 2.0 * norm_defect
    if float(np.max(np.abs(chain_sum - ws.span_projector))) > chain_tol:
        raise CertificationFailure("two-stage POVM does not resolve the span")


def _expectation(vec: np.ndarray, op: np.ndarray) -> float:
    return float(np.real(vec.conj() @ op @ vec))


def brute_force_joint(ws: MatrixWorkspace) -> JointDistribution:
    """Conditional outcome probabilities from operator traces.

    success[k'][k] = <alpha_k| pi_success[k'] |alpha_k> and likewise for the
    failure block; no closed form is consulted.
    """
    n = ws.n_states
    success = np.empty((n, n))
    failure = np.empty((n, n))
    for kp in range(n):
        for k in range(n):
            success[kp, k] = _expectation(ws.alpha_states[k], ws.pi_success[kp])
            failure[kp, k] = _expectation(ws.alpha_states[k], ws.pi_failure[kp])
    return JointDistribution(success=_frozen(np.clip(success, 0.0, None)),
                             failure=_frozen(np.clip(failure, 0.0, None)))


def brute_force_probabilities(ws: MatrixWorkspace) -> DiscriminationReport:
    """Re-derive every report field from explicit vectors and matrices."""
    n = ws.n_states
    joint = brute_force_joint(ws)

    p_c_med = float(np.mean([_expectation(ws.alpha_states[k], ws.med_projectors[k])
                             for k in range(n)]))
    p_c_med_beta = float(np.mean([_expectation(ws.beta_states[k], ws.med_projectors[k])
                                  for k in range(n)]))
    p_s = float(joint.success.sum()) / n
    p_c_ir = float(np.trace(joint.success) + np.trace(joint.failure)) / n
    conf_success = float(np.trace(joint.success) / joint.success.sum())
    conf_failure = float(np.trace(joint.failure) / joint.failure.sum())
    fidelity = float(np.abs(ws.alpha_states[0].conj() @ ws.beta_states[0]) ** 2)
    return DiscriminationReport(
        p_s=p_s,
        p_c_med=p_c_med,
        p_c_med_beta=p_c_med_beta,
        p_c_ir=p_c_ir,
        fidelity=fidelity,
        infidelity=1.0 - fidelity,
        error_bound=max(0.0, 1.0 - fidelity / p_c_med),
        confidence_success=conf_success,
        confidence_failure=conf_failure,
    )


def certify_helstrom(projectors: np.ndarray, states: np.ndarray,
                     which: str = "custom") -> MedCertificate:
    """Helstrom optimality conditions for equiprobable pure states.

    Builds Gamma = (1/N) * sum_k Pi_k |psi_k><psi_k| and checks that Gamma is
    Hermitian within 1e-10 and that Gamma - |psi_k><psi_k|/N has no
    eigenvalue below -1e-9 for any k. Projector and state counts must match.
    """
    n = len(states)
    if len(projectors) != n:
        raise DomainError(f"{len(projectors)} projectors for {n} states")
    rhos = [np.outer(s, s.conj()) for s in states]
    gamma = sum(p @ r for p, r in zip(projectors, rhos)) / n
    defect = float(np.max(np.abs(gamma - gamma.conj().T)))
    gamma_h = (gamma + gamma.conj().T) / 2.0
    worst = np.inf
    worst_k = -1
    for k, rho in enumerate(rhos):
        low = float(np.linalg.eigvalsh(gamma_h - rho / n)[0])
        if low < worst:
            worst = low
            worst_k = k
    passed = defect < HERMITICITY_TOL and worst >= -EIGENVALUE_TOL
    return MedCertificate(which=which, passed=passed, hermiticity_defect=defect,
                          worst_eigenvalue=worst, worst_index=worst_k)


def certify_med_optimality(ws: MatrixWorkspace,
                           which: str = "inputs") -> MedCertificate:
    """Certify the minimum-error projectors against the chosen state family.

    'inputs' certifies them on the alphabet states, 'failure_states' on the
    normalized failure set (whose minimum-error measurement uses the same
    projectors).
    """
    if which == "inputs":
        states = ws.alpha_states
    elif which == "failure_states":
        states = ws.beta_states
    else:
        raise DomainError(f"which must be 'inputs' or 'failure_states', got {which!r}")
    return certify_helstrom(ws.med_projectors, states, which=which)
