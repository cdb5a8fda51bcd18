"""Brute-force verification layer.

Rebuilds every state of the discrimination chain as an explicit vector,
either in the N-dimensional symmetric basis or in a truncated Fock space.
Every measurement element of the chain is rank one: the minimum-error
projectors are |u_k><u_k|, and the separation Kraus operator A conjugates
them into |A^dagger u_k><A^dagger u_k|. The workspace therefore stores each
element as its vector, re-derives all probabilities as tr(Pi rho) =
|<v|psi>|^2, and certifies minimum-error optimality through the standard
Helstrom conditions (Gamma = (1/N) * sum_k Pi_k rho_k Hermitian and
Gamma - rho_k/N positive semidefinite). The separation model itself is not
rebuilt: build_workspace takes the coefficients and the failure profile b
from one ensemble.coefficients record, and the separation Kraus diagonals
from discrim. Agreement between the two paths therefore checks the assembly,
the trace-derived probabilities and the Helstrom certificates against the
closed forms in discrim, not the choice of separation; the acceptance tests
check that against the Gram matrix. The Fock-basis checks allow for the
measured truncation of each basis row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrim import DiscriminationReport, failure_profile, separation_operators
from .ensemble import TAIL_EPS, EnsembleSpec, _frozen, basis_amplitudes, coefficients
from .errors import CertificationFailure, DomainError

HERMITICITY_TOL = 1e-10
# Smallest acceptable eigenvalue in PSD checks; above dense-eigensolver noise
# for the dimensions used here.
EIGENVALUE_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class MatrixWorkspace:
    """Explicit vector assembly of one alphabet's measurement chain.

    State arrays hold one state per row, and so do the measurement vectors:
    the minimum-error projector of outcome k is |u_k><u_k| with u_k =
    u_states[k], and the two-stage chain's elements are |v_k><v_k| with v_k
    = A^dagger u_k taken from success_vectors / failure_vectors, A being the
    success or failure Kraus operator of the separation. span_projector
    projects onto the span of the symmetric basis vectors (the identity when
    the basis is 'phi').
    """

    basis: str
    n_states: int
    alpha_sq: float
    dimension: int
    alpha_states: np.ndarray
    u_states: np.ndarray
    beta_states: np.ndarray
    success_vectors: np.ndarray
    failure_vectors: np.ndarray
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


def build_workspace(spec: EnsembleSpec,
                    basis: str = "phi",
                    tail_eps: float = TAIL_EPS) -> MatrixWorkspace:
    """Assemble all states and measurement vectors and check completeness.

    basis 'phi' works in the N-dimensional symmetric basis (exact, fast);
    basis 'fock' reconstructs everything in a truncated Fock space whose
    cutoff is controlled by tail_eps, and applies Kraus operators built in
    that space. Construction raises CertificationFailure if either
    completeness relation misses the span projector by more than 1e-10,
    plus, for the two-stage chain, 2 * max_j(1 - |phi_j|^2): truncation
    shortens each Fock row, and the chain sees that once per Kraus factor.
    Every element is |v><v| for a stored vector v, so it is positive
    semidefinite by construction.
    """
    if basis not in ("phi", "fock"):
        raise DomainError(f"basis must be 'phi' or 'fock', got {basis!r}")
    profile = coefficients(spec)
    sep = separation_operators(profile)       # raises DegenerateEnsemble on vacuum
    failure_profile(profile)                  # raises FullSeparation when empty
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
    beta_states = (phases * profile.b) @ phi_rows

    # Row k of u_states @ A.conj() is (A^dagger u_k)^T.
    a_success = (phi_rows.T * sep.a_success_diag) @ phi_rows.conj()
    a_failure = (phi_rows.T * sep.a_failure_diag) @ phi_rows.conj()
    span = phi_rows.T @ phi_rows.conj()

    ws = MatrixWorkspace(
        basis=basis, n_states=n, alpha_sq=spec.alpha_sq, dimension=dim,
        alpha_states=_frozen(alpha_states), u_states=_frozen(u_states),
        beta_states=_frozen(beta_states),
        success_vectors=_frozen(u_states @ a_success.conj()),
        failure_vectors=_frozen(u_states @ a_failure.conj()),
        span_projector=_frozen(span), tail_mass=tail_mass,
    )
    # Rows of underflowed coefficients are zero and span nothing.
    norms = np.sum(np.abs(phi_rows) ** 2, axis=1)
    _check_construction(ws, float(np.max(1.0 - norms[norms > 0.0], initial=0.0)))
    return ws


def _element_sum(vectors: np.ndarray) -> np.ndarray:
    """sum_k |v_k><v_k| over the rows v_k of vectors."""
    return vectors.T @ vectors.conj()


def _check_construction(ws: MatrixWorkspace, norm_defect: float) -> None:
    med_sum = _element_sum(ws.u_states)
    if float(np.max(np.abs(med_sum - ws.span_projector))) > _COMPLETENESS_TOL:
        raise CertificationFailure("minimum-error projectors do not resolve the span")
    chain_sum = _element_sum(ws.success_vectors) + _element_sum(ws.failure_vectors)
    chain_tol = _COMPLETENESS_TOL + 2.0 * norm_defect
    if float(np.max(np.abs(chain_sum - ws.span_projector))) > chain_tol:
        raise CertificationFailure("two-stage POVM does not resolve the span")


def _traces(vectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """[k', k] = tr(|v_k'><v_k'| |psi_k><psi_k|) = |<v_k'|psi_k>|^2."""
    return np.abs(vectors.conj() @ states.T) ** 2


def brute_force_joint(ws: MatrixWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """Conditional outcome probabilities from operator traces, as the dense
    read-only blocks (success, failure).

    success[k'][k] = tr(Pi_success[k'] |alpha_k><alpha_k|), which for the
    rank-one element |v_k'><v_k'| is |<v_k'|alpha_k>|^2, and likewise for
    the failure block. No closed form is consulted and no structure is
    assumed: every one of the 2 N^2 entries is its own trace.
    """
    return (_frozen(_traces(ws.success_vectors, ws.alpha_states)),
            _frozen(_traces(ws.failure_vectors, ws.alpha_states)))


def brute_force_probabilities(ws: MatrixWorkspace) -> DiscriminationReport:
    """Re-derive every report field from explicit vectors."""
    n = ws.n_states
    success, failure = brute_force_joint(ws)

    p_c_med = float(np.mean(np.diag(_traces(ws.u_states, ws.alpha_states))))
    p_c_med_beta = float(np.mean(np.diag(_traces(ws.u_states, ws.beta_states))))
    p_s = float(success.sum()) / n
    p_c_ir = float(np.trace(success) + np.trace(failure)) / n
    conf_success = float(np.trace(success) / success.sum())
    conf_failure = float(np.trace(failure) / failure.sum())
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


def certify_helstrom(vectors: np.ndarray, states: np.ndarray,
                     which: str = "custom") -> MedCertificate:
    """Helstrom optimality conditions for equiprobable pure states.

    The measurement is given by one vector per outcome, Pi_k = |v_k><v_k|.
    Builds Gamma = (1/N) * sum_k Pi_k |psi_k><psi_k| and checks that Gamma
    is Hermitian within 1e-10 and that Gamma - |psi_k><psi_k|/N has no
    eigenvalue below -1e-9 for any k. Vector and state counts must match.
    """
    n = len(states)
    if len(vectors) != n:
        raise DomainError(f"{len(vectors)} measurement vectors for {n} states")
    overlaps = np.sum(vectors.conj() * states, axis=1)     # <v_k|psi_k>
    gamma = (vectors.T * overlaps) @ states.conj() / n
    defect = float(np.max(np.abs(gamma - gamma.conj().T)))
    gamma_h = (gamma + gamma.conj().T) / 2.0
    rhos = states[:, :, None] * states.conj()[:, None, :]
    lows = np.linalg.eigvalsh(gamma_h - rhos / n)[:, 0]
    worst_k = int(np.argmin(lows))
    worst = float(lows[worst_k])
    passed = defect < HERMITICITY_TOL and worst >= -EIGENVALUE_TOL
    return MedCertificate(which=which, passed=passed, hermiticity_defect=defect,
                          worst_eigenvalue=worst, worst_index=worst_k)


def certify_med_optimality(ws: MatrixWorkspace,
                           which: str = "inputs") -> MedCertificate:
    """Certify the minimum-error projectors against the chosen state family.

    'inputs' certifies them on the alphabet states, 'failure_states' on the
    normalized failure set (whose minimum-error measurement uses the same
    projectors, |u_k><u_k|).
    """
    states = {"inputs": ws.alpha_states, "failure_states": ws.beta_states}.get(which)
    if states is None:
        raise DomainError(f"which must be 'inputs' or 'failure_states', got {which!r}")
    return certify_helstrom(ws.u_states, states, which=which)
