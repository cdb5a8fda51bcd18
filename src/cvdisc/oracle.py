"""Brute-force verification layer.

Rebuilds the discrimination chain as explicit vectors, in the N-dimensional
symmetric basis or in a truncated Fock space. Every measurement element is
rank one: the minimum-error projectors are |u_k><u_k|, and the separation
Kraus operator A conjugates them into |A^dagger u_k><A^dagger u_k|. A
workspace is two stacks of N coordinates on the unit rows, state k of
|alpha> on row k mod N: the states (inputs, failure states) and the
measurement (u, success, failure). All probabilities are re-derived as
tr(Pi rho) = |<v|psi>|^2, and minimum-error optimality is certified through
the Helstrom conditions (Gamma = (1/N) * sum_k Pi_k rho_k Hermitian and
Gamma - rho_k/N positive semidefinite). Both bases share one measurement,
built once per spec; the basis chooses only the row norms, c or the class
norms of the Fock ladder sqrt(p_k), so truncation enters only through them.

The separation model itself is not rebuilt: build_workspace reads c, c_min,
degenerate_mask, degenerate, p_s and full_separation from one
ensemble.coefficients record, not its failure profile b, and forms the
failure states as the failure Kraus image of the inputs over sqrt(1 - p_s).
Agreement with discrim therefore checks the assembly, the trace-derived
probabilities and the Helstrom certificates, not the choice of separation;
gram_probabilities checks that from the eigenvalues of the overlap matrix
gram alone, reading nothing from the kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .discrim import DiscriminationReport, failure_profile
from .ensemble import (GRID_BLOCK, TAIL_EPS, CoefficientProfile, EnsembleSpec, _frozen,
                       basis_amplitudes, coefficients)
from .errors import CertificationFailure, DegenerateEnsemble, DomainError

HERMITICITY_TOL = 1e-10
# Smallest acceptable eigenvalue in PSD checks; above dense-eigensolver noise
# for the dimensions used here.
EIGENVALUE_TOL = 1e-9
_COMPLETENESS_TOL = 1e-10
# Largest N accepted by build_workspace: verify runs within 1 GiB of address
# space up to it, in about a minute at the cap, where its 2N eigvalsh calls
# on N x N matrices dominate (verify certifies the phi workspace only).
VERIFY_N_CAP = 2 ** 9


@dataclass(frozen=True)
class MatrixWorkspace:
    """One alphabet's measurement chain as two read-only C-contiguous stacks
    of N coordinates on the unit rows, one vector per row: states (2, N, N)
    holds the inputs alpha_k and the failure states beta_k, measurement
    (3, N, N) the minimum-error vectors u_k (elements |u_k><u_k|) and the
    success and failure vectors A^dagger u_k, A the separation's success or
    failure Kraus operator. dimension is N or the Fock cutoff + 1.
    """

    dimension: int
    states: np.ndarray
    measurement: np.ndarray


@dataclass(frozen=True)
class MedCertificate:
    """Outcome of a Helstrom optimality check.

    worst_eigenvalue is the most negative eigenvalue of Gamma - rho_k/N over
    all k; hermiticity_defect is the largest entry of |Gamma - Gamma^dagger|.
    """

    which: str
    passed: bool
    hermiticity_defect: float
    worst_eigenvalue: float


def build_workspace(spec: EnsembleSpec,
                    basis: str = "phi",
                    tail_eps: float = TAIL_EPS) -> MatrixWorkspace:
    """Assemble the state and measurement stacks and check completeness.

    The basis chooses only the norms of the N rows, state k on row k mod N:
    'phi' the coefficients c (exact, fast), 'fock' the class norms of the
    Poisson ladder of basis_amplitudes, truncated as tail_eps sets. Every
    vector is stored as its N coordinates on the orthonormal unit rows: the
    states scale the phases w^(kj) by the norms, and the measurement is
    _measurement's stack on the rows of nonzero norm, an exact POVM on their
    span, so the build is O(N^2) at any cutoff. CertificationFailure is
    raised if either completeness relation, checked on the N x N
    coordinates, misses the identity by more than 1e-10. Every element is
    |v><v| for a stored vector v, so it is positive semidefinite by
    construction. N above VERIFY_N_CAP raises DomainError before anything
    is built.
    """
    if basis not in ("phi", "fock"):
        raise DomainError(f"basis must be 'phi' or 'fock', got {basis!r}")
    n = spec.n_states
    if n > VERIFY_N_CAP:
        raise DomainError(f"n_states {n} exceeds cap {VERIFY_N_CAP}")
    phases, a_f, root_failure, measurement = _measurement(spec)
    if basis == "phi":
        norms, dimension = coefficients(spec).c, n
    else:
        amp = basis_amplitudes(spec, tail_eps)
        norms = np.sqrt(np.bincount(np.arange(amp.cutoff + 1) % n, amp.amps * amp.amps, n))
        dimension = amp.cutoff + 1
    scales = np.array((norms, a_f * norms / root_failure))
    return MatrixWorkspace(dimension=dimension,
                           states=_frozen(phases * scales[:, None, :]),
                           measurement=_frozen(measurement * (norms > 0.0)))


@functools.lru_cache(maxsize=1)
def _measurement(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The part of the chain no basis changes, (phases, a_f, sqrt(1 - p_s),
    coords): w^(kj), the failure Kraus diagonal, and the (u, success,
    failure) coordinates w^(kj)/sqrt(N) times 1, a_s and a_f, checked
    complete here. One entry, keyed on the spec's value and at most
    4 * 16 * N^2 bytes: verify's Fock build of a point reuses its phi one."""
    profile = coefficients(spec)
    a_s, a_f = _kraus_diagonals(profile)      # raises DegenerateEnsemble on vacuum
    failure_profile(profile)                  # raises FullSeparation when empty
    n = spec.n_states
    k = np.arange(n)
    phases = _frozen(np.exp(2j * np.pi * np.outer(k, k) / n))      # w^(k*j)
    coords = _frozen(phases * (np.array((np.ones(n), a_s, a_f)) * n ** -0.5)[:, None, :])
    _check_completeness(coords)
    return phases, a_f, np.sqrt(1.0 - profile.p_s), coords


def _kraus_diagonals(profile: CoefficientProfile) -> np.ndarray:
    """Diagonals of the optimal separation Kraus pair in the symmetric
    basis, as the (2, N) stack [success; failure].

    The success action scales basis vector j by c_min/c_j, the failure
    action by sqrt(1 - (c_min/c_j)^2); the failure unitary is fixed to the
    identity. Entries degenerate with c_min, including any c_j that
    underflows to 0 (then c_min = 0), keep the exact fixed point (1, 0).
    """
    if profile.degenerate:
        raise DegenerateEnsemble("separation map undefined for a single-state alphabet")
    a_s = np.divide(profile.c_min, profile.c, out=np.ones_like(profile.c),
                    where=~profile.degenerate_mask)
    a_f = np.sqrt(1.0 - a_s ** 2)      # c_min <= c_j, so a_s <= 1
    return np.array((a_s, a_f))


def _check_completeness(coords: np.ndarray) -> None:
    # coords stacks the (u, success, failure) coordinates C on the N unit
    # rows U, which are orthonormal. Each element sum V.T @ V.conj() of
    # V = C @ U then misses the span projector U.T @ U.conj() by the N x N
    # residual C.T @ C.conj() - 1, or a principal block of it on live rows.
    u, s, f = coords
    eye = np.eye(u.shape[1])
    if float(np.max(np.abs(u.T @ u.conj() - eye))) > _COMPLETENESS_TOL:
        raise CertificationFailure("minimum-error projectors do not resolve the span")
    if float(np.max(np.abs(s.T @ s.conj() + f.T @ f.conj() - eye))) > _COMPLETENESS_TOL:
        raise CertificationFailure("two-stage POVM does not resolve the span")


def _traces(vectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """[k', k] = tr(|v_k'><v_k'| |psi_k><psi_k|) = |<v_k'|psi_k>|^2 over the
    rows of two stacks, each flattened to one matrix of rows."""
    d = states.shape[-1]
    return np.abs(vectors.reshape(-1, d).conj() @ states.reshape(-1, d).T) ** 2


def brute_force_joint(ws: MatrixWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """Conditional outcome probabilities from operator traces, as the dense
    read-only blocks (success, failure).

    success[k'][k] = tr(Pi_success[k'] |alpha_k><alpha_k|), which for the
    rank-one element |v_k'><v_k'| is |<v_k'|alpha_k>|^2, and likewise for
    the failure block. No closed form is consulted and no structure is
    assumed: every one of the 2 N^2 entries is its own trace.
    """
    n = ws.states.shape[1]
    return tuple(_frozen(_traces(ws.measurement[1:], ws.states[0]).reshape(2, n, n)))


def brute_force_probabilities(ws: MatrixWorkspace) -> DiscriminationReport:
    """Re-derive every report field from explicit vectors.

    One trace matrix holds every overlap the report reads: rows are the
    measurement (u, success, failure), columns the states (inputs, failure
    states), and each field is read from one N x N block of it. Where the
    success branch carries a trace mass of exactly 0 (c_min^2 underflows to
    0), confidence_success takes the closed form's limit 1.
    """
    n = ws.states.shape[1]
    traces = _traces(ws.measurement, ws.states)
    # Row block r (u, success, failure) against column block c (alpha, beta):
    # diagonals[r, c] sums the k' = k entries of the block. The success and
    # failure blocks on the inputs are also summed whole. Contiguous copies
    # keep numpy's pairwise summation.
    diagonals = np.diagonal(traces.reshape(3, n, 2, n), axis1=1, axis2=3).copy().sum(axis=2)
    (med, med_beta), (success, _), (failure, _) = diagonals.tolist()
    success_total, failure_total = traces[n:, :n].reshape(2, n * n).sum(axis=1).tolist()
    fidelity = float(np.abs(ws.states[0, 0].conj() @ ws.states[1, 0]) ** 2)
    p_c_med = med / n
    return DiscriminationReport(
        p_s=success_total / n,
        p_c_med=p_c_med,
        p_c_med_beta=med_beta / n,
        p_c_ir=(success + failure) / n,
        fidelity=fidelity,
        infidelity=1.0 - fidelity,
        error_bound=max(0.0, 1.0 - fidelity / p_c_med),
        confidence_success=success / success_total if success_total != 0.0 else 1.0,
        confidence_failure=failure / failure_total,
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


def gram_probabilities(spec: EnsembleSpec) -> DiscriminationReport:
    """Every report field from the eigenvalues lam of the Gram matrix alone,
    with nothing read from the kernel.

    p_s = min(lam) (Chefles and Barnett, Phys. Lett. A 250, 223 (1998)); the
    failure states have Gram matrix (G - p_s 1)/(1 - p_s), and the
    square-root measurement, optimal for symmetric pure states, succeeds
    with (Tr sqrt(.))^2 / N^2 on either ensemble (Ban et al., Int. J. Theor.
    Phys. 36, 1269 (1997)). It holds where eigvalsh resolves p_s and
    1 - p_s, to an absolute error of order N times the machine epsilon.
    """
    n = spec.n_states
    lam = np.clip(np.linalg.eigvalsh(gram(spec)), 0.0, None)
    p_s = float(lam[0])
    mu = (lam - p_s) / (1.0 - p_s)
    p_c_med, p_c_med_beta, fidelity = (float(np.sqrt(x).sum() / n) ** 2
                                       for x in (lam, mu, lam * mu))
    return DiscriminationReport(
        p_s=p_s, p_c_med=p_c_med, p_c_med_beta=p_c_med_beta,
        p_c_ir=p_s + (1.0 - p_s) * p_c_med_beta,
        fidelity=fidelity, infidelity=1.0 - fidelity,
        error_bound=max(0.0, 1.0 - fidelity / p_c_med),
        confidence_success=1.0, confidence_failure=p_c_med_beta,
    )


def _certify(vectors: np.ndarray, families: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Helstrom conditions of one measurement on a stack of state families.

    vectors (N, N) holds one measurement vector per outcome and families
    (f, N, N) holds f families of N states, each on the N class coordinates
    of the workspace. Returns, per family, the Hermiticity defect
    max |Gamma - Gamma^dagger| and the lowest eigenvalue of
    Gamma - |psi_k><psi_k|/N for every k, shape (f, N). The f*N matrices
    are formed and diagonalised GRID_BLOCK // N^2 at a time (at least one),
    so memory stays O(GRID_BLOCK + f N^2) for any N.
    """
    f, n, _ = families.shape
    overlaps = np.sum(vectors.conj() * families, axis=2)         # <v_k|psi_k>
    gamma = (vectors.T * overlaps[:, None, :]) @ families.conj() / n
    gamma_dagger = gamma.conj().transpose(0, 2, 1)
    defects = np.max(np.abs(gamma - gamma_dagger), axis=(1, 2))
    gamma_h = (gamma + gamma_dagger) / 2.0
    states = families.reshape(f * n, n)
    family = np.arange(f * n) // n
    lows = np.empty(f * n)
    step = max(1, GRID_BLOCK // (n * n))
    for start in range(0, f * n, step):
        psi = states[start:start + step]
        rhos = psi[:, :, None] * psi.conj()[:, None, :]
        block = gamma_h[family[start:start + step]] - rhos / n
        lows[start:start + step] = np.linalg.eigvalsh(block)[:, 0]
    return defects, lows.reshape(f, n)


def _certificate(which: str, defect: float, lows: np.ndarray) -> MedCertificate:
    worst = float(lows.min())
    passed = defect < HERMITICITY_TOL and worst >= -EIGENVALUE_TOL
    return MedCertificate(which=which, passed=passed, hermiticity_defect=float(defect),
                          worst_eigenvalue=worst)


def certify_med_optimality(ws: MatrixWorkspace) -> tuple[MedCertificate, MedCertificate]:
    """Certify the minimum-error projectors |u_k><u_k| on both state
    families in one pass: the pair (inputs, failure_states), 'inputs' on the
    alphabet states and 'failure_states' on the normalized failure set,
    whose minimum-error measurement uses the same projectors. Each passes
    when Gamma is Hermitian within HERMITICITY_TOL and no Gamma -
    |psi_k><psi_k|/N has an eigenvalue below -EIGENVALUE_TOL.
    """
    defects, lows = _certify(ws.measurement[0], ws.states)
    return (_certificate("inputs", defects[0], lows[0]),
            _certificate("failure_states", defects[1], lows[1]))
