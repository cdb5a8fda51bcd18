"""Gram-matrix reference for the benchmark's correctness checks.

This route shares no code with the cvdisc kernel. It builds the overlap
matrix G_jk = exp(alpha^2 (w^(k-j) - 1)) entry by entry and works from its
Hermitian eigen-decomposition, on two theorems for symmetric pure states:

- optimal unambiguous discrimination succeeds with p_s = lambda_min(G)
  (Chefles & Barnett, Phys. Lett. A 250, 223 (1998));
- the square-root measurement, whose outcome probabilities are
  |(G^(1/2))_k'k|^2, is the minimum-error measurement (Ban et al.,
  Int. J. Theor. Phys. 36, 1269 (1997)).

The failure states of the optimal separation have the Gram matrix
(G - p_s 1)/(1 - p_s), so the recycled branch is the square-root measurement
on that matrix. Only numpy is used, and from cvdisc only EnsembleSpec, for
its input validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Reference:
    """Figures of merit of one (N, alpha^2) point, from the Gram matrix.

    success/failure are None unless requested; when present they hold
    p(outcome k', branch | prepared k) with k' the row and k the column.
    """

    p_s: float
    p_c_med: float
    p_c_med_beta: float
    p_c_ir: float
    fidelity: float
    success: np.ndarray | None = None
    failure: np.ndarray | None = None


def gram(spec) -> np.ndarray:
    n = spec.n_states
    idx = np.arange(n)
    diff = idx[None, :] - idx[:, None]
    return np.exp(spec.alpha_sq * (np.exp(2j * np.pi * diff / n) - 1.0))


def figures(spec, with_joint: bool = False) -> Reference:
    """Closed-form figures of merit at one point.

    The failure-state eigenvalues are (lambda - p_s)/(1 - p_s) with p_s the
    computed lambda_min itself, so the eigenvalue the separation removes is
    exactly 0 and its square root adds no rounding noise. fidelity is
    (sum_j sqrt(lambda_j mu_j))^2 / N^2, the squared overlap of a state with
    its failure state under the identity failure gauge.
    """
    n = spec.n_states
    lam, vec = np.linalg.eigh(gram(spec))
    lam = np.clip(lam, 0.0, None)
    p_s = float(lam[0])
    mu = (lam - p_s) / (1.0 - p_s)
    p_c_med = float(np.sqrt(lam).sum() / n) ** 2
    p_c_med_beta = float(np.sqrt(mu).sum() / n) ** 2
    ref = dict(
        p_s=p_s,
        p_c_med=p_c_med,
        p_c_med_beta=p_c_med_beta,
        p_c_ir=p_s + (1.0 - p_s) * p_c_med_beta,
        fidelity=float(np.sqrt(lam * mu).sum() / n) ** 2,
    )
    if with_joint:
        root_beta = (vec * np.sqrt(mu)) @ vec.conj().T
        ref["success"] = np.eye(n) * p_s
        ref["failure"] = (1.0 - p_s) * np.abs(root_beta) ** 2
    return Reference(**ref)


def mutual_information(success: np.ndarray, failure: np.ndarray) -> float:
    """I(outcome; preparation) in bits from the 2N x N conditional table.

    Uniform prior over the N preparations; the sum runs over every
    (outcome, branch, preparation) cell, with no symmetry reduction.
    """
    cond = np.vstack([success, failure])
    n = cond.shape[1]
    joint = cond / n
    marginal = joint.sum(axis=1, keepdims=True)
    ratio = np.divide(joint, marginal / n, out=np.ones_like(joint),
                      where=joint > 0.0)
    return float((joint * np.log2(ratio)).sum())
