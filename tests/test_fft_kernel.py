"""The per-N sums of the kernel against their literal definitions.

The alphabet's Gram matrix is circulant, so the coefficients c_j^2, the
failure posterior and the failure block of the joint distribution are each
one FFT of a length-N vector. The O(N^3) double sums below are the
definitions those FFTs replace, kept here as the reference; the large-N
checks compare against the Gram matrix's eigenvalues, which share no code
with the kernel.
"""

import math

import numpy as np
import pytest

from cvdisc import (
    EnsembleSpec,
    coefficients,
    failure_posterior,
    failure_profile,
    info_report,
    ir_report,
    joint_distribution,
)
from test_ensemble import poisson_block

# (N, alpha^2) points where no coefficient is zero-masked and 1 - p_s is far
# above its cancellation floor, so both routes evaluate the same profile.
POINTS = [
    (2, 0.5), (2, 1.7), (3, 0.8), (3, 2.5), (4, 1.2), (4, 3.0), (5, 2.0),
    (5, 4.0), (7, 3.0), (7, 5.0), (8, 4.0), (8, 6.0), (16, 8.0), (16, 12.0),
    (64, 40.0), (64, 50.0),
]


def posterior_double_sum(b):
    """probs[k] = (1/N) sum_{l,m} w^(-k(l-m)) b_l b_m, clamped and normalized."""
    n = b.shape[0]
    outer = np.outer(b, b)
    idx = np.arange(n)
    pair_diff = idx[:, None] - idx[None, :]
    probs = np.empty(n)
    for k in range(n):
        phase = np.exp(-2j * np.pi * k * pair_diff / n)
        probs[k] = float((phase * outer).sum().real) / n
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def failure_block_double_sum(b, p_s):
    """failure[k'][k] = ((1 - p_s)/N) sum_{l,m} w^((k'-k)(l-m)) b_l b_m, clamped."""
    n = b.shape[0]
    outer = np.outer(b, b)
    idx = np.arange(n)
    pair_diff = idx[:, None] - idx[None, :]
    shift_vals = np.empty(n)
    for d in range(n):
        phase = np.exp(2j * np.pi * d * pair_diff / n)
        shift_vals[d] = max(float((phase * outer).sum().real) * (1.0 - p_s) / n, 0.0)
    return shift_vals[(idx[:, None] - idx[None, :]) % n]


@pytest.mark.parametrize("n,alpha_sq", POINTS)
def test_posterior_matches_double_sum(n, alpha_sq):
    fail = failure_profile(coefficients(EnsembleSpec(n, alpha_sq)))
    np.testing.assert_allclose(failure_posterior(fail).probs,
                               posterior_double_sum(fail.b), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,alpha_sq", POINTS)
def test_joint_failure_block_matches_double_sum(n, alpha_sq):
    spec = EnsembleSpec(n, alpha_sq)
    fail = failure_profile(coefficients(spec))
    np.testing.assert_allclose(joint_distribution(spec).failure,
                               failure_block_double_sum(fail.b, fail.p_s),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,alpha_sq", [(64, 40.0), (128, 100.0)])
def test_coefficients_match_block_sums_at_large_n(n, alpha_sq):
    # Entries below 1e-8 are left out: the zero mask sets those under 1e-12
    # to exactly 0, which an absolute tolerance of 1e-14 would not forgive.
    c_sq = coefficients(EnsembleSpec(n, alpha_sq)).c_sq
    expect = np.array([poisson_block(n, alpha_sq, j) for j in range(n)])
    live = expect >= 1e-8
    assert live.sum() >= n // 2
    np.testing.assert_allclose(c_sq[live], expect[live], rtol=0, atol=1e-14)


def _gram_report(n, alpha_sq):
    """Every ir_report field from the eigenvalues of the Gram matrix alone.

    p_s = lambda_min(G) (Chefles and Barnett, Phys. Lett. A 250, 223 (1998));
    the failure states have Gram matrix (G - p_s 1)/(1 - p_s), and the
    square-root measurement succeeds with (Tr sqrt(.))^2 / N^2 on either
    ensemble (Ban et al., Int. J. Theor. Phys. 36, 1269 (1997)).
    """
    k = np.arange(n)
    w = np.exp(2j * np.pi * (k - k[:, None]) / n)      # w^(k-j) at [j, k]
    lam = np.clip(np.linalg.eigvalsh(np.exp(alpha_sq * (w - 1.0))), 0.0, None)
    p_s = float(lam[0])
    mu = (lam - p_s) / (1.0 - p_s)
    p_c_med = float(np.sqrt(lam).sum() / n) ** 2
    p_c_med_beta = float(np.sqrt(mu).sum() / n) ** 2
    fidelity = float(np.sqrt(lam * mu).sum() / n) ** 2
    return {
        "p_s": p_s,
        "p_c_med": p_c_med,
        "p_c_med_beta": p_c_med_beta,
        "p_c_ir": p_s + (1.0 - p_s) * p_c_med_beta,
        "fidelity": fidelity,
        "infidelity": 1.0 - fidelity,
        "error_bound": max(0.0, 1.0 - fidelity / p_c_med),
        "confidence_success": 1.0,
        "confidence_failure": p_c_med_beta,
    }


def test_large_alphabet_matches_gram_eigenvalues():
    # Smaller alpha^2 at this N reaches the zero-masking bias (~1e-7).
    rep = ir_report(EnsembleSpec(256, 700.0))
    assert not rep.full_separation
    for name, expect in _gram_report(256, 700.0).items():
        got = getattr(rep, name)
        assert got == pytest.approx(expect, rel=1e-9, abs=0.0), name


def test_n1024_runs_and_stays_consistent():
    spec = EnsembleSpec(1024, 12000.0)
    rep = ir_report(spec)
    info = info_report(spec)
    joint = joint_distribution(spec)
    assert not rep.full_separation
    col_sums = (joint.success + joint.failure).sum(axis=0)
    assert np.max(np.abs(col_sums - 1.0)) < 1e-12
    assert abs(rep.p_s + np.trace(joint.failure) / 1024 - rep.p_c_ir) < 1e-12
    assert 0.0 <= info.i_ud <= info.i_ir <= math.log2(1024)
