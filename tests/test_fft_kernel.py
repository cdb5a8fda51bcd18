"""The per-N sums of the kernel against their literal definitions.

The alphabet's Gram matrix is circulant, so the failure posterior and the
failure block of the joint distribution are each one FFT of a length-N
vector, and the coefficients c_j^2 are its eigenvalues over N. The O(N^3)
double sums below are the definitions those FFTs replace, kept here as the
reference; the coefficients are checked against lgamma block sums, and every
report field against oracle.gram_probabilities, the Gram matrix's eigenvalues,
which share no code with the kernel.
"""

import math

import numpy as np
import pytest

from cvdisc import (
    EnsembleSpec,
    coefficients,
    failure_posterior,
    failure_profile,
    gram_probabilities,
    info_report,
    ir_report,
    joint_distribution,
)
from test_ensemble import poisson_block

# (N, alpha^2) points where 1 - p_s is far above its cancellation floor, so
# both routes evaluate the same profile.
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
    np.testing.assert_allclose(failure_posterior(fail),
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
    c_sq = coefficients(EnsembleSpec(n, alpha_sq)).c_sq
    expect = np.array([poisson_block(n, alpha_sq, j) for j in range(n)])
    np.testing.assert_allclose(c_sq, expect, rtol=0, atol=1e-14)


# p_s runs from 0.44 down to ~6e-5 at (256, 700); eigvalsh resolves p_s only
# to an absolute ~1e-16 * N, which rules out much smaller alpha^2 at N = 256.
@pytest.mark.parametrize("n,alpha_sq", [(3, 0.8), (8, 6.0), (64, 50.0), (256, 700.0)])
def test_large_alphabet_matches_gram_eigenvalues(n, alpha_sq):
    # Every field to rel 1e-9, and full_separation (False on both) exactly.
    rep = ir_report(EnsembleSpec(n, alpha_sq))
    expect = gram_probabilities(EnsembleSpec(n, alpha_sq))
    assert vars(rep) == pytest.approx(vars(expect), rel=1e-9, abs=0.0)


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
