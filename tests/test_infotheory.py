"""Entropy, failure-branch posterior, and mutual-information accounting."""

import math

import numpy as np
import pytest

from cvdisc import (
    DomainError,
    EnsembleSpec,
    coefficients,
    failure_posterior,
    failure_profile,
    info_report,
    ir_report,
    joint_distribution,
    shannon_entropy,
)
from cvdisc.analytic3 import KINK_PERIOD

INFO_3_1 = {
    "i_ud": 0.889232983947819,
    "i_ir": 1.033915589229202,
    "gain": 0.144682605281384,
    "h_fail": 1.255356672092294,
}
POSTERIOR_3_1 = [0.664797247539021, 0.167601376230489, 0.167601376230489]


# --- shannon_entropy ---------------------------------------------------------


def test_entropy_deterministic():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform():
    assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-15)


def test_entropy_half_quarter_quarter():
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("probs", [
    [0.5, -0.1, 0.6],
    [0.3, 0.3],
    [0.5, 0.6],
    [[0.5, 0.5]],
])
def test_entropy_rejects_bad_input(probs):
    with pytest.raises(DomainError):
        shannon_entropy(probs)


# --- failure_posterior -------------------------------------------------------


def test_posterior_frozen_3_1():
    fail = failure_profile(coefficients(EnsembleSpec(3, 1.0)))
    post = failure_posterior(fail)
    np.testing.assert_allclose(post, POSTERIOR_3_1, rtol=0, atol=1e-9)
    # Entry 0 is the correct-guess probability on the failure branch.
    assert post[0] == pytest.approx(ir_report(EnsembleSpec(3, 1.0)).p_c_med_beta, abs=1e-12)


@pytest.mark.parametrize("n,alpha_sq", [(3, 0.4), (5, 2.0), (6, 1.1)])
def test_posterior_normalized_and_peaked(n, alpha_sq):
    fail = failure_profile(coefficients(EnsembleSpec(n, alpha_sq)))
    post = failure_posterior(fail)
    assert abs(post.sum() - 1.0) < 1e-12
    assert post.min() >= 0.0
    assert np.argmax(post) == 0


def test_posterior_uniform_when_failure_set_is_one_dimensional():
    fail = failure_profile(coefficients(EnsembleSpec(2, 1.0)))
    post = failure_posterior(fail)
    np.testing.assert_allclose(post, 0.5, rtol=0, atol=1e-12)


# --- info_report -------------------------------------------------------------


def test_info_frozen_3_1():
    info = info_report(EnsembleSpec(3, 1.0))
    for field, value in INFO_3_1.items():
        assert getattr(info, field) == pytest.approx(value, abs=1e-9), field


def test_info_vacuum():
    info = info_report(EnsembleSpec(3, 0.0))
    assert info.i_ud == 0.0
    assert info.i_ir == pytest.approx(0.0, abs=1e-12)
    assert info.gain == pytest.approx(0.0, abs=1e-12)
    assert info.h_fail == pytest.approx(math.log2(3), abs=1e-12)


def test_info_gain_vanishes_at_kink():
    # One failure direction left: recycling adds nothing.
    assert abs(info_report(EnsembleSpec(3, KINK_PERIOD)).gain) < 1e-9


def test_info_full_separation_limit():
    info = info_report(EnsembleSpec(3, 45.0))
    assert info.i_ir == pytest.approx(math.log2(3), abs=0)
    assert info.h_fail == 0.0
    assert info.gain == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_info_saturates_at_large_amplitude(n):
    info = info_report(EnsembleSpec(n, 40.0))
    assert math.log2(n) - info.i_ir < 1e-8
    assert info.i_ir <= math.log2(n) + 1e-12


def test_info_identity_gain():
    info = info_report(EnsembleSpec(5, 1.7))
    assert info.gain == pytest.approx(info.i_ir - info.i_ud, abs=1e-15)


# --- full-joint cross-check ----------------------------------------------------


def mutual_information_from_joint(joint):
    """Mutual information in bits from the full 2N-outcome joint distribution.

    Redundant evaluation path kept as a cross-check against the
    symmetry-reduced formula in info_report: builds p(outcome, branch | k),
    the outcome marginals under the uniform prior, and the exact Bayes
    posteriors, with no symmetry assumption.
    """
    n = joint.n_states
    cond = np.vstack([joint.success, joint.failure])     # (2N, N): p(m | k)
    marginal = cond.mean(axis=1)                         # p(m), uniform prior
    h_cond = 0.0
    for m in range(2 * n):
        if marginal[m] <= 0.0:
            continue
        posterior = cond[m] / (n * marginal[m])
        nz = posterior > 0.0
        h_cond -= marginal[m] * float((posterior[nz] * np.log2(posterior[nz])).sum())
    return math.log2(n) - h_cond


@pytest.mark.parametrize("n,alpha_sq", [
    (3, 0.3), (3, 0.9), (4, 1.7), (5, 3.1), (6, 0.6),
])
def test_full_joint_information_matches_reduced(n, alpha_sq):
    spec = EnsembleSpec(n, alpha_sq)
    full = mutual_information_from_joint(joint_distribution(spec))
    assert full == pytest.approx(info_report(spec).i_ir, abs=1e-10)
