"""Seeded Monte Carlo sampler of the two-stage measurement chain."""

import math
import tracemalloc

import numpy as np
import pytest

from cvdisc import (
    DegenerateEnsemble,
    DomainError,
    EnsembleSpec,
    MCConfig,
    joint_distribution,
    simulate,
    coefficients,
)
from cvdisc.montecarlo import N_STATES_CAP, SHOT_CAP

SPEC = EnsembleSpec(3, 1.0)


def analytic_joint(spec):
    """Tensor [prep, outcome, branch] with a uniform preparation prior."""
    jd = joint_distribution(spec)
    n = spec.n_states
    return np.stack([jd.success.T / n, jd.failure.T / n], axis=2)


# --- configuration validation --------------------------------------------------


@pytest.mark.parametrize("shots", [0, -5, 1.5, "many", True])
def test_rejects_bad_shots(shots):
    with pytest.raises(DomainError):
        MCConfig(spec=SPEC, shots=shots, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 0.5, "abc", False])
def test_rejects_bad_seed(seed):
    with pytest.raises(DomainError):
        MCConfig(spec=SPEC, shots=10, seed=seed)


def test_rejects_shots_beyond_cap():
    # Validation runs in __post_init__, before anything is allocated.
    with pytest.raises(DomainError):
        MCConfig(spec=SPEC, shots=10 ** 9 + 1, seed=1)


def test_rejects_n_beyond_cap():
    assert MCConfig(spec=EnsembleSpec(N_STATES_CAP, 1.0), shots=10, seed=1).shots == 10
    with pytest.raises(DomainError, match=f"exceeds cap {N_STATES_CAP}"):
        MCConfig(spec=EnsembleSpec(N_STATES_CAP + 1, 1.0), shots=10, seed=1)


def test_vacuum_raises():
    with pytest.raises(DegenerateEnsemble):
        simulate(MCConfig(spec=EnsembleSpec(3, 0.0), shots=10, seed=0))


# --- bookkeeping ----------------------------------------------------------------


def test_counts_bookkeeping():
    res = simulate(MCConfig(spec=SPEC, shots=40000, seed=7))
    assert res.counts.shape == (3, 3, 2)
    assert res.counts.sum() == 40000
    assert res.empirical_p_s == res.counts[:, :, 0].sum() / 40000
    assert res.rng_algorithm == "numpy-pcg64-multinomial-v2"
    assert res.shots == 40000 and res.seed == 7


def test_success_branch_never_mislabels():
    res = simulate(MCConfig(spec=SPEC, shots=50000, seed=3))
    success = res.counts[:, :, 0]
    off = success[~np.eye(3, dtype=bool)]
    assert not off.any()


def test_empirical_confidence_failure_definition():
    res = simulate(MCConfig(spec=SPEC, shots=50000, seed=11))
    fail = res.counts[:, :, 1]
    assert res.empirical_confidence_failure == pytest.approx(
        np.trace(fail) / fail.sum(), abs=0)


def test_confidence_failure_nan_when_branch_never_fires():
    # Fully separating alphabet: the failure branch has zero probability.
    res = simulate(MCConfig(spec=EnsembleSpec(3, 45.0), shots=1000, seed=5))
    assert res.counts[:, :, 1].sum() == 0
    assert math.isnan(res.empirical_confidence_failure)
    assert res.empirical_p_s == 1.0


@pytest.mark.parametrize("shots", [10 ** 6, SHOT_CAP])
def test_memory_does_not_grow_with_shots(shots):
    # The count tensor is drawn directly, so no array has length shots.
    tracemalloc.start()
    try:
        res = simulate(MCConfig(spec=EnsembleSpec(8, 2.0), shots=shots, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert res.counts.sum() == shots


# --- statistics -----------------------------------------------------------------


def test_empirical_p_s_within_four_sigma():
    shots = 10 ** 6
    res = simulate(MCConfig(spec=SPEC, shots=shots, seed=42))
    p_s = coefficients(SPEC).p_s
    sigma = math.sqrt(p_s * (1 - p_s) / shots)
    assert abs(res.empirical_p_s - p_s) < 4 * sigma


@pytest.mark.parametrize("n,alpha_sq,seed", [
    (3, 1.0, 42), (4, 0.7, 2024), (6, 2.2, 99),
])
def test_joint_cells_within_five_sigma(n, alpha_sq, seed):
    shots = 200000
    spec = EnsembleSpec(n, alpha_sq)
    res = simulate(MCConfig(spec=spec, shots=shots, seed=seed))
    probs = analytic_joint(spec)
    sigma = np.sqrt(probs * (1 - probs) / shots)
    dev = np.abs(res.counts / shots - probs)
    assert np.all(dev[sigma == 0] == 0)
    assert np.max(dev[sigma > 0] / sigma[sigma > 0]) < 5.0


# --- reproducibility --------------------------------------------------------------


def test_same_seed_is_bit_identical():
    a = simulate(MCConfig(spec=SPEC, shots=30000, seed=1234))
    b = simulate(MCConfig(spec=SPEC, shots=30000, seed=1234))
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.empirical_p_s == b.empirical_p_s
    assert a.empirical_confidence_failure == b.empirical_confidence_failure


def test_different_seeds_differ():
    a = simulate(MCConfig(spec=SPEC, shots=30000, seed=1))
    b = simulate(MCConfig(spec=SPEC, shots=30000, seed=2))
    assert not np.array_equal(a.counts, b.counts)


def test_result_arrays_immutable():
    res = simulate(MCConfig(spec=SPEC, shots=100, seed=0))
    with pytest.raises(ValueError):
        res.counts[0, 0, 0] = 1
