"""Structural relations swept over alphabets and amplitudes.

One test per relation; the acceptance gate re-runs the same checkers as a
single block. The grid covers N in {3..6} and 100 amplitudes in (0, 6].
"""

import numpy as np
import pytest

import gridchecks
from cvdisc import (
    EnsembleSpec,
    coefficients,
    failure_med,
    failure_profile,
    ir_report,
    ud_success,
)


@pytest.mark.parametrize("checker", gridchecks.ALL_CHECKS,
                         ids=lambda c: c.__name__)
def test_grid_relation(checker):
    violations = []
    for n, a2 in gridchecks.iter_grid():
        violations.extend(checker(n, a2))
    assert not violations, violations[:10]


def test_two_state_failure_never_informs():
    # N = 2 has a one-dimensional failure set at every amplitude. Forming
    # b^2 = (c_max^2 - p_s/2)/(1 - p_s) cancels to machine noise over 1 - p_s,
    # so the tolerance widens as the states approach orthogonality.
    for a2 in np.linspace(0.05, 6.0, 60):
        fail = failure_profile(coefficients(EnsembleSpec(2, float(a2))))
        assert fail.failure_dim == 1
        tol = 1e-12 if a2 <= 2.0 else 1e-9
        assert failure_med(fail) == pytest.approx(0.5, abs=tol)


def test_ps_versus_infidelity_is_reported_not_asserted():
    violations = gridchecks.ps_infidelity_violations()
    print(f"p_s >= 1 - F violations on the grid: {len(violations)}")
    for line in violations[:5]:
        print(" ", line)
    # Informational: the relation held everywhere we looked, but it is not a
    # contract of the closed forms, so the suite only records the count.
    assert isinstance(violations, list)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_low_amplitude_fidelity_expansion(n):
    # F = (1 - (N+1) p_s / (2N))^2 / (1 - p_s) up to O((c_min/c_bar)^4),
    # with c_bar the second-smallest coefficient.
    for a2 in (0.005, 0.01, 0.02, 0.05):
        profile = coefficients(EnsembleSpec(n, a2))
        rep = ir_report(EnsembleSpec(n, a2))
        c_bar = np.sort(profile.c)[1]
        allowance = 10.0 * (profile.c_min / c_bar) ** 4
        approx = (1.0 - (n + 1) * rep.p_s / (2 * n)) ** 2 / (1.0 - rep.p_s)
        assert abs(rep.fidelity - approx) < allowance, a2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ud_success_monotone_toward_separation(n):
    # N * c_min^2 rises from 0 (vacuum) toward 1 (orthogonal alphabet).
    values = [ud_success(coefficients(EnsembleSpec(n, a2)))
              for a2 in (0.0, 0.5, 40.0)]
    assert values[0] == 0.0
    assert 0.0 < values[1] < 1.0
    # Residual overlap decays as exp(-a2 (1 - cos(2 pi/N))): ~2e-9 at N = 6.
    assert values[2] > 1.0 - 1e-7
