"""Closed-form cubic branch solution for the three-state alphabet."""

import math

import numpy as np
import pytest

from cvdisc import DomainError, EnsembleSpec, coefficients, kinks_n3, solve_n3
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.ensemble import MAX_ALPHA_SQ

PERIOD = 4.0 * math.pi / (3.0 * math.sqrt(3.0))


def test_kink_period_constant():
    assert KINK_PERIOD == pytest.approx(PERIOD, abs=0)
    assert KINK_PERIOD == pytest.approx(2.4183991523122903, abs=1e-15)


def test_vacuum_roots():
    sol = solve_n3(0.0)
    assert sol.roots[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.roots[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.roots[2] == pytest.approx(0.0, abs=1e-12)
    assert sol.selected == 3
    assert sol.p_s == pytest.approx(0.0, abs=1e-15)
    assert sol.q_tilde == pytest.approx(1.0, abs=1e-15)
    assert sol.berry_phase == 0.0


def test_rejects_bad_alpha_sq():
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_n3(bad)


def test_selected_branch_schedule():
    # Physical branch cycles 3 -> 1 -> 2, switching at each kink.
    for alpha_sq, branch in ((0.5, 3), (2.0, 3), (2.5, 1), (4.0, 1),
                             (5.0, 2), (7.0, 2), (7.5, 3)):
        assert solve_n3(alpha_sq).selected == branch, alpha_sq


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 9, 10, 12, 1000, 123457])
def test_branch_and_neighbours_follow_the_kink_count(m):
    # At a kink and one ulp either side, the branch and the bounding kinks
    # follow kinks_n3's count, whatever the quotient alpha^2 / KINK_PERIOD
    # rounds to.
    kink = m * PERIOD
    for alpha_sq in (math.nextafter(kink, 0.0), kink, math.nextafter(kink, math.inf)):
        sol = solve_n3(alpha_sq)
        count = kinks_n3(alpha_sq).size
        assert sol.selected == (3, 1, 2)[count % 3]
        assert sol.kink_below == (count * PERIOD if count else None)
        assert (sol.kink_below or 0.0) <= alpha_sq < sol.kink_above
        assert sol.kink_above == (count + 1) * PERIOD


def test_roots_coincide_at_kink():
    sol = solve_n3(KINK_PERIOD)
    assert abs(sol.roots[0] - sol.roots[2]) < 1e-10


def test_cubic_residual_on_grid():
    # Every root must satisfy q^3 - 3q + 2cos(phi) = 0 for q = (1-p) e^(3a/2).
    for a2 in np.linspace(0.0, 8.0, 500):
        sol = solve_n3(float(a2))
        scale = math.exp(1.5 * a2)
        phi = sol.berry_phase
        for p in sol.roots:
            q = (1.0 - p) * scale
            assert abs(q ** 3 - 3.0 * q + 2.0 * math.cos(phi)) < 1e-9 * scale


def test_q_tilde_stays_physical():
    for a2 in np.linspace(0.0, 9.5, 400):
        sol = solve_n3(float(a2))
        assert 1.0 - 1e-12 <= sol.q_tilde <= 2.0 + 1e-12
        assert 0.0 <= sol.p_s <= 1.0
        # Recovering q from 1 - p_s re-amplifies the rounding of p_s by
        # exp(3*alpha^2/2), so the comparison loosens with alpha^2.
        assert sol.q_tilde == pytest.approx((1.0 - sol.p_s) * math.exp(1.5 * a2),
                                            rel=0, abs=1e-16 * math.exp(1.5 * a2) + 1e-12)


def test_matches_coefficient_minimum():
    # Away from the kinks the selected branch equals N * c_min^2.
    kinks = np.array(kinks_n3(8.0))
    for a2 in np.linspace(0.01, 8.0, 320):
        if kinks.size and np.min(np.abs(kinks - a2)) < 1e-3:
            continue
        direct = coefficients(EnsembleSpec(3, float(a2))).p_s
        assert abs(solve_n3(float(a2)).p_s - direct) < 1e-9


def test_p_s_is_the_selected_root():
    # One set of branch values gives both, so p_s is the printed root,
    # clamped to [0, 1], bit for bit.
    rng = np.random.default_rng(28)
    for a2 in (10.0 ** rng.uniform(-4.0, math.log10(30.0), 2000)).tolist():
        sol = solve_n3(a2)
        assert sol.p_s == min(1.0, max(0.0, sol.roots[sol.selected - 1])), a2


def test_p_s_cancellation_stays_within_two_epsilons_of_the_kernel():
    # At small alpha^2, p_s = 1 - q*damp cancels; the kernel's p_s does not.
    # Measured on this draw: at most 1.13 machine epsilons (2.5 before the
    # roots and p_s shared their branch values), 7.9e-9 relative.
    rng = np.random.default_rng(28)
    for a2 in (10.0 ** rng.uniform(-4.0, 0.0, 2000)).tolist():
        exact = coefficients(EnsembleSpec(3, a2)).p_s
        assert abs(solve_n3(a2).p_s - exact) <= 2.0 * 2.0 ** -52, a2


def test_continuity_across_kinks():
    h = 1e-6
    probes = [0.5, 1.9, 3.3, 6.1]
    probes += [m * PERIOD + off for m in (1, 2, 3) for off in (-2 * h, -h, 0.0, h)]
    for a2 in probes:
        delta = abs(solve_n3(a2 + h).p_s - solve_n3(a2).p_s)
        assert delta <= 10.0 * h, a2


def test_frozen_value_at_one():
    assert solve_n3(1.0).p_s == pytest.approx(0.561043547429809, abs=1e-12)


def test_kinks_list():
    assert kinks_n3(2.0).size == 0
    np.testing.assert_allclose(kinks_n3(5.0), [PERIOD, 2 * PERIOD],
                               rtol=0, atol=1e-12)
    kinks = kinks_n3(10.0)
    assert len(kinks) == 4
    np.testing.assert_allclose(np.diff(kinks), PERIOD, rtol=0, atol=1e-12)
    assert kinks[0] == pytest.approx(2.4183991523122903, abs=1e-12)


def test_kinks_boundary_inclusive():
    kinks = kinks_n3(PERIOD)
    assert len(kinks) == 1


@pytest.mark.parametrize("m", [1, 7, 1000, 123457, 4000001])
def test_kinks_count_follows_the_loop_rule(m):
    # The closed-form count keeps the rule m * KINK_PERIOD <= bound on both
    # sides of the m-th kink, and the kinks are the products m * KINK_PERIOD.
    bound = m * PERIOD
    kinks = kinks_n3(bound)
    assert kinks.size == m and kinks[-1] == bound
    assert kinks_n3(math.nextafter(bound, 0.0)).size == m - 1
    assert kinks_n3(math.nextafter(bound, math.inf)).size == m
    assert not kinks.flags.writeable


def test_kinks_rejects_bad_bound():
    for bad in (-1.0, math.nan, math.inf, math.nextafter(MAX_ALPHA_SQ, math.inf)):
        with pytest.raises(DomainError):
            kinks_n3(bad)
    with pytest.raises(DomainError, match="must be > 0"):
        kinks_n3(0.0)
