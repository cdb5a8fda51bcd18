"""Minimum-error, unambiguous, and recycled discrimination quantities."""

import math
import tracemalloc

import numpy as np
import pytest

from cvdisc import (
    CoefficientProfile,
    DegenerateEnsemble,
    EnsembleSpec,
    FullSeparation,
    build_workspace,
    coefficients,
    failure_posterior,
    failure_profile,
    info_report,
    ir_report,
    joint_distribution,
)
from cvdisc.analytic3 import KINK_PERIOD, solve_n3

# Frozen anchors, derived once from Poisson block sums and the closed forms.
REPORT_3_1 = {
    "p_s": 0.561043547429809,
    "p_c_med": 0.971359418968222,
    "p_c_med_beta": 0.664797247539021,
    "p_c_ir": 0.852860588887965,
    "fidelity": 0.812501091715789,
    "infidelity": 0.187498908284211,
    "error_bound": 0.163542272973656,
}
REPORT_3_08 = {
    "p_s": 0.435042320322930,
    "p_c_med": 0.946620388398153,
    "p_c_med_beta": 0.658972435084112,
    "p_c_ir": 0.807333858219199,
    "fidelity": 0.853827007074717,
    "infidelity": 0.146172992925283,
    "error_bound": 0.098025969502366,
}


def synthetic_profile(c_sq, degenerate_with_min=None):
    """Build a one-point profile directly from squared coefficients, its
    failure branch declared empty: b and spectrum NaN, full_separation set."""
    c_sq = np.asarray(c_sq, dtype=float)
    n = c_sq.shape[0]
    c = np.sqrt(c_sq)
    deg = np.zeros(n, dtype=bool)
    if degenerate_with_min is not None:
        deg[list(degenerate_with_min)] = True
    empty = np.full(n, math.nan)
    return CoefficientProfile(
        alpha_sq=math.nan, c_sq=c_sq, c=c, c_min=float(c.min()),
        multiplicity=int(max(deg.sum(), 1)), degenerate_mask=deg,
        p_s=n * float(c.min()) ** 2, b=empty, spectrum=empty, full_separation=True)


# --- p_c_med (Helstrom) / p_s (unambiguous success) -------------------------


def test_helstrom_vacuum_is_uniform_guessing():
    assert ir_report(EnsembleSpec(3, 0.0)).p_c_med == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_helstrom_frozen_3_1():
    assert ir_report(EnsembleSpec(3, 1.0)).p_c_med == pytest.approx(REPORT_3_1["p_c_med"],
                                                                  abs=1e-12)


def test_ud_success_frozen_3_1():
    profile = coefficients(EnsembleSpec(3, 1.0))
    assert profile.p_s == pytest.approx(REPORT_3_1["p_s"], abs=1e-12)
    assert profile.p_s == 3 * (profile.c_min * profile.c_min)


def test_ud_success_vacuum_is_zero():
    assert coefficients(EnsembleSpec(4, 0.0)).p_s == 0.0


def test_ud_success_matches_cubic_at_kink():
    profile = coefficients(EnsembleSpec(3, KINK_PERIOD))
    assert abs(profile.p_s - solve_n3(KINK_PERIOD).p_s) < 1e-9


# --- failure_profile / p_c_med_beta (failure-set Helstrom) -------------------


def test_failure_profile_3_1():
    profile = coefficients(EnsembleSpec(3, 1.0))
    fail = failure_profile(profile)
    assert fail.p_s == pytest.approx(REPORT_3_1["p_s"], abs=1e-12)
    assert abs(fail.b @ fail.b - 1.0) < 1e-12
    assert fail.failure_dim == 2
    # The entry at c_min drops out exactly.
    assert fail.b[int(np.argmin(profile.c_sq))] == 0.0


def test_failure_profile_two_states():
    fail = failure_profile(coefficients(EnsembleSpec(2, 1.0)))
    assert fail.failure_dim == 1
    assert np.count_nonzero(fail.b) == 1
    assert fail.b.max() == pytest.approx(1.0, abs=1e-10)


def test_failure_profile_small_ps_limit():
    # b -> c as p_s -> 0. At alpha^2 = 1e-8 the smallest coefficient (~5e-17)
    # is the entry that sets the size of max|b - c| = c_min.
    profile = coefficients(EnsembleSpec(3, 1e-8))
    fail = failure_profile(profile)
    assert fail.b[2] == 0.0
    assert np.max(np.abs(fail.b - profile.c)) < 1e-6


def test_failure_profile_vacuum_passthrough():
    profile = coefficients(EnsembleSpec(3, 0.0))
    fail = failure_profile(profile)
    assert fail.p_s == 0.0
    np.testing.assert_array_equal(fail.b, profile.c)


def test_failure_med_one_dimensional_failure_set():
    assert ir_report(EnsembleSpec(2, 1.0)).p_c_med_beta == pytest.approx(0.5, abs=1e-12)


def test_failure_med_frozen_3_1():
    assert ir_report(EnsembleSpec(3, 1.0)).p_c_med_beta == pytest.approx(
        REPORT_3_1["p_c_med_beta"], abs=1e-12)


def test_failure_med_beats_guessing():
    assert ir_report(EnsembleSpec(4, 1.0)).p_c_med_beta > 0.25


# --- ir_report ---------------------------------------------------------------


@pytest.mark.parametrize("alpha_sq,expect", [(1.0, REPORT_3_1), (0.8, REPORT_3_08)])
def test_ir_report_frozen(alpha_sq, expect):
    rep = ir_report(EnsembleSpec(3, alpha_sq))
    for field, value in expect.items():
        assert getattr(rep, field) == pytest.approx(value, abs=1e-9), field
    assert rep.confidence_success == 1.0
    assert rep.confidence_failure == pytest.approx(expect["p_c_med_beta"], abs=1e-12)
    assert not rep.full_separation


def test_ir_report_success_rate_near_42_percent():
    assert 0.40 <= ir_report(EnsembleSpec(3, 0.8)).p_s <= 0.44


def test_ir_report_vacuum():
    rep = ir_report(EnsembleSpec(3, 0.0))
    assert rep.p_s == 0.0
    assert rep.p_c_med == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.p_c_ir == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.fidelity == 1.0
    assert rep.infidelity == 0.0
    assert rep.error_bound == 0.0


def test_ir_report_full_separation_sentinel():
    rep = ir_report(EnsembleSpec(3, 45.0))
    assert rep.full_separation
    assert rep.p_c_ir == 1.0
    assert rep.p_s > 1.0 - 1e-15
    for field in ("p_c_med_beta", "fidelity", "infidelity", "error_bound",
                  "confidence_failure"):
        assert math.isnan(getattr(rep, field)), field


def test_full_separation_exception_from_failure_profile():
    with pytest.raises(FullSeparation):
        failure_profile(coefficients(EnsembleSpec(3, 45.0)))


# (3, 45) empties the branch through 1 - p_s, (3, 16) through an all-degenerate
# minimum; the vacuum and the ordinary points keep it. Which alpha^2 is empty
# is not pinned: the test only asks that every view agrees with
# profile.full_separation.
@pytest.mark.parametrize("n,alpha_sq", [(3, 45.0), (3, 16.0), (3, 0.0), (3, 1.0),
                                        (5, 1.5), (8, 2.0)])
def test_single_sentinel_decision(n, alpha_sq):
    spec = EnsembleSpec(n, alpha_sq)
    profile = coefficients(spec)
    empty = profile.full_separation
    assert empty == (1.0 - profile.p_s < 1e-15 or profile.multiplicity == n)
    assert ir_report(spec).full_separation == empty
    info = info_report(spec)
    assert (info.h_fail == 0.0 and info.i_ir == math.log2(n)) == empty
    if profile.degenerate:
        with pytest.raises(DegenerateEnsemble):
            joint_distribution(spec)
    else:
        assert (not joint_distribution(spec).failure.any()) == empty
    if not empty:
        assert failure_profile(profile) is profile
        return
    assert math.isnan(ir_report(spec).p_c_med_beta)
    with pytest.raises(FullSeparation):
        failure_posterior(profile)
    with pytest.raises(FullSeparation) as exc:
        failure_profile(profile)
    if 1.0 - profile.p_s < 1e-15:
        assert str(exc.value) == (f"separation succeeds with probability {profile.p_s}; "
                                   "no failure states exist")
    else:
        assert str(exc.value) == (f"all {n} live coefficients are degenerate with "
                                   f"c_min; failure space is empty (p_s={profile.p_s})")


def test_all_degenerate_message():
    # Every entry in the band while 1 - p_s stays above 1e-15.
    banded = synthetic_profile([0.25 - 1e-12] * 3 + [0.25 + 3e-12],
                               degenerate_with_min=range(4))
    assert 1.0 - banded.p_s > 1e-15
    with pytest.raises(FullSeparation, match=r"^all 4 live coefficients are degenerate "
                                             r"with c_min; failure space is empty \(p_s="):
        failure_profile(banded)


# --- joint_distribution ------------------------------------------------------


def test_joint_3_1_structure():
    jd = joint_distribution(EnsembleSpec(3, 1.0))
    p_s = REPORT_3_1["p_s"]
    np.testing.assert_allclose(jd.success, p_s * np.eye(3), rtol=0, atol=1e-12)
    np.testing.assert_allclose((jd.success + jd.failure).sum(axis=0), 1.0,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(jd.failure.sum(axis=0), 1.0 - p_s,
                               rtol=0, atol=1e-12)
    # Correct-outcome diagonal carries (1 - p_s) * p_c_med_beta.
    np.testing.assert_allclose(np.diag(jd.failure),
                               (1.0 - p_s) * REPORT_3_1["p_c_med_beta"],
                               rtol=0, atol=1e-9)
    assert jd.failure.min() >= 0.0


def test_joint_is_circulant():
    jd = joint_distribution(EnsembleSpec(5, 1.5))
    idx = np.arange(5)
    np.testing.assert_allclose(jd.failure,
                               jd.failure[(idx[:, None] - idx[None, :]) % 5, 0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,alpha_sq", [
    *[(n, a2) for n in (2, 3, 8, 64, 1024) for a2 in (0.7, 1.0, 2.5, 50.0)],
    (1024, 300.0), (3, 45.0),
])
def test_joint_blocks_are_the_indexed_forms(n, alpha_sq):
    # The dense views, built on first access from p_s and shift, are the
    # indexed forms of the FFT of b bit for bit. (3, 45), and N = 2 and 3 at
    # alpha^2 = 50, separate fully: their blocks are the limits identity and
    # zero.
    spec = EnsembleSpec(n, alpha_sq)
    profile = coefficients(spec)
    p_s, shift = 1.0, np.zeros(n)
    if not profile.full_separation:
        p_s = profile.p_s
        shift = (1.0 - p_s) * (np.abs(np.fft.fft(profile.b)) ** 2 / n)
    idx = np.arange(n)
    jd = joint_distribution(spec)
    assert jd.p_s == p_s and jd.shift.tobytes() == shift.tobytes()
    assert jd.n_states == n and not jd.shift.flags.writeable
    for block, expected in ((jd.failure, shift[(idx[:, None] - idx[None, :]) % n]),
                            (jd.success, np.eye(n) * p_s)):
        assert block.dtype == expected.dtype and block.tobytes() == expected.tobytes()
        assert block.flags.c_contiguous and block.flags.owndata
        assert block.base is None and not block.flags.writeable
    assert jd.success is jd.success and jd.failure is jd.failure
    # columns() lays out the same values per preparation, in any row range.
    dense = np.stack([jd.success.T, jd.failure.T], axis=-1)
    assert jd.columns().tobytes() == dense.tobytes()
    for start, stop in ((0, 1), (n // 3, n // 2 + 1), (n - 1, n + 5), (-1, None),
                        (-n - 3, 2), (n + 2, n + 5), (3, 1)):
        assert jd.columns(start, stop).tobytes() == dense[start:stop].tobytes()


def test_joint_record_holds_no_dense_block():
    # N + 1 numbers fix the joint. The profile's fold is the largest
    # allocation, 0.40 MiB at N = 4096, where each dense block would take
    # 128 MiB.
    spec = EnsembleSpec(4096, 50.0)
    tracemalloc.start()
    try:
        joint_distribution(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_joint_full_separation_collapses():
    jd = joint_distribution(EnsembleSpec(3, 45.0))
    assert not jd.failure.any()
    np.testing.assert_allclose(jd.success, np.eye(3) * jd.success[0, 0],
                               rtol=0, atol=0)
    assert jd.success[0, 0] > 1.0 - 1e-15


def test_joint_vacuum_raises():
    with pytest.raises(DegenerateEnsemble):
        joint_distribution(EnsembleSpec(3, 0.0))


# --- overlaps <alpha_j|beta_k> ---------------------------------------------


def overlaps(spec):
    """[j, k] = <alpha_j|beta_k> from the oracle's explicit states."""
    ws = build_workspace(spec)
    alpha, beta = ws.states
    return alpha.conj() @ beta.T


def test_overlap_diagonal_is_root_fidelity():
    rep = ir_report(EnsembleSpec(4, 1.0))
    ov = overlaps(EnsembleSpec(4, 1.0))
    for j in range(4):
        assert abs(ov[j, j].imag) < 1e-12
        assert ov[j, j].real == pytest.approx(math.sqrt(rep.fidelity), abs=1e-12)


def test_overlap_peaks_on_diagonal():
    ov = np.abs(overlaps(EnsembleSpec(6, 2.0)))
    for j in range(6):
        assert ov[j, j] > max(ov[j, k] for k in range(6) if k != j)
