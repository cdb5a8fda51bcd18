"""Grid sweeps of the closed-form relations.

Shared between the property suite (one test per relation, for diagnosis) and
the acceptance gate (all relations on the full grid). Each checker covers one
(N, alpha^2) point and returns a list of violation strings, so callers assert
emptiness or count violations.
"""

import numpy as np

from cvdisc import (
    EnsembleSpec,
    coefficients,
    failure_med,
    failure_profile,
    gram,
    info_report,
    ir_report,
    joint_distribution,
    separation_operators,
)

GRID_N = (3, 4, 5, 6)
GRID_ALPHA_SQ = np.linspace(0.06, 6.0, 100)


def iter_grid():
    for n in GRID_N:
        for a2 in GRID_ALPHA_SQ:
            yield n, float(a2)


def check_overlap_relation(n, a2):
    """<beta_j|beta_k> = G[j][k] / (1 - p_s) for j != k, via sum_l b_l^2 w^(lm)."""
    bad = []
    fail = failure_profile(coefficients(EnsembleSpec(n, a2)))
    g = gram(EnsembleSpec(n, a2))
    ell = np.arange(n)
    for m in range(1, n):
        lhs = np.sum(fail.b ** 2 * np.exp(2j * np.pi * ell * m / n))
        rhs = g[0, m] / (1.0 - fail.p_s)
        if abs(lhs - rhs) > 1e-10:
            bad.append(f"overlap n={n} a2={a2:.4f} m={m}: |lhs-rhs|={abs(lhs - rhs):.3e}")
    return bad


def check_error_bounds(n, a2):
    bad = []
    rep = ir_report(EnsembleSpec(n, a2))
    if 1.0 - rep.p_c_med_beta < (1.0 - rep.fidelity / rep.p_c_med) - 1e-12:
        bad.append(f"fidelity bound n={n} a2={a2:.4f}")
    if 1.0 - rep.p_c_med_beta < (1.0 - rep.fidelity) - 1e-12:
        bad.append(f"infidelity bound n={n} a2={a2:.4f}")
    if abs(rep.error_bound - max(0.0, 1.0 - rep.fidelity / rep.p_c_med)) > 1e-15:
        bad.append(f"error_bound identity n={n} a2={a2:.4f}")
    if abs(rep.infidelity - (1.0 - rep.fidelity)) > 1e-15:
        bad.append(f"infidelity identity n={n} a2={a2:.4f}")
    return bad


def check_probability_ordering(n, a2):
    bad = []
    rep = ir_report(EnsembleSpec(n, a2))
    chain = (rep.p_c_med, rep.p_c_ir, rep.p_s)
    if not (chain[0] >= chain[1] - 1e-12 and chain[1] >= chain[2] - 1e-12):
        bad.append(f"ordering n={n} a2={a2:.4f}: {chain}")
    if not (0.0 <= rep.p_s and rep.p_c_med <= 1.0 + 1e-12):
        bad.append(f"range n={n} a2={a2:.4f}")
    return bad


def check_information_ordering(n, a2):
    bad = []
    info = info_report(EnsembleSpec(n, a2))
    if info.i_ir < info.i_ud - 1e-12:
        bad.append(f"i_ir < i_ud n={n} a2={a2:.4f}: gain={info.gain:.3e}")
    if abs(info.gain - (info.i_ir - info.i_ud)) > 1e-15:
        bad.append(f"gain identity n={n} a2={a2:.4f}")
    if info.i_ir > np.log2(n) + 1e-12:
        bad.append(f"i_ir above log2 N n={n} a2={a2:.4f}")
    return bad


def check_kraus_completeness(n, a2):
    sep = separation_operators(coefficients(EnsembleSpec(n, a2)))
    worst = np.max(np.abs(sep.a_success_diag ** 2 + sep.a_failure_diag ** 2 - 1.0))
    if worst > 1e-12:
        return [f"completeness n={n} a2={a2:.4f}: defect={worst:.3e}"]
    return []


def check_joint_structure(n, a2):
    """Success block p_s*I, columns normalized, uniform outcome marginal."""
    bad = []
    jd = joint_distribution(EnsembleSpec(n, a2))
    p_s = float(jd.success[0, 0])
    if np.max(np.abs(jd.success - p_s * np.eye(n))) > 1e-12:
        bad.append(f"success block n={n} a2={a2:.4f}")
    col_sums = (jd.success + jd.failure).sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > 1e-10:
        bad.append(f"column sums n={n} a2={a2:.4f}")
    marginal = (jd.success + jd.failure).sum(axis=1) / n
    if np.max(np.abs(marginal - 1.0 / n)) > 1e-10:
        bad.append(f"outcome marginal n={n} a2={a2:.4f}")
    if jd.failure.min() < 0.0:
        bad.append(f"negative failure cell n={n} a2={a2:.4f}")
    idx = np.arange(n)
    if np.max(np.abs(jd.failure - jd.failure[(idx[:, None] - idx[None, :]) % n, 0])) > 1e-12:
        bad.append(f"failure block not circulant n={n} a2={a2:.4f}")
    return bad


def check_residual_info(n, a2):
    """Failure-set MED beats random guessing iff the failure span exceeds one."""
    bad = []
    profile = coefficients(EnsembleSpec(n, a2))
    fail = failure_profile(profile)
    med_beta = failure_med(fail)
    if fail.failure_dim >= 2:
        if not med_beta > 1.0 / n:
            bad.append(f"residual info n={n} a2={a2:.4f}: {med_beta} <= 1/N")
    elif fail.failure_dim == 1:
        # Tolerance widened for the 1/(1 - p_s) cancellation amplification.
        if abs(med_beta - 1.0 / n) > 1e-9:
            bad.append(f"one-dim failure n={n} a2={a2:.4f}: {med_beta} != 1/N")
    return bad


def ps_infidelity_violations():
    """P_s >= 1 - F is reported, not asserted: return any violations found."""
    bad = []
    for n, a2 in iter_grid():
        rep = ir_report(EnsembleSpec(n, a2))
        if rep.p_s < (1.0 - rep.fidelity) - 1e-12:
            bad.append(f"p_s < 1-F at n={n} a2={a2:.4f}")
    return bad


ALL_CHECKS = (
    check_overlap_relation,
    check_error_bounds,
    check_probability_ordering,
    check_information_ordering,
    check_kraus_completeness,
    check_joint_structure,
    check_residual_info,
)
