"""The kernel at low amplitude against frozen 60-digit mpmath values.

At small alpha^2 or large N the smallest c_j^2 are far below the O(1) terms
of a Fourier sum, so only a sum of positive terms resolves them. The
reference values in data/mpmath_reference.json come from
data/make_mpmath_reference.py; the smallest entry checked is 5e-277
(N = 64, alpha^2 = 1e-3).
"""

import json
import os

import numpy as np
import pytest

from cvdisc import EnsembleSpec, coefficients, ir_report

with open(os.path.join(os.path.dirname(__file__), "data", "mpmath_reference.json"),
          encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)


@pytest.mark.parametrize("point", REFERENCE["coefficients"],
                         ids=lambda p: f"{p['n']}-{p['alpha_sq']!r}")
def test_every_coefficient_matches_mpmath(point):
    c_sq = coefficients(EnsembleSpec(point["n"], point["alpha_sq"])).c_sq
    expect = np.array([float(v) for v in point["c_sq"]])
    assert expect.min() > 0.0
    np.testing.assert_allclose(c_sq, expect, rtol=1e-14, atol=0.0)


def test_report_at_one_in_a_million_photons():
    point = REFERENCE["report"]
    rep = ir_report(EnsembleSpec(point["n"], point["alpha_sq"]))
    assert rep.p_s == pytest.approx(float(point["p_s"]), rel=1e-14, abs=0.0)
    assert rep.confidence_failure == pytest.approx(float(point["confidence_failure"]),
                                                   rel=1e-14, abs=0.0)
