"""Regenerate mpmath_reference.json, the frozen high-precision values that
tests/test_low_amplitude.py checks the kernel against.

Run from the repository root with mpmath installed:

    python3 tests/data/make_mpmath_reference.py

c_j^2 is the Poisson series e^(-a) * sum_{k = j mod N} a^k / k!, summed at
60 digits until a term falls below 1e-45 of the partial sum. At (3, 1e-6)
the file also holds p_s = N * min_j c_j^2 and confidence_failure =
(1/N) * (sum_j b_j)^2 with b_j^2 = (c_j^2 - p_s/N) / (1 - p_s).
"""

import json
import os

import mpmath

mpmath.mp.dps = 60

# alpha^2 enters as the double the kernel receives, converted exactly.
COEFFICIENT_POINTS = [(8, 0.1), (16, 0.5), (32, 4.0), (64, 1.3),
                      (3, 1e-6), (6, 0.005), (64, 1e-3)]
REPORT_POINT = (3, 1e-6)


def c_sq(n, alpha_sq):
    a = mpmath.mpf(alpha_sq)
    out = []
    for j in range(n):
        total = mpmath.mpf(0)
        k = j
        while True:
            term = mpmath.exp(-a) * a ** k / mpmath.factorial(k)
            total += term
            if k > a and term < total * mpmath.mpf(10) ** -45:
                break
            k += n
        out.append(total)
    return out


def report(n, alpha_sq):
    cs = c_sq(n, alpha_sq)
    p_s = n * min(cs)
    b = [mpmath.sqrt((c - p_s / n) / (1 - p_s)) for c in cs]
    return {"p_s": p_s, "confidence_failure": sum(b) ** 2 / n}


def main():
    data = {
        "coefficients": [
            {"n": n, "alpha_sq": a2,
             "c_sq": [mpmath.nstr(c, 20) for c in c_sq(n, a2)]}
            for n, a2 in COEFFICIENT_POINTS
        ],
        "report": {"n": REPORT_POINT[0], "alpha_sq": REPORT_POINT[1],
                   **{k: mpmath.nstr(v, 20) for k, v in report(*REPORT_POINT).items()}},
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mpmath_reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
