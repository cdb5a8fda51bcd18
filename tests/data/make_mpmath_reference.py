"""Regenerate mpmath_reference.json, the frozen high-precision values that
tests/test_low_amplitude.py checks the kernel and tests/test_ensemble.py
checks the Fock amplitudes against.

Run from the repository root with mpmath installed:

    python3 tests/data/make_mpmath_reference.py

c_j^2 is the Poisson series e^(-a) * sum_{k = j mod N} a^k / k!, summed at
60 digits until a term falls below 1e-45 of the partial sum. At (3, 1e-6)
the file also holds p_s = N * min_j c_j^2 and confidence_failure =
(1/N) * (sum_j b_j)^2 with b_j^2 = (c_j^2 - p_s/N) / (1 - p_s).

At each FOCK_POINTS entry (N, alpha^2, tail_eps) the file holds the Fock
cutoff, the smallest n_max >= N - 1 with P(X > n_max) < tail_eps for X
Poisson with mean alpha^2, the tail P(X > n_max) itself, and the amplitudes
<k|phi_j> = sqrt(p_k) / c_j (j = k mod N, p_k = e^(-a) a^k / k!) at about
thirty k spread over 0..n_max. The weights p_k run by recurrence from
p_0 = e^(-a) until they fall below 1e-700, far under the double range.
"""

import json
import os

import mpmath

mpmath.mp.dps = 60

# alpha^2 enters as the double the kernel receives, converted exactly.
COEFFICIENT_POINTS = [(8, 0.1), (16, 0.5), (32, 4.0), (64, 1.3),
                      (3, 1e-6), (6, 0.005), (64, 1e-3)]
REPORT_POINT = (3, 1e-6)
FOCK_POINTS = [(3, 0.01, 1e-12), (64, 0.6, 1e-12), (3, 1.9, 1e-12), (4, 8.0, 1e-12),
               (2, 8.0, 1e-300), (16, 40.0, 1e-9), (8, 40.0, 1e-300), (3, 300.0, 1e-12),
               (128, 1000.0, 1e-6), (3, 3500.0, 1e-12)]


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


def fock(n, alpha_sq, tail_eps):
    a = mpmath.mpf(alpha_sq)
    weights = [mpmath.exp(-a)]
    while len(weights) <= a or weights[-1] > mpmath.mpf(10) ** -700:
        weights.append(weights[-1] * a / len(weights))
    tails = [mpmath.mpf(0)] * len(weights)        # tails[m] = P(X > m)
    for m in range(len(weights) - 2, -1, -1):
        tails[m] = tails[m + 1] + weights[m + 1]
    cutoff = next(m for m in range(n - 1, len(weights)) if tails[m] < tail_eps)
    mode = int(mpmath.floor(a))
    ks = sorted({*range(0, cutoff + 1, max(1, cutoff // 24)), 1, 2, mode - 1, mode, mode + 1,
                 cutoff - 1, cutoff} & set(range(cutoff + 1)))
    c = [mpmath.sqrt(v) for v in c_sq(n, alpha_sq)]
    return {"n": n, "alpha_sq": alpha_sq, "tail_eps": tail_eps, "cutoff": cutoff,
            "tail_mass": mpmath.nstr(tails[cutoff], 20),
            "amplitudes": [[k, mpmath.nstr(mpmath.sqrt(weights[k]) / c[k % n], 20)]
                           for k in ks]}


def main():
    data = {
        "coefficients": [
            {"n": n, "alpha_sq": a2,
             "c_sq": [mpmath.nstr(c, 20) for c in c_sq(n, a2)]}
            for n, a2 in COEFFICIENT_POINTS
        ],
        "report": {"n": REPORT_POINT[0], "alpha_sq": REPORT_POINT[1],
                   **{k: mpmath.nstr(v, 20) for k, v in report(*REPORT_POINT).items()}},
        "fock": [fock(*point) for point in FOCK_POINTS],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mpmath_reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
