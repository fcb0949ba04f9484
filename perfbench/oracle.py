"""Reference values for the benchmark's checks, sharing no code with qheine.

Heine's series Phi[a,b;c;q,z] = sum A_n z^n has coefficients
A_n = (a,b;q)_n / (c,q;q)_n that tend to L = (a,b;q)_inf / (c,q;q)_inf at
rate q^n, so the pole split

    Phi(z) = L/(1-z) + sum_n (A_n - L) z^n

needs only about log(eps)/log(q) terms whatever |z| is (Gasper & Rahman,
*Basic Hypergeometric Series*, ch. 1).  Two evaluators use it:

* `phi_double` (one z) and `phi_circle` (M uniform angles, by one FFT)
  work in doubles and return an error bound with each value; they are
  cheap enough to check every output.
* `phi_mp` works in mpmath at 30 or more digits; it checks a fixed
  subsample and any point where the double bound is not conclusive.

The paper's sufficient conditions (the two fraction hypotheses, the
threshold T1 and the B_n chain) and the moment sequences are recomputed
here too, from their definitions.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

EPS = np.finfo(float).eps
# against mpmath on 3000 random points, the double pole split's error
# stayed below 16 eps * scale (scale: the sum of the absolute parts) at one
# point and below 0.015 of the FFT bound on the circle; the bounds are 8x
# and 64x those
_POINT_SAFETY = 128.0
_CIRCLE_SAFETY = 16.0
ORACLE_DPS = 30


def _ratio_minus_one(a, b, c, q, qk):
    """r_k - 1 for r_k = A_{k+1}/A_k, without cancellation."""
    den = (1.0 - c * qk) * (1.0 - q * qk)
    return (qk * (c + q - a - b) + qk * qk * (a * b - c * q)) / den


def _term_count(a, b, c, q, rel):
    """Enough terms that |r_k - 1| < rel beyond them."""
    size = max(1.0, abs(a) + abs(b) + abs(c) + q, abs(a * b) + abs(c * q))
    return max(8, int(math.ceil(math.log(rel / (4.0 * size)) / math.log(q))) + 2)


def pole_split_double(a, b, c, q):
    """(L, D) with D_n = A_n - L for n < K, all in double precision.

    D_n = L expm1(-S_n) with S_n = sum_{k>=n} log r_k, so D_n keeps full
    relative accuracy even where A_n and L agree to many digits.  Returns
    None when some r_k <= 0 (a factor changes sign), where the log form
    does not apply.
    """
    K = _term_count(a, b, c, q, 1e-18)
    qk = q ** np.arange(K, dtype=float)
    e = _ratio_minus_one(a, b, c, q, qk)
    if np.any(e <= -1.0) or not np.all(np.isfinite(e)):
        return None
    logs = np.log1p(e)
    suffix = np.cumsum(logs[::-1])[::-1]
    L = math.exp(float(suffix[0]))
    return L, L * np.expm1(-suffix)


def phi_double(a, b, c, q, z):
    """(Phi[a,b;c;q,z], absolute error bound, sum of absolute parts), or
    None where the double split does not apply."""
    split = pole_split_double(a, b, c, q)
    if split is None:
        return None
    L, D = split
    z = complex(z)
    az = abs(z)
    acc = 0j
    mag = 0.0
    for d in D[::-1].tolist():
        acc = acc * z + d
        mag = mag * az + abs(d)
    pole = L / (1.0 - z)
    scale = abs(pole) + mag
    return pole + acc, _POINT_SAFETY * EPS * scale, scale


def phi_circle(a, b, c, q, rho, M):
    """Phi at rho e^{2 pi i k/M}, k = 0..M-1, with error bounds.

    The polynomial part is one inverse FFT of D_n rho^n, which evaluates
    it exactly at the M-th roots of unity when it has at most M terms.
    """
    split = pole_split_double(a, b, c, q)
    if split is None or len(split[1]) > M:
        raise ValueError(f"pole split does not apply at {(a, b, c, q)} with M={M}")
    L, D = split
    K = len(D)
    weighted = D * rho ** np.arange(K)
    padded = np.zeros(M, dtype=complex)
    padded[:K] = weighted
    z = rho * np.exp(2j * np.pi * np.arange(M) / M)
    pole = L / (1.0 - z)
    scale = np.abs(pole) + float(np.abs(weighted).sum())
    bound = _CIRCLE_SAFETY * EPS * (K + math.log2(M)) * scale
    return pole + np.fft.ifft(padded) * M, bound


def phi_mp(a, b, c, q, z, dps=ORACLE_DPS):
    """Phi[a,b;c;q,z] by the pole split in mpmath, to about dps digits."""
    guard = dps + 20
    with mpmath.workdps(guard):
        a, b, c, q = (mpmath.mpf(x) for x in (a, b, c, q))
        z = mpmath.mpc(z)
        stop = mpmath.mpf(10) ** (-guard)
        # L by its infinite products, truncated where q^k < 10^-guard
        L = mpmath.mpf(1)
        qk = mpmath.mpf(1)
        while abs(qk) > stop:
            L *= (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk))
            qk *= q
        A = mpmath.mpf(1)
        zn = mpmath.mpc(1)
        total = L / (1 - z)
        qk = mpmath.mpf(1)
        size = abs(L) + 1
        while True:
            term = (A - L) * zn
            total += term
            if abs(A - L) < stop * size:
                break
            A *= (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk))
            qk *= q
            zn *= z
        with mpmath.workdps(dps):
            return +total


def _series_coeffs_mp(a, b, c, q, N, scale=1):
    """A_n scale^n for n = 0..N as mpmath numbers (current precision)."""
    out = [mpmath.mpf(1)]
    qk = mpmath.mpf(1)
    for _ in range(N):
        out.append(out[-1] * scale * (1 - a * qk) * (1 - b * qk)
                   / ((1 - c * qk) * (1 - q * qk)))
        qk *= q
    return out


def moments_mp(variant, a, b, c, q, N, dps=60):
    """Taylor coefficients m_0..m_N of the moment-normalised ratio.

    shift_bc: Phi[a,bq;cq;q,qz]/Phi[a,b;c;q,qz]; shift_a: Phi[aq,b;c;q,z]/
    Phi[a,b;c;q,z]; shift_all: Phi[aq,bq;cq;q,z]/Phi[a,b;c;q,z].  Series
    division at dps digits, returned as doubles.
    """
    with mpmath.workdps(dps):
        a, b, c, q = (mpmath.mpf(x) for x in (a, b, c, q))
        if variant == "shift_bc":
            num = _series_coeffs_mp(a, b * q, c * q, q, N, q)
            den = _series_coeffs_mp(a, b, c, q, N, q)
        elif variant == "shift_a":
            num = _series_coeffs_mp(a * q, b, c, q, N)
            den = _series_coeffs_mp(a, b, c, q, N)
        else:
            num = _series_coeffs_mp(a * q, b * q, c * q, q, N)
            den = _series_coeffs_mp(a, b, c, q, N)
        m = []
        for n in range(N + 1):
            acc = num[n] - mpmath.fsum(den[k] * m[n - k] for k in range(1, n + 1))
            m.append(acc / den[0])
        return np.array([float(x) for x in m])


def hausdorff_ok(m, tol=1e-9, dps=60):
    """(-1)^j (Delta^j m)_k >= -tol for all j + k <= N, at dps digits."""
    with mpmath.workdps(dps):
        row = [mpmath.mpf(float(x)) for x in m]
        sign = 1
        while row:
            if any(sign * x < -tol for x in row):
                return False
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
            sign = -sign
    return True


def identity_scale(a, b, c, q, x):
    """Cancellation scale of the four contiguous relations at |z| = x.

    The largest absolute-term sum of the six series the relations combine,
    each times the largest factor it is multiplied by.  With a, b, c in
    [0, 1) every coefficient is positive, so a series' absolute-term sum at
    z is its value at |z|; x <= 0.8 keeps the direct sum short.
    """
    def phi(a1, b1, c1, t):
        n = np.arange(int(math.log(1e-17) / math.log(max(t, 1e-3))) + 1)
        qn = q**n
        ratios = (1 - a1 * qn) * (1 - b1 * qn) / ((1 - c1 * qn) * (1 - q * qn))
        return 1.0 + float(np.dot(np.cumprod(ratios * t), np.ones(len(n))))

    pref_a = abs((1 - a) * (c - b) / ((1 - c) * (1 - c * q))) * x
    pref_b1 = abs(a * (1 - b) / (1 - c)) * x
    pref_b2 = abs(a / (1 - a))
    pref_dq = abs((1 - a) * (1 - b) / ((1 - c) * (1 - q))) * x
    return max(phi(a, b, c, x) * max(1.0, pref_b2),
               phi(a, b * q, c * q, x),
               phi(a * q, b * q, c * q * q, x) * max(1.0, pref_a),
               phi(a * q, b, c, x),
               phi(a * q, b * q, c * q, x) * max(1.0, pref_b1, pref_dq),
               phi(a, b, c, q * x) * max(1.0, pref_b2))


# ---------------------------------------------------------------------------
# the paper's sufficient conditions, with a margin inside which either
# verdict is accepted (a borderline value may round either way)

MARGIN = 1e-12


def hypothesis_verdict(variant, a, b, c, q):
    """True / False, or None when an inequality holds within MARGIN.

    shift_bc: 0 <= q(b-c) <= 1-cq and 0 < a-c <= 1-c.
    shift_a and shift_all: 0 <= 1-aq <= 1-cq and 0 < 1-b <= 1-c.
    """
    if variant == "shift_bc":
        slacks = [q * (b - c), (1 - c * q) - q * (b - c), a - c, (1 - c) - (a - c)]
    else:
        slacks = [1 - a * q, (1 - c * q) - (1 - a * q), 1 - b, (1 - c) - (1 - b)]
    if all(s > MARGIN for s in slacks):
        return True
    if any(s < -MARGIN for s in slacks):
        return False
    return None


def t1(a, b, q):
    """min{ab, ab + E/(2(1-q)), ab + (E+F)/(1-q)} with
    E = aq + bq - q - 2ab + ab/q and F = a + b - q - ab/q."""
    ab = a * b
    e = a * q + b * q - q - 2 * ab + ab / q
    f = a + b - q - ab / q
    return min(ab, ab + e / (2 * (1 - q)), ab + (e + f) / (1 - q))


def bn_verdicts(a, b, c, q, N, slack=1e-13):
    """The set of B_n chain verdicts consistent with the values.

    B_n = A_{n-1} (1-q^n)/(1-q) for n = 1..N with A from the series.
    'decreasing_01' needs 1 >= B_2 >= ... >= B_N >= 0 and 'increasing_12'
    needs 1 <= B_2 <= ... <= B_N <= 2, each up to slack; a comparison
    within MARGIN of its slack admits both outcomes.
    """
    A = [1.0]
    for k in range(N - 1):
        qk = q**k
        A.append(A[-1] * (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk)))
    B = np.array([A[n - 1] * (1 - q**n) / (1 - q) for n in range(1, N + 1)])
    tail = B[1:]
    steps = np.diff(tail)

    def chain(conds):
        vals = np.concatenate([np.atleast_1d(x) for x in conds])
        if np.all(vals > MARGIN):
            return {True}
        if np.any(vals < -MARGIN):
            return {False}
        return {True, False}

    dec = chain([slack - steps, 1 + slack - tail[0], tail[-1] + slack])
    inc = chain([steps + slack, tail[0] - 1 + slack, 2 + slack - tail[-1]])
    out = set()
    if True in dec:
        out.add("decreasing_01")
    if False in dec and True in inc:
        out.add("increasing_12")
    if False in dec and False in inc:
        out.add("neither")
    return out
