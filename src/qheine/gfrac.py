"""Continued-fraction (g-fraction) machinery for shifted-parameter ratios.

Three ratios of Heine series with shifted parameters admit explicit
continued fractions whose coefficients have closed forms.  Rewritten as
g-fractions 1/(1 - p_1 z/(1 - p_2 z/(1 - ...))) with p_k = (1-g_k')g_{k+1}'
for a sequence g' in [0,1], they are exactly Stieltjes transforms
int_0^1 dmu(t)/(1-tz) of probability-like measures on [0,1], so their
Taylor coefficients form totally monotone (Hausdorff) moment sequences.
This module builds the coefficient sequences, evaluates the fractions by
backward recurrence, extracts moment sequences as weighted path sums of
the fractions (series division where numerators are negative), and tests
total monotonicity.  ratio_eval takes each ratio from its fraction; the
quotient of the two Heine series serves only where the fraction cannot
be taken, or with c > 1 inside |z| = 0.9.  SHIFT_BC's fraction is the
one in the normalised variable qz, Phi[a,bq;cq;q,qz]/Phi[a,b;c;q,qz].
SHIFT_ALL has no fraction of its own: with F_A = 1/(1 - p_1 z T) the
SHIFT_A fraction and T = 1/(1 - p_2 z/(1 - ...)) its tail, the SHIFT_ALL
ratio is z T/(1 - p_1 z T).
"""
from __future__ import annotations

import decimal
import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
    CutError,
    DenominatorZero,
    DomainError,
    InconsistentCoefficients,
    NoConvergence,
)
from .qcore import EvalResult, ParamSet, _decimal_terms, heine_phi, require_finite

_SERIES_FRACTION_SPLIT = 0.9
_CUT_EPS = 1e-12
_CROSSCHECK_TOL = 1e-13
MAX_MOMENT_ORDER = 40
_MAX_DIGITS = 2560


class RatioVariant(enum.Enum):
    """Which shifted ratio a fraction or moment sequence belongs to.

    SHIFT_BC: Phi[a,bq;cq;q,z] / Phi[a,b;c;q,z]
    SHIFT_A:  Phi[aq,b;c;q,z] / Phi[a,b;c;q,z]
    SHIFT_ALL: Phi[aq,bq;cq;q,z] / Phi[a,b;c;q,z]
    """

    SHIFT_BC = "shift_bc"
    SHIFT_A = "shift_a"
    SHIFT_ALL = "shift_all"

    def shift(self, a, b, c, q):
        """The numerator's (a, b, c), from floats or Decimals alike."""
        a_up = self is not RatioVariant.SHIFT_BC
        bc_up = self is not RatioVariant.SHIFT_A
        return (a * q if a_up else a, b * q if bc_up else b, c * q if bc_up else c)


@dataclass(frozen=True, eq=False)
class GFraction:
    """A g-fraction: coefficient sequence plus derived partial numerators.

    g holds the closed-form sequence g_0..g_N (g_0 is a placeholder 0 for
    SHIFT_BC, whose fraction starts at (1-g_1)g_2; it is 1-a for SHIFT_A).
    partial_numerators[k] is the (k+1)-th coefficient p_{k+1} of
    1/(1 - p_1 w/(1 - p_2 w/(1 - ...))).  The variable w is z for SHIFT_A
    and qz for SHIFT_BC, whose fraction is Phi[a,bq;cq;q,qz]/Phi[a,b;c;q,qz].
    """

    g: np.ndarray
    partial_numerators: np.ndarray


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Taylor coefficients m_0..m_N of a moment-normalised ratio."""

    m: np.ndarray


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    violations: Tuple[str, ...]


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    first_violation: Optional[Tuple[int, int]]


def hypothesis_check(variant: RatioVariant, p: ParamSet) -> HypothesisReport:
    """Evaluate the sufficient parameter conditions for the given variant.

    SHIFT_BC requires 0 <= q(b-c) <= 1-cq and 0 < a-c <= 1-c; SHIFT_A and
    SHIFT_ALL require 0 <= 1-aq <= 1-cq and 0 < 1-b <= 1-c.  Every violated
    inequality is reported by name.  Where a term cancels on both sides
    (q > 0), the cancelled form is compared, so rounding cannot decide it:
    q(b-c) >= 0 as c <= b, a-c <= 1-c as a <= 1, 1-aq <= 1-cq as c <= a,
    1-b <= 1-c as c <= b.
    """
    a, b, c, q = p.a, p.b, p.c, p.q
    violations = []
    if variant is RatioVariant.SHIFT_BC:
        if not c <= b:
            violations.append("q(b-c)>=0")
        if not q * (b - c) <= 1.0 - c * q:
            violations.append("q(b-c)<=1-cq")
        if not a - c > 0.0:
            violations.append("a-c>0")
        if not a <= 1.0:
            violations.append("a-c<=1-c")
    else:
        if not 1.0 - a * q >= 0.0:
            violations.append("1-aq>=0")
        if not c <= a:
            violations.append("1-aq<=1-cq")
        if not 1.0 - b > 0.0:
            violations.append("1-b>0")
        if not c <= b:
            violations.append("1-b<=1-c")
    return HypothesisReport(not violations, tuple(violations))


def _check_denominators(den: np.ndarray, p: ParamSet):
    if np.any(den == 0.0):
        raise DenominatorZero(f"(1 - c q^m) vanished for p={p}")


def raw_cfrac_coeffs(variant: RatioVariant, p: ParamSet, N: int) -> np.ndarray:
    """Closed-form continued-fraction coefficients, entry i holding k = i+1.

    SHIFT_BC yields the alternating d_k of the 1/(1+ d_1 z/(1+ ...)) form;
    SHIFT_A (and SHIFT_ALL, which shares its fraction) yields the c_k of
    the inner tail of the 1/(1- ...) form.  No hypothesis is required:
    these are pure formula evaluations.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    a, b, c, q = p.a, p.b, p.c, p.q
    qn = q ** (np.arange(1, N + 1) // 2).astype(float)
    q2n = qn * qn
    o, e = slice(0, None, 2), slice(1, None, 2)  # k = 2n+1, k = 2n: each form on its own
    num, den = np.empty(N), np.empty(N)
    if variant is RatioVariant.SHIFT_BC:
        num[o] = qn[o] * (1.0 - a * qn[o]) * (c * qn[o] - b)
        num[e] = (qn[e] / q) * (1.0 - b * qn[e]) * (c * qn[e] - a)
    else:
        num[o] = qn[o] * (1.0 - a * qn[o] * q) * (b - c * qn[o])
        num[e] = qn[e] * (1.0 - b * qn[e]) * (a - c * qn[e] / q)
    den[o] = (1.0 - c * q2n[o]) * (1.0 - c * q2n[o] * q)
    den[e] = (1.0 - c * q2n[e] / q) * (1.0 - c * q2n[e])
    _check_denominators(den, p)
    return num / den


def gfraction_coeffs(variant: RatioVariant, p: ParamSet, N: int) -> GFraction:
    """Closed-form g-sequence and partial numerators up to index N.

    SHIFT_BC: g_{2n+1} = q^n (a - c q^n)/(1 - c q^{2n}) for n >= 0 and
    g_{2n} = q^n (b - c q^{n-1})/(1 - c q^{2n-1}) for n >= 1, with g_0
    stored as 0 (the fraction starts at (1-g_1)g_2, so p_k = (1-g_k)g_{k+1}).
    SHIFT_A: g_0 = 1-a, g_{2n} = (1-a q^n)/(1-c q^{2n-1}) for n >= 1,
    g_{2n+1} = (1-b q^n)/(1-c q^{2n}) for n >= 0, and p_k = (1-g_{k-1})g_k.
    SHIFT_ALL shares SHIFT_A's fraction: its ratio is z T/(1 - p_1 z T)
    with T = 1/(1 - p_2 z/(1 - ...)) the tail after p_1.  The factors
    1-g_k come from their own closed forms, (1-a q^n)/(1-c q^{2n}) and
    (1-b q^n)/(1-c q^{2n-1}) for SHIFT_BC, a, q^n (b - c q^n)/(1-c q^{2n})
    and q^n (a - c q^{n-1})/(1-c q^{2n-1}) for SHIFT_A, not from 1 minus a
    rounded g_k, which would lose them where g_k is near 1.

    The partial numerators are cross-checked against raw_cfrac_coeffs;
    disagreement raises InconsistentCoefficients.  The SHIFT_BC fraction
    is in the normalised variable qz, so its cut lies on [1, inf) in qz.
    """
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    a, b, c, q = p.a, p.b, p.c, p.q
    # i = 2n+1 at odd entries, i = 2n at even ones; each form is evaluated
    # on its own entries only (even ones from i = 2), so none overflows unused
    n = (np.arange(N + 1) // 2).astype(float)
    qn = q**n
    q2n = qn * qn
    o, e = slice(1, None, 2), slice(2, None, 2)
    den = np.ones(N + 1)
    den[o], den[e] = 1.0 - c * q2n[o], 1.0 - c * q2n[e] / q
    _check_denominators(den, p)
    # one variant's g is the other's 1 - g with a and b swapped; taking
    # both from their closed forms keeps 1 - g accurate where g is near 1
    x, y = (a, b) if variant is RatioVariant.SHIFT_BC else (b, a)
    plain = np.empty(N + 1)
    plain[o], plain[::2] = 1.0 - x * qn[o], 1.0 - y * qn[::2]
    plain /= den
    diff = np.zeros(N + 1)  # diff[0] = 0 is SHIFT_BC's placeholder g_0
    diff[o], diff[e] = qn[o] * (x - c * qn[o]), qn[e] * (y - c * q ** (n[e] - 1.0))
    diff /= den
    if variant is RatioVariant.SHIFT_BC:
        g = diff
        partial = plain[1:-1] * g[2:]
        expected = -q * raw_cfrac_coeffs(variant, p, N - 1)
    else:
        g = plain
        diff[0] = a
        partial = diff[:-1] * g[1:]
        expected = np.concatenate([[a * (1.0 - b) / (1.0 - c)],
                                   raw_cfrac_coeffs(RatioVariant.SHIFT_A, p, N - 1)])
    err = np.max(np.abs(partial - expected) / np.maximum(1.0, np.abs(expected)))
    if err > _CROSSCHECK_TOL:
        raise InconsistentCoefficients(
            f"g-fraction numerators disagree with raw coefficients by {err:.3e}"
        )
    return GFraction(g, partial)


def gfraction_eval(gf: GFraction, w: complex, tol: float = 1e-13) -> EvalResult:
    """Evaluate 1/(1 - p_1 w/(1 - p_2 w/...)) at w, which is qz for SHIFT_BC.

    Backward recurrence from depth D with tail 1, doubling D from 32 until
    two successive depths agree within tol.  Points on the cut (w real,
    >= 1 within 1e-12) raise CutError; a denominator 1 - p_k w/(...) that
    vanishes exactly raises DenominatorZero naming its depth k; running
    out of the stored numerators raises NoConvergence.
    """
    require_finite(w=w)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    w = complex(w)
    if abs(w.imag) < _CUT_EPS and w.real >= 1.0 - _CUT_EPS:
        raise CutError(f"w={w} lies on the fraction's cut")
    if w == 0:
        return EvalResult(1.0 + 0.0j, 1, 0.0)
    p = gf.partial_numerators.tolist()  # numpy scalar arithmetic is several times slower

    def backward(d):
        t = 1.0 + 0.0j
        for k in range(d - 1, -1, -1):
            t = 1.0 - p[k] * w / t
            if t == 0:
                raise DenominatorZero(
                    f"fraction denominator vanished at depth {k + 1} for w={w}")
        return 1.0 / t

    limit = len(p)
    depths = [max(1, min(32, limit) // 2)] if limit <= 32 else []
    d = 32
    while d < limit:
        depths.append(d)
        d *= 2
    depths.append(limit)
    prev = None
    for d in depths:
        value = backward(d)
        if prev is not None and abs(value - prev) <= tol * max(1.0, abs(value)):
            return EvalResult(value, d, abs(value - prev))
        prev = value
    raise NoConvergence(f"fraction not settled at depth {depths[-1]}")


def _path_sums(p: np.ndarray, N: int) -> np.ndarray:
    """Weighted path counts v_0..v_N of the fraction 1/(1 - p_1 z/(1 - p_2 z/...)).

    p holds p_1, p_2, ...; numerators past p_{N+1} never reach the rows
    returned and missing ones count as 0 (the fraction stops there).
    [z^n] of the fraction sums, over the Dyck paths of length 2n, the
    product of p_h over the down steps from height h (Flajolet 1980).
    Taking the steps in pairs gives Motzkin paths: an up step weighs 1, a
    level step at height k weighs p_{2k} + p_{2k+1}, a down step from
    height k weighs p_{2k-1} p_{2k} (p_0 = 0).  Row n, entry k, is the
    weight of the n-step paths from height 0 to height k, so v_n[0] is
    [z^n].  Heights stop at N//2 + 1, which every path of at most N steps
    that ends at height 0 or 1 stays within.  One tridiagonal mat-vec per
    row, O(N^2).
    """
    H = N // 2 + 2
    pp = np.zeros(2 * H)
    k = min(len(p), N + 1)
    pp[1:k + 1] = p[:k]
    step = np.zeros((H, H))
    step.flat[:: H + 1] = pp[0::2] + pp[1::2]
    step.flat[H :: H + 1] = 1.0
    step.flat[1 :: H + 1] = pp[1:-2:2] * pp[2:-1:2]
    v = np.zeros((N + 1, H))
    v[0, 0] = 1.0
    for n in range(1, N + 1):
        np.dot(step, v[n - 1], out=v[n])
    return v


def gfraction_series(gf: GFraction, N: int) -> np.ndarray:
    """Taylor coefficients in w (qz for SHIFT_BC) of the fraction, exact to order N.

    The path sums of _path_sums over the stored numerators (a depth below
    N+1 ends the fraction with tail 1).
    """
    return _path_sums(gf.partial_numerators, N)[:, 0]


def ratio_eval(variant: RatioVariant, p: ParamSet, z: complex) -> complex:
    """The full shifted ratio z*Phi[...]/Phi[a,b;c;q,z] at a point.

    The g-fraction: z F(z/q) for SHIFT_BC, z F(z) for SHIFT_A, and
    z T/(1 - p_1 z T) for SHIFT_ALL, with T the tail of SHIFT_A's fraction
    after p_1, each from 512 numerators.  With c > 1 the factors 1 - c q^m
    change sign and the fraction can settle on a wrong value, so there the
    quotient of the two Heine series serves below |z| = 0.9.  The quotient
    is also the fallback at |z| < 1 on the fraction's cut (SHIFT_BC's real
    segment [q, 1), and the 1e-12 band below z = 1) and on
    InconsistentCoefficients; at |z| >= 1 those errors stand.  Where the
    fraction does not settle it raises NoConvergence: the quotient was off
    by 95 % to 320 % at the unsettled points measured.  Every variant
    evaluates for all a and b.
    """
    require_finite(z=z)
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if p.c < 1.0 or abs(z) >= _SERIES_FRACTION_SPLIT:
        try:
            if variant is RatioVariant.SHIFT_BC:
                return z * gfraction_eval(gfraction_coeffs(variant, p, 512), z * (1.0 / p.q)).value
            gf = gfraction_coeffs(RatioVariant.SHIFT_A, p, 512)
            if variant is RatioVariant.SHIFT_A:
                return z * gfraction_eval(gf, z).value
            zt = z * gfraction_eval(GFraction(gf.g, gf.partial_numerators[1:]), z).value
            t = 1.0 - gf.partial_numerators[0] * zt
            if t == 0:
                raise DenominatorZero(f"fraction denominator vanished at depth 1 for w={z}")
            return zt / t
        except (CutError, InconsistentCoefficients):
            if abs(z) >= 1.0:
                raise
    num = ParamSet(*variant.shift(p.a, p.b, p.c, p.q), p.q)
    return z * (heine_phi(num, z, 1e-14).value / heine_phi(p, z, 1e-14).value)


def _moments_by_path_sums(variant: RatioVariant, p: ParamSet,
                          N: int) -> Optional[np.ndarray]:
    """ratio_moments' double route, or None where it does not apply."""
    shift_all = variant is RatioVariant.SHIFT_ALL
    used = N + 1 if shift_all else N
    try:
        gf = gfraction_coeffs(RatioVariant.SHIFT_A if shift_all else variant, p, used + 2)
    except (DenominatorZero, InconsistentCoefficients):
        return None
    pk = gf.partial_numerators[:used]
    if not np.all((pk >= 0.0) & (pk < np.inf)):
        return None
    v = _path_sums(pk, N)
    # SHIFT_ALL's m_n is [z^{n+1}] F_A / p_1 for the SHIFT_A fraction F_A.
    # The last of those n+1 steps is level at height 0 (weight p_1) or down
    # from height 1 (weight p_1 p_2), so p_1 divides out exactly: no
    # division, and m_0 = 1 exactly
    m = v[:, 0] + pk[1] * v[:, 1] if shift_all and N else v[:, 0]
    return m if np.all(np.isfinite(m)) else None


def _moments_by_division(variant: RatioVariant, p: ParamSet, N: int) -> np.ndarray:
    """ratio_moments' decimal route: long division of the two series."""
    digits, prev = 40, None
    while digits <= _MAX_DIGITS:
        with decimal.localcontext(decimal.Context(prec=digits)):
            a, b, c, q = map(decimal.Decimal, (p.a, p.b, p.c, p.q))
            shifted = variant.shift(a, b, c, q)
            x = q if variant is RatioVariant.SHIFT_BC else 1
            # a factor (1 - a q^n)/(1 - c q^n) with a = c is made exactly 1, so
            # coinciding series (b = c for SHIFT_BC) give exact zeros, not noise
            # that two runs agree on only once it underflows a double
            triples = [(0, b1, 0) if a1 == c1 else (a1, 0, 0) if b1 == c1 else (a1, b1, c1)
                       for a1, b1, c1 in (shifted, (a, b, c))]
            num, den = ([t for t, _ in itertools.islice(_decimal_terms(*abc, q, x, 0), N + 1)]
                        for abc in triples)
            m = []
            for n in range(N + 1):
                m.append(num[n] - sum(den[k] * m[n - k] for k in range(1, n + 1)))
        out = np.array([float(v) for v in m])
        if prev is not None and np.array_equal(out, prev):
            return out
        digits, prev = 2 * digits, out
    raise NoConvergence(f"moments did not settle within {_MAX_DIGITS} digits")


def ratio_moments(variant: RatioVariant, p: ParamSet, N: int) -> MomentSequence:
    """Taylor coefficients m_0..m_N of the moment-normalised ratio.

    SHIFT_BC uses the qz-form Phi[a,bq;cq;q,qz]/Phi[a,b;c;q,qz]; SHIFT_A
    and SHIFT_ALL use the plain-z forms.  m_0 = 1 always.  N <= 40 caps the
    extraction order.

    Two routes, chosen by sign.  When the g-fraction numerators used,
    p_1..p_N (p_1..p_{N+1} for SHIFT_ALL), are all finite and >= 0, as the
    mapping hypotheses make them, the moments are the fraction's path sums
    (_path_sums) in double precision: sums of non-negative products, so no
    cancellation.  Each product has n numerator factors and passes through
    at most 4n + 2 roundings, so, barring underflow,
        |m_n - exact| <= ((1 + eps)^n (1 + g) - 1) m_n,  g = k u/(1 - k u),
    with k = 4n + 2, u = 2^-53, and eps the largest relative error of the
    numerators as gfraction_coeffs computes them (up to about 30 u on
    hypothesis-passing sets with q <= 0.9, hence about 1.5e-13 at N = 40).
    Otherwise (a numerator < 0, or gfraction_coeffs raising) the two Heine
    series are divided in decimal, at 40 digits and then twice as many until
    two runs give the same doubles; NoConvergence past _MAX_DIGITS.
    """
    if not 0 <= N <= MAX_MOMENT_ORDER:
        raise DomainError(f"N must lie in [0, {MAX_MOMENT_ORDER}], got {N}")
    m = _moments_by_path_sums(variant, p, N)
    return MomentSequence(_moments_by_division(variant, p, N) if m is None else m)


def totally_monotone_check(m: Union[MomentSequence, np.ndarray],
                           tol: float = 1e-9) -> MonotoneReport:
    """Hausdorff's criterion: (-1)^j (Delta^j m)_k >= -tol for j + k <= N.

    Delta is the forward difference in k.  Returns the first violating
    (j, k) scanning difference order j outward, None when all pass.  tol
    must be finite and >= 0.
    """
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol}")
    seq = np.asarray(m.m if isinstance(m, MomentSequence) else m, dtype=float)
    row = seq.copy()
    sign = 1.0
    for j in range(len(seq)):
        bad = np.nonzero(sign * row < -tol)[0]
        if len(bad):
            return MonotoneReport(False, (j, int(bad[0])))
        row = np.diff(row)
        sign = -sign
    return MonotoneReport(True, None)
