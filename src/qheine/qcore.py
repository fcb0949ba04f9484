"""Double-precision building blocks for basic (Heine) hypergeometric series.

q-Pochhammer symbols, series coefficients, the pole split of Phi[a,b;c;q,z]
and its point evaluation (direct sum or pole split, by a fixed rule on the
inputs), the classical Gauss series F(a,b;c;z) used for q->1 limit checks,
the q-difference operator, Jackson's q-Gamma function, and a four-way
identity residual report, which sums its series in stdlib decimal where
double cancellation would swamp the residuals.  Heine and Gauss series are
summed directly by one array kernel.

All evaluators are pure functions.  The only state is caches of read-only
results: the pole splits and the factor rows they are built from.
"""
from __future__ import annotations

import cmath
import decimal
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np

from .errors import DenominatorZero, DomainError, NoConvergence

INFINITY = math.inf

DEFAULT_TOL = 1e-12
MAX_TERMS = 100_000

_EPS = float(np.finfo(float).eps)

# |a| q^k below this leaves an infinite product fixed at double precision
_INF_PRODUCT_EPS = 1e-17
# the relative-term stopping rule must fire this many times in a row
_CONSECUTIVE_SMALL = 3
# verify_identities switches to extended precision once any series'
# absolute-term sum, weighted by the identity prefactor it meets, exceeds
# this; beyond it double cancellation error would swamp residuals near 1e-13
_ESCALATE_SCALE = 100.0
# heine_phi's route rule: the break-even of a scalar direct sum (1.1 us a
# term) and the uncached split (100 us + 0.14 us a term).  The array direct
# sum costs 20-35 us + 0.1 us a term, the split 65 us at K = 181 (one core,
# x86-64, Python 3.11, numpy 2.4); the rule is kept so routes and rounding
# stay unchanged, and moving it is a separate change
_SPLIT_MIN_TERMS = 90
_SPLIT_TERM_COST = 0.13


def require_finite(**values) -> None:
    """Raise DomainError naming the first NaN or infinite argument."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def require_unit_interval(**values) -> None:
    """Raise DomainError naming the first argument outside (0, 1)."""
    for name, value in values.items():
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie in (0,1), got {value}")


@dataclass(frozen=True)
class ParamSet:
    """Real parameter tuple (a, b, c, q) with 0 < q < 1.

    c may not equal q^{-m} for any integer m >= 0: such values zero out a
    factor (1 - c q^m) in every series denominator.
    """

    a: float
    b: float
    c: float
    q: float

    def __post_init__(self):
        require_finite(a=self.a, b=self.b, c=self.c)
        require_unit_interval(q=self.q)
        if self.c >= 1.0:
            m = round(math.log(self.c) / -math.log(self.q))
            if abs(self.c * self.q**m - 1.0) < 1e-14:
                raise DomainError(
                    f"c={self.c} equals q^-{m}; denominator (1-c q^{m}) vanishes"
                )


@dataclass(frozen=True)
class EvalResult:
    """A point value together with the work done and a tail-error estimate."""

    value: complex
    terms_used: int
    est_error: float


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Finite coefficient list A_0..A_N of a function analytic at 0."""

    coeffs: np.ndarray


def q_pochhammer(a: complex, q: float, n: Union[int, float]) -> complex:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a q^k); n may be INFINITY.

    The infinite product is truncated once |a| q^k drops below the level
    where further factors cannot move a double.
    """
    require_finite(a=a)
    require_unit_interval(q=q)
    if n == INFINITY:
        if a == 0:
            return 1.0
        k_max = max(1, int(math.log(_INF_PRODUCT_EPS / abs(a)) / math.log(q)) + 2)
        factors = 1.0 - a * geometric_powers(q, k_max)
    else:
        if not n >= 0 or n != int(n):
            raise DomainError(f"n must be a nonnegative integer or INFINITY, got {n}")
        n = int(n)
        if n == 0:
            return 1.0
        factors = 1.0 - a * geometric_powers(q, n)
    prod = factors.prod()
    return complex(prod) if np.iscomplexobj(factors) else float(prod)


def geometric_powers(x: float, count: int) -> np.ndarray:
    """[1, x, x^2, ..., x^(count-1)] by cumulative product."""
    out = np.full(max(count, 0), x)
    out[:1] = 1.0
    return np.multiply.accumulate(out, out=out)


def _heine_ratios(p: ParamSet, N: int) -> np.ndarray:
    """Term ratios A_{n+1}/A_n = (1-aq^n)(1-bq^n)/((1-cq^n)(1-q^{n+1})) for
    n = 0..N-1; raises DenominatorZero if a factor (1 - c q^n) vanishes."""
    qn = geometric_powers(p.q, N)
    den = (1.0 - p.c * qn) * (1.0 - p.q * qn)
    if not den.all():
        raise DenominatorZero(f"(1 - c q^n) vanished for p={p}")
    return (1.0 - p.a * qn) * (1.0 - p.b * qn) / den


def _gauss_ratios(a: float, b: float, c: float, N: int) -> np.ndarray:
    """Term ratios (a+n)(b+n)/((c+n)(1+n)) of F(a,b;c;z) for n = 0..N-1."""
    n = np.arange(N)
    return (a + n) * (b + n) / ((c + n) * (1.0 + n))


def _split_terms(p: ParamSet) -> int:
    """The pole split's term count K; the dropped part sum_{n>=K} |A_n - L|
    is at most |L| size q^K / (1-q)^2."""
    size = abs(p.a) + abs(p.b) + abs(p.c) + p.q
    return max(2, math.ceil(math.log(_EPS * (1.0 - p.q) ** 2 / size) / math.log(p.q)))


class _FactorRows:
    """A small LRU cache of the factors 1 - v q^k of the Heine term ratios,
    one row per (v, q).

    A row is (factor, lg, neg, unit): factor[k] = 1 - v q^k, lg[k] =
    log|1 - v q^k| in log1p form, neg the flags v q^k > 1 (None where there
    are none) and unit the first k with v q^k == 1 (None where there is
    none).  geometric_powers is a running product, so a row built longer
    holds the same bits in its prefix: a request for n entries takes any
    cached row at least n long, and only a missing or shorter row is built
    again, all of them in one outer product.  The rows are read-only; the
    cache keeps at most maxsize.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._rows = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()

    def rows(self, values, q: float, n: int) -> list:
        """The rows of every v in values, each at least n long."""
        # the sign of a zero v reaches the bits of log1p(-v q^k)
        keys = [(v, math.copysign(1.0, v), q) for v in values]
        rows, missing = [], []
        with self._lock:
            for i, key in enumerate(keys):
                row = self._rows.get(key)
                if row is not None and len(row[0]) >= n:
                    self._rows.move_to_end(key)
                else:
                    row = None
                    missing.append(i)
                rows.append(row)
        if not missing:
            return rows
        x = np.outer([values[i] for i in missing], geometric_powers(q, n))
        if (x >= 1.0).any():  # only a, b and c factors can reach 1
            negative = x > 1.0
            negative.setflags(write=False)
            neg = [f if f.any() else None for f in negative]
            unit = [int(np.argmax(u)) if u.any() else None for u in x == 1.0]
            # log(0) past a unit factor is never read: the split stops there
            with np.errstate(divide="ignore"):
                lg = np.log1p(np.where(negative, x - 2.0, -x))
        else:
            lg = np.log1p(-x)
            neg = unit = [None] * len(missing)
        lg.setflags(write=False)
        factor = 1.0 - x
        factor.setflags(write=False)
        with self._lock:
            for i, row in zip(missing, zip(factor, lg, neg, unit)):
                rows[i] = self._rows[keys[i]] = row
                self._rows.move_to_end(keys[i])
            while len(self._rows) > self.maxsize:
                self._rows.popitem(last=False)
        return rows


# a grid sweep visits its points q by q (scanner._scan_chunk); the splits
# at one q read the rows of v and v q for each grid value v of a, b and c,
# and of q itself
FACTOR_ROWS = _FactorRows(maxsize=32)


def _leading_coeffs(fa, fb, fc, fq, count: int) -> np.ndarray:
    """A_0..A_count from the factor rows of a, b, c and q: one cumulative
    product of the term ratios (1-aq^n)(1-bq^n)/((1-cq^n)(1-q^{n+1}))."""
    ratios = fa[:count] * fb[:count] / (fc[:count] * fq[:count])
    return np.concatenate([[1.0], ratios.cumprod()])


_A0 = np.ones(1)  # A_0 alone, as _leading_coeffs gives it at count 0
_A0.setflags(write=False)


def heine_coeffs(p: ParamSet, N: int) -> PowerSeries:
    """Coefficients (a;q)_n (b;q)_n / ((c;q)_n (q;q)_n) for n = 0..N.

    Built by the multiplicative recurrence from the FACTOR_ROWS rows of a,
    b, c and q, by the kernel that gives the pole split its leading
    coefficients, so a grid sweep reuses the rows its splits built.  The
    bits are those of one cumulative product of _heine_ratios.  Raises
    DenominatorZero if any factor (1 - c q^n) vanishes.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    (fa, *_), (fb, *_), (fc, _, _, uc), (fq, *_) = FACTOR_ROWS.rows(
        (p.a, p.b, p.c, p.q), p.q, N)
    if uc is not None and uc < N:
        raise DenominatorZero(f"(1 - c q^n) vanished for p={p}")
    return PowerSeries(_leading_coeffs(fa, fb, fc, fq, N))


@lru_cache(maxsize=256)
@np.errstate(over="ignore", invalid="ignore")  # overflow is checked at the end
def heine_pole_split(p: ParamSet) -> Tuple[float, int, np.ndarray]:
    """(L, m, C) with Phi[a,b;c;q,z] = L z^m/(1-z) + sum_n C_n z^n.

    L = (a,b;q)_inf / (c,q;q)_inf is the limit of the coefficients A_n;
    C_n = A_n for n < m and C_n = A_n - L from m on, where m is the first
    index beyond which |A_n - L| <= |A_n|, so no C_n outgrows its A_n.
    A_n - L decays like q^n: len(C) depends on q and the parameters, never
    on |z|.  With S_n = sum_{k>=n} log|A_{k+1}/A_k|, summed factor by factor
    in log1p form, A_n - L = L expm1(-S_n) (or -L (e^{-S_n} + 1) where an odd
    number of factors beyond n are negative) keeps full relative accuracy
    where A_n and L agree to many digits.  L = A_m e^{S_m} continues the
    product that gives A_0..A_m, so the pole and the leading coefficients
    cancel consistently where |L| dwarfs |Phi|.  A vanishing numerator factor
    terminates the series: then L = 0, m = 0 and C holds its coefficients.
    The factors and their logs come from FACTOR_ROWS.  Raises NoConvergence
    where L or C leaves double range.  The result is cached; C is
    read-only.
    """
    a, b, c, q = p.a, p.b, p.c, p.q
    K = _split_terms(p)
    if K > MAX_TERMS:
        raise NoConvergence(f"pole split needs {K} terms at q={q}")
    # 1 - v q^k are the factors of A_{k+1}/A_k; summing their logs to 2K
    # keeps S_n, and so A_n - L, accurate relative to itself for every n < K
    n = 2 * K
    rows = FACTOR_ROWS.rows((a, b, c, q), q, n)
    (fa, la, na, ua), (fb, lb, nb, ub), (fc, lc, nc, uc), (fq, lq, _, _) = rows
    if uc is not None and uc < n:
        raise DenominatorZero(f"(1 - c q^n) vanished for p={p}")
    ends = [u for u in (ua, ub) if u is not None and u < n]
    if ends:
        L, m, C = 0.0, 0, _leading_coeffs(fa, fb, fc, fq, min(ends))
    else:
        negative = [f[:n] for f in (na, nb, nc) if f is not None]
        if negative:
            flip = sum(negative)[::-1].cumsum()[::-1][:K] % 2 == 1
        else:
            flip = None
        logs = la[:n] + lb[:n] - lc[:n] - lq[:n]
        S = logs[::-1].cumsum()[::-1][:K]
        minus_S = -S
        e = np.exp(minus_S)
        rel = np.expm1(minus_S)  # (A_n - L)/L
        if flip is not None:
            rel = np.where(flip, -e - 1.0, rel)
        larger = (abs(rel) > e).nonzero()[0]
        m = min(int(larger[-1]) + 1, K - 1) if len(larger) else 0
        A = _leading_coeffs(fa, fb, fc, fq, m) if m else _A0
        sign = -1.0 if flip is not None and flip[m] else 1.0
        L = float(A[m] * np.exp(S[m])) * sign
        C = L * rel
        C[:m] = A[:m]
    if not (math.isfinite(L) and np.isfinite(C).all()):
        raise NoConvergence(f"pole split leaves double range (L = {L}) for p={p}")
    C.setflags(write=False)
    return L, m, C


def _direct_sum(z: complex, tol: float, ratios: Callable[..., np.ndarray],
                *args) -> Tuple[EvalResult, float]:
    """sum_n t_n with t_0 = 1, t_{n+1} = t_n r_n z, r = ratios(*args, N).

    The terms are one cumulative product of r z.  The sum stops at the
    first n where |t_n| < tol |S_n| has held _CONSECUTIVE_SMALL times in a
    row, S_n the partial sum to t_n; until the rule fires N doubles, up to
    MAX_TERMS.  The value is the correctly rounded sum of t_0..t_n, and the
    error estimate the geometric tail bound from t_n at ratio max(|z|,
    |t_n| / the last nonzero |t_k|, k < n), at most 0.9995.  Also returns
    sum |t_n|, the summation's cancellation scale.  A non-finite partial
    sum raises NoConvergence.
    """
    # |t_n| falls below tol near n = log(tol)/log|z| for bounded coefficients
    guess = min(MAX_TERMS, math.log(tol) / math.log(abs(z))) if z else 0.0
    N = min(MAX_TERMS, max(16, int(guess) + 2 * _CONSECUTIVE_SMALL))
    while True:
        t = np.empty(N + 1, dtype=complex)
        t[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(ratios(*args, N) * z, out=t[1:])
            s = np.add.accumulate(t)
            t_abs = np.abs(t)
            small = t_abs[1:] < tol * np.abs(s[1:])
        # bool bytes: the first _CONSECUTIVE_SMALL small terms in a row
        first = small.tobytes().find(b"\x01" * _CONSECUTIVE_SMALL)
        n = first + _CONSECUTIVE_SMALL if first >= 0 else N
        if not cmath.isfinite(s[n]):
            bad = int(np.argmin(np.isfinite(s)))
            raise NoConvergence(f"series overflowed: partial sum {bad} is {s[bad]}")
        if first >= 0:
            break
        if N == MAX_TERMS:
            raise NoConvergence(f"series did not settle within {MAX_TERMS} terms")
        N = min(2 * N, MAX_TERMS)
    k = n - 1
    while t_abs[k] == 0.0:  # t_0 = 1 ends the search
        k -= 1
    rho = min(0.9995, max(abs(z), float(t_abs[n] / t_abs[k])))
    est = float(t_abs[n]) * rho / (1.0 - rho)
    head = t[:n + 1]
    value = complex(math.fsum(head.real.tolist()), math.fsum(head.imag.tolist()))
    return EvalResult(value, n + 1, est), float(t_abs[:n + 1].sum())


def _heine_phi_split(p: ParamSet, z: complex) -> EvalResult:
    """Phi from heine_pole_split: the pole part in closed form plus one dot
    product of C with the powers of z."""
    L, m, C = heine_pole_split(p)
    powers = geometric_powers(z, len(C))
    value = L * powers[m] / (1.0 - z) + C @ powers
    # C_n decays like q^n: the tail beyond the last kept term is geometric
    rho = p.q * abs(z)
    est = 0.0 if L == 0.0 else float(abs(C[-1] * powers[-1])) * rho / (1.0 - rho)
    return EvalResult(complex(value), len(C), est)


def heine_phi(p: ParamSet, z: complex, tol: float = DEFAULT_TOL) -> EvalResult:
    """Phi[a,b;c;q,z] for |z| < 1, by one of two routes.

    The direct sum (_direct_sum) needs about log(tol)/log|z| terms, which
    grows without bound as |z| -> 1; the pole split (heine_pole_split)
    needs K terms, from q and the parameters alone, and works to full
    double precision whatever tol asks.  The split is taken when
    log(tol)/log|z| > _SPLIT_MIN_TERMS + _SPLIT_TERM_COST * K and
    K <= MAX_TERMS (q below about 0.9995); otherwise the sum is direct.
    The choice depends only on the inputs.

    terms_used counts the terms summed: series terms on the direct route,
    len(C) on the split.  est_error estimates the truncation error only,
    not rounding: the geometric tail beyond the last term kept (ratio
    max(|z|, the last observed term ratio) directly, q|z| on the split;
    0 where the series terminates).  Where the terms cancel heavily
    (sum |terms| >> |Phi|) rounding can exceed it.
    """
    require_finite(z=z)
    if abs(z) >= 1.0:
        raise DomainError(f"Heine series requires |z| < 1, got |z|={abs(z)}")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if z == 0:
        return EvalResult(1.0 + 0.0j, 1, 0.0)
    K = _split_terms(p)
    if (K <= MAX_TERMS and math.log(tol) / math.log(abs(z))
            > _SPLIT_MIN_TERMS + _SPLIT_TERM_COST * K):
        return _heine_phi_split(p, z)
    return _direct_sum(z, tol, _heine_ratios, p)[0]


def gauss_f(a: float, b: float, c: float, z: complex,
            tol: float = DEFAULT_TOL) -> EvalResult:
    """Gauss hypergeometric series F(a,b;c;z), |z| < 1.

    Terminating cases (a or b a nonpositive integer) stop at the zero
    Pochhammer factor.
    """
    require_finite(a=a, b=b, c=c, z=z)
    if abs(z) >= 1.0:
        raise DomainError(f"Gauss series requires |z| < 1, got |z|={abs(z)}")
    if c <= 0.0 and c == int(c):
        raise DomainError(f"c must not be a nonpositive integer, got {c}")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if z == 0:
        return EvalResult(1.0 + 0.0j, 1, 0.0)
    return _direct_sum(z, tol, _gauss_ratios, a, b, c)[0]


def gauss_coeffs(a: float, b: float, c: float, N: int) -> PowerSeries:
    """Coefficients (a)_n (b)_n / ((c)_n n!) for n = 0..N."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    require_finite(a=a, b=b, c=c)
    if c <= 0.0 and c == int(c):
        raise DomainError(f"c must not be a nonpositive integer, got {c}")
    return PowerSeries(np.concatenate([[1.0], np.cumprod(_gauss_ratios(a, b, c, N))]))


def q_gamma(x: float, q: float) -> float:
    """Jackson's q-Gamma: (q;q)_inf (1-q)^(1-x) / (q^x;q)_inf, x > 0."""
    require_finite(x=x)
    if x <= 0.0:
        raise DomainError(f"q_gamma requires x > 0, got {x}")
    require_unit_interval(q=q)
    num = q_pochhammer(q, q, INFINITY)
    den = q_pochhammer(q**x, q, INFINITY)
    return float(num / den * (1.0 - q) ** (1.0 - x))


def log_q(u: float, q: float) -> float:
    """log base q, defined for u > 0."""
    require_finite(u=u)
    if u <= 0.0:
        raise DomainError(f"log_q requires u > 0, got {u}")
    require_unit_interval(q=q)
    return math.log(u) / math.log(q)


IDENTITY_NAMES = ("L2.1a", "L2.1b-first", "L2.1b-second", "Dq-relation")


def _identity_factors(a, b, c, q):
    """The real factors k_a, k_b1, k_b2, k_dq that _identity_residuals
    applies to z Phi[aq,bq;cq^2], z Phi[aq,bq;cq], Phi(z) - Phi(qz) and
    z Phi[aq,bq;cq]."""
    return ((1 - a) * (c - b) / ((1 - c) * (1 - c * q)), a * (1 - b) / (1 - c),
            a / (1 - a), (1 - a) * (1 - b) / ((1 - c) * (1 - q)))


def _identity_residuals(values, a, b, c, q, z):
    """Residuals of the four contiguous relations from precomputed values.

    values = (Phi[a,b;c](z), Phi[a,bq;cq](z), Phi[aq,bq;cq^2](z),
              Phi[aq,b;c](z), Phi[aq,bq;cq](z), Phi[a,b;c](qz)).
    Each value and z is a (real, imaginary) pair, of doubles or Decimals;
    the residuals come back as complex.  z Dq Phi is (Phi(z) - Phi(qz))/(1-q).
    """
    x, y = z
    k_a, k_b1, k_b2, k_dq = _identity_factors(a, b, c, q)
    zf_up2, zf_up1 = ((x * v[0] - y * v[1], x * v[1] + y * v[0])
                      for v in (values[2], values[4]))
    # the k's are real, so past the two products z Phi the parts separate
    parts = [(f0 - f_bq_cq - k_a * zf2, f_aq - f0 - k_b1 * zf1,
              f_aq - f0 - k_b2 * (f0 - f0_qz), (f0 - f0_qz) / (1 - q) - k_dq * zf1)
             for f0, f_bq_cq, _, f_aq, _, f0_qz, zf2, zf1 in zip(*values, zf_up2, zf_up1)]
    return [complex(float(re), float(im)) for re, im in zip(*parts)]


def _identity_series(a, b, c, q):
    """(a', b', c', s) of the six series the relations combine, each summed
    at s z, in the order _identity_residuals takes their values.  Works
    for doubles and for Decimals alike."""
    return ((a, b, c, 1), (a, b * q, c * q, 1), (a * q, b * q, c * q**2, 1),
            (a * q, b, c, 1), (a * q, b * q, c * q, 1), (a, b, c, q))


def _decimal_terms(a, b, c, q, x, y):
    """The terms A_n z^n, n = 0, 1, ..., of Phi[a,b;c;q,x+iy] from Decimal
    a, b, c, q, as Decimal (real, imaginary) pairs in the current decimal
    context: t_0 = 1, t_{n+1} = t_n (1-aq^n)(1-bq^n)/((1-cq^n)(1-q^{n+1})) z."""
    tr, ti, qn = decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(1)
    while True:
        yield tr, ti
        r = (1 - a * qn) * (1 - b * qn) / ((1 - c * qn) * (1 - q * qn))
        qn *= q
        tr, ti = r * (tr * x - ti * y), r * (tr * y + ti * x)


def _decimal_phi(a, b, c, q, x, y, digits):
    """Phi[a,b;c;q,x+iy] from Decimal inputs, as Decimal (real, imaginary).

    Sums the _decimal_terms until |t_n| < 10^-digits |sum| holds
    _CONSECUTIVE_SMALL times in a row; raises NoConvergence after MAX_TERMS
    terms beyond t_0.
    """
    tiny2 = decimal.Decimal(10) ** (-2 * digits)
    sr = si = decimal.Decimal(0)
    small_run = 0
    for tr, ti in itertools.islice(_decimal_terms(a, b, c, q, x, y), MAX_TERMS + 1):
        sr += tr
        si += ti
        if tr * tr + ti * ti < tiny2 * (sr * sr + si * si):
            small_run += 1
            if small_run == _CONSECUTIVE_SMALL:
                return sr, si
        else:
            small_run = 0
    raise NoConvergence(f"decimal series did not settle within {MAX_TERMS} terms")


def _identity_residuals_mp(a, b, c, q, z, scale):
    """The four residuals at dps = 25 + log10(scale) digits.

    The six series are summed by _decimal_phi at dps + 5 digits from the
    exact decimal values of the doubles a, b, c, q and z, each stopping at
    MAX_TERMS like the double sums, and the relations are formed from those
    sums at the same precision.
    """
    dps = 25 + max(0, int(math.log10(scale)))
    digits = dps + 5
    with decimal.localcontext(decimal.Context(prec=digits)):
        ad, bd, cd, qd, x, y = map(decimal.Decimal, (a, b, c, q, z.real, z.imag))
        sums = [_decimal_phi(a1, b1, c1, qd, s * x, s * y, digits)
                for a1, b1, c1, s in _identity_series(ad, bd, cd, qd)]
        return _identity_residuals(sums, ad, bd, cd, qd, (x, y))


def verify_identities(p: ParamSet, z: complex, tol: float = DEFAULT_TOL) -> dict:
    """Absolute residuals of the contiguous-parameter identities at (p, z).

    Keys: "L2.1a", "L2.1b-first", "L2.1b-second", "Dq-relation".  The six
    series are summed directly in double precision (to min(tol, 1e-14)).
    When their absolute-term sums, weighted by the prefactors they meet,
    exceed _ESCALATE_SCALE, double cancellation would swamp the residuals:
    the series are then summed again in stdlib decimal at
    dps + 5 digits, dps = 25 + log10(scale), and the residuals formed from
    those sums at the same precision (_identity_residuals_mp), so the
    report reflects the identities, not roundoff.  Each sum, double or
    decimal, raises NoConvergence after MAX_TERMS terms.
    """
    require_finite(z=z)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"identities require |z| < 1, got |z|={abs(z)}")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    a, b, c, q = p.a, p.b, p.c, p.q
    if a == 1.0:
        raise DomainError("identity (b) second form requires a != 1")
    tight = min(tol, 1e-14)
    pairs = [_direct_sum(s * z, tight, _heine_ratios, ParamSet(a1, b1, c1, q))
             for a1, b1, c1, s in _identity_series(a, b, c, q)]
    k_a, k_b1, k_b2, k_dq = map(abs, _identity_factors(a, b, c, q))
    az = abs(z)
    sums = [s for _, s in pairs]
    scale = max(
        sums[0] * max(1.0, k_b2), sums[1], sums[2] * max(1.0, k_a * az),
        sums[3], sums[4] * max(1.0, k_b1 * az, k_dq * az),
        sums[5] * max(1.0, k_b2),
    )
    if scale > _ESCALATE_SCALE:
        residuals = _identity_residuals_mp(a, b, c, q, z, scale)
    else:
        values = [(res.value.real, res.value.imag) for res, _ in pairs]
        residuals = _identity_residuals(values, a, b, c, q, (z.real, z.imag))
    return {name: abs(r) for name, r in zip(IDENTITY_NAMES, residuals)}
