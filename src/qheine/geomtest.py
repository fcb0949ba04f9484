"""Numerical geometry checks: q-close-to-convexity and boundary convexity.

Contains the coefficient-sequence criterion (threshold T1 and the B_n
chain), direct sampling of the q-close-to-convexity inequality
|g(z) + f(qz) - f(z)| <= |g(z)| against g(z) = z/(1-z), and sign-change
tests on sampled boundary curves for convexity in the direction of the
imaginary axis.

Curves are images of circles |z| = r under maps z * N(z)/D(z).  Each of N
and D is a side L (s z)^m/(1 - s z) + sum_n C_n (s z)^n.  A Heine series
Phi[a,b;c;q,sz] is split at its pole z = 1/s: its coefficients A_n tend to
L = (a,b;q)_inf/(c,q;q)_inf at rate q^n, so C_n = A_n - L = L expm1(-S_n),
with S_n the tail sum of log(A_{k+1}/A_k), needs about log(eps)/log(q)
terms however close r is to 1 (qcore.heine_pole_split; C_n = A_n before
the index m where A_n comes near L).  Gauss series keep L = 0 and take as
many coefficients as r needs.  The pole part is evaluated directly; the
polynomial part is folded modulo the sample count and turned into samples
by one inverse FFT, exact at uniformly spaced angles; sample_circles takes
all the curves of a scan point through one such pass.  The split does not
cure cancellation: where |L| dwarfs |Phi|, as near z = -r for q near 1
and small a, b, c, samples lose digits in proportion to |L/Phi|.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import CutError, DegenerateCurve, DomainError, NoConvergence, QHeineError
from .gfrac import RatioVariant
from .qcore import (ParamSet, gauss_coeffs, geometric_powers, heine_coeffs,
                    heine_pole_split, log_q, q_gamma, require_finite,
                    require_unit_interval)

_ADAPTIVE_TOL = 1e-13
_MAX_COEFFS = 1 << 20
_KQ_SLACK = 1e-10
_BN_SLACK = 1e-13
MIN_CURVE_SAMPLES = 256
MIN_BN_N = 2


# ---------------------------------------------------------------------------
# series-on-circle machinery

def _adaptive_coeffs(coeff_fn: Callable[[int], np.ndarray], r: float) -> np.ndarray:
    """Enough coefficients that the geometric tail at radius r is negligible;
    NoConvergence at the first coefficient that overflows."""
    N = min(_MAX_COEFFS, max(256, int(33.0 / max(1e-5, -math.log(r))) + 64))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            c = coeff_fn(N)
        finite = np.isfinite(c)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NoConvergence(f"series coefficient {bad} is {c[bad]}")
        weighted = np.abs(c) * geometric_powers(r, len(c))
        scale = max(1.0, float(weighted.sum()))
        tail = float(weighted[-8:].max()) * r / (1.0 - r)
        if tail <= _ADAPTIVE_TOL * scale:
            return c
        if N >= _MAX_COEFFS:
            raise NoConvergence(f"series tail {tail:.3e} at r={r} after {N} coefficients")
        N = min(2 * N, _MAX_COEFFS)


# A side of a curve map is a function r -> (L, m, C, s) standing for
# L (s z)^m/(1 - s z) + sum_n C_n (s z)^n on the circle |z| = r.

def _heine_side(p: ParamSet, s: float = 1.0):
    """Phi[a,b;c;q,s z] by its pole split, the same at every radius."""
    return lambda r: (*heine_pole_split(p), s)


def _series_side(coeff_fn: Callable[[int], np.ndarray]):
    """A series without a pole, with as many coefficients as r needs."""
    return lambda r: (0.0, 0, _adaptive_coeffs(coeff_fn, r), 1.0)


def _one_side(r):
    return 0.0, 0, np.ones(1), 1.0


@lru_cache(maxsize=128)
def _turns(M: int, m: int = 1) -> np.ndarray:
    """e^{2 pi i k m/M} for k = 0..M-1, reduced mod M for accuracy; read-only."""
    out = np.exp(2j * np.pi * ((np.arange(M) * m) % M) / M)
    out.setflags(write=False)
    return out


# Ring tables depend only on the radii (packed as bytes) and M; a grid
# sweep meets the same few at every point of one q.  They are read-only.

def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _ring_powers(rho: bytes, M: int) -> np.ndarray:
    """rho_i^k for k = 0..M-1, one row per radius."""
    return _read_only(np.vander(np.frombuffer(rho), M, increasing=True))


@lru_cache(maxsize=8)
def _fold_powers(rho: bytes, M: int, T: int) -> np.ndarray:
    """(rho_i^M)^t for t = 0..T-1, one row per radius."""
    return _read_only(np.vander(np.frombuffer(rho)**M, T, increasing=True))


@lru_cache(maxsize=8)
def _pole_denominators(rho: bytes, M: int) -> np.ndarray:
    """1 - rho_i e^{2 pi i k/M}, one row per radius."""
    return _read_only(1.0 - np.frombuffer(rho)[:, None] * _turns(M))


@lru_cache(maxsize=8)
def _circle(r: float, M: int) -> np.ndarray:
    """r e^{2 pi i k/M} for k = 0..M-1."""
    return _read_only(r * _turns(M))


def _fold_and_transform(parts, rho: np.ndarray, M: int) -> np.ndarray:
    """Parts (L, m, C) at rho[j, i] e^{2 pi i k/M}, shape (P, R, M).

    Part j stands for L (rho z)^m/(1 - rho z) + sum_n C_n (rho z)^n at the
    R radii in row j of rho.  The pole part is evaluated directly.  The
    polynomial part folds C_n rho^n modulo M: the residue-i fold at radius
    rho is rho^i * P_i(rho^M) with P_i the polynomial of every M-th
    coefficient, so one matrix product against the rho^M power table
    evaluates a part's folds (at most M coefficients need only the rho^i
    factors), and one inverse FFT over every part and radius turns folds
    into uniform-angle samples.
    """
    P, R = rho.shape
    powers = _ring_powers(rho.tobytes(), M).reshape(P, R, M)
    # rho > 0, so the zero coefficients that pad C to a multiple of M
    # leave +0 at their residues
    F = np.zeros((P, R, M))
    for j, (L, m, coeffs) in enumerate(parts):
        n = len(coeffs)
        if n <= M:
            np.multiply(powers[j, :, :n], coeffs, out=F[j, :, :n])
        else:
            C = np.concatenate([coeffs, np.zeros((-n) % M)]).reshape(-1, M)
            fold = _fold_powers(rho[j].tobytes(), M, len(C))
            np.multiply(powers[j], (C.T @ fold.T).T, out=F[j])
    out = np.fft.ifft(F, axis=-1)
    out *= M
    for j, (L, m, coeffs) in enumerate(parts):
        if L != 0.0:
            den = _pole_denominators(rho[j].tobytes(), M)
            if m:
                pole = L * rho[j][:, None]**m * _turns(M, m)
                pole /= den
            else:  # rho^0 = 1 and the turns are 1 + 0i: the numerator is L + 0i
                pole = L / den
            out[j] += pole
    return out


def sample_circles(maps: Sequence[CurveMap], r: float, M: int) -> Iterator[np.ndarray]:
    """Yield each map's samples of the image of |z| = r at M uniform angles.

    Every side is evaluated in one _fold_and_transform; a side that
    several maps share (the same cached split at the same scale, as
    Phi[a,b;c;q,z] is the denominator of both shift_a and shift_all) only
    once.  Sides are requested map by map up to the first that raises.
    Map i's error, or its CutError for a non-finite sample, is raised when
    the caller asks for map i, so a caller that stops at an earlier map
    never sees it.
    """
    parts, rhos, index, pairs, error = [], [], {}, [], None
    for curve_map in maps:
        try:
            sides = [curve_map.num(r), curve_map.den(r)]
        except QHeineError as exc:
            error = exc
            break
        pair = []
        for L, m, coeffs, s in sides:
            key = (id(coeffs), L, m, s)  # a cached split returns the same read-only C
            if key not in index:
                index[key] = len(parts)
                parts.append((L, m, coeffs))
                rhos.append(s * r)
            pair.append(index[key])
        pairs.append(pair)
    if pairs:
        values = _fold_and_transform(parts, np.array(rhos).reshape(-1, 1), M)[:, 0]
        num, den = np.array(pairs).T
        w = values[num]
        with np.errstate(all="ignore"):
            w /= values[den]
            w *= _circle(r, M)
        finite = np.isfinite(w)
        all_finite = finite.all()
    for i, curve_map in enumerate(maps[:len(pairs)]):
        if not (all_finite or finite[i].all()):
            bad = int(np.argmin(finite[i]))
            raise CutError(f"{curve_map.label}: non-finite curve sample at index {bad}")
        yield w[i]
    if error is not None:
        raise error


@dataclass(frozen=True, eq=False)
class CurveMap:
    """A map z * N(z)/D(z); num and den are sides r -> (L, m, C, s) as above."""

    label: str
    num: Callable[[float], tuple]
    den: Callable[[float], tuple]

    def sample_circle(self, r: float, M: int) -> np.ndarray:
        return next(sample_circles([self], r, M))


def _ratio_map(variant: RatioVariant, p: ParamSet, label: str, s: float = 1.0) -> CurveMap:
    """z Phi[shifted;q,sz]/Phi[a,b;c;q,sz], shifted as the variant says."""
    shifted = ParamSet(*variant.shift(p.a, p.b, p.c, p.q), p.q)
    return CurveMap(label, _heine_side(shifted, s), _heine_side(p, s))


def map_shift_bc(p: ParamSet, normalized: bool = False) -> CurveMap:
    """z Phi[a,bq;cq;q,sz]/Phi[a,b;c;q,sz]; s = q for the normalised form.

    The normalised (s = q) form is the one whose image is guaranteed convex
    in the imaginary direction under the SHIFT_BC hypotheses; the plain
    form has its cut on [q, inf) and is offered for visual comparison.
    """
    if normalized:
        return _ratio_map(RatioVariant.SHIFT_BC, p, "shift_bc_qz", p.q)
    return _ratio_map(RatioVariant.SHIFT_BC, p, "shift_bc")


def map_shift_a(p: ParamSet) -> CurveMap:
    """z Phi[aq,b;c;q,z]/Phi[a,b;c;q,z]."""
    return _ratio_map(RatioVariant.SHIFT_A, p, "shift_a")


def map_shift_all(p: ParamSet) -> CurveMap:
    """z Phi[aq,bq;cq;q,z]/Phi[a,b;c;q,z]."""
    return _ratio_map(RatioVariant.SHIFT_ALL, p, "shift_all")


def map_zphi(p: ParamSet) -> CurveMap:
    """z Phi[a,b;c;q,z], the function whose q-close-to-convexity is tested."""
    return CurveMap("zphi", _heine_side(p), _one_side)


def map_gauss_ratio(a: float, b: float, c: float) -> CurveMap:
    """z F(a+1,b;c;z)/F(a,b;c;z), the classical analogue (and its a = -1
    degenerate case z F(0,b;c;z)/F(-1,b;c;z), whose image approaches the
    unit disk as c grows)."""
    return CurveMap("gauss_ratio",
                    _series_side(lambda N: gauss_coeffs(a + 1.0, b, c, N).coeffs),
                    _series_side(lambda N: gauss_coeffs(a, b, c, N).coeffs))


# ---------------------------------------------------------------------------
# coefficient-sequence criterion

class SequenceVerdict(enum.Enum):
    DECREASING_01 = "decreasing_01"
    INCREASING_12 = "increasing_12"
    NEITHER = "neither"


class KqRoute(enum.Enum):
    T1 = "t1"
    C_EQ_AB = "c_eq_ab"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class SequenceClass:
    verdict: SequenceVerdict
    B: np.ndarray
    limit_estimate: Optional[float]


@dataclass(frozen=True)
class KqConditionReport:
    route: KqRoute
    passed: bool
    details: dict


@dataclass(frozen=True)
class KqReport:
    max_ratio: float
    worst_z: complex
    passed: bool


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    sign_changes: int


@dataclass(frozen=True)
class KqGrid:
    """Polar sampling grid: radii clustered toward r_max, uniform angles."""

    n_radii: int = 64
    n_angles: int = 64
    r_max: float = 0.99

    def __post_init__(self):
        if self.n_radii < 1 or self.n_angles < 1:
            raise DomainError(f"n_radii and n_angles must be >= 1, got "
                              f"{self.n_radii} and {self.n_angles}")
        require_unit_interval(r_max=self.r_max)


def t1_threshold(a: float, b: float, q: float) -> float:
    """min{ab, ab + E/(2(1-q)), ab + E/(1-q) + F/(1-q)} with
    E = aq + bq - q - 2ab + ab/q and F = a + b - q - ab/q.

    Note the threshold is the minimum of the three expressions; the
    classical (q -> 1) analogue of this criterion uses a maximum.
    """
    require_finite(a=a, b=b)
    require_unit_interval(q=q)
    ab = a * b
    e = a * q + b * q - q - 2.0 * ab + ab / q
    f = a + b - q - ab / q
    return min(ab, ab + e / (2.0 * (1.0 - q)), ab + e / (1.0 - q) + f / (1.0 - q))


def kq_conditions_check(p: ParamSet) -> KqConditionReport:
    """Which sufficient route (if any) puts z Phi[a,b;c;q,.] in the
    q-close-to-convex class: c <= T1(a,b), or c = ab with three extra
    conditions involving a q-Gamma ratio."""
    a, b, c, q = p.a, p.b, p.c, p.q
    t1 = t1_threshold(a, b, q)
    details = {"T1": t1, "c<=T1": bool(c <= t1)}
    if c <= t1:
        return KqConditionReport(KqRoute.T1, True, details)
    if abs(c - a * b) <= 1e-14:
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise DomainError("c = ab route needs a, b, ab in (0,1) for log_q")
        # cross-multiplied form of ab >= (aq+bq-q)/(2-1/q): the quotient is
        # singular at q = 1/2 and sign-flipped below it
        cond1 = a * q + b * q - q <= a * b * (2.0 - 1.0 / q)
        cond2 = a * q + b * q + a + b - 2.0 * q <= 2.0 * a * b
        gamma_ratio = q_gamma(log_q(a * b, q), q) / (
            q_gamma(log_q(a, q), q) * q_gamma(log_q(b, q), q))
        cond3 = gamma_ratio <= 2.0
        details.update({
            "aq+bq-q<=ab(2-1/q)": bool(cond1),
            "aq+bq+a+b-2q<=2ab": bool(cond2),
            "gamma_q_ratio": gamma_ratio,
            "gamma_q_ratio<=2": bool(cond3),
        })
        if cond1 and cond2 and cond3:
            return KqConditionReport(KqRoute.C_EQ_AB, True, details)
    return KqConditionReport(KqRoute.NONE, False, details)


@lru_cache(maxsize=8)
def _bn_weights(q: float, N: int) -> np.ndarray:
    """1 - q^n for n = 1..N."""
    return _read_only(1.0 - q**np.arange(1, N + 1))


def bn_sequence(p: ParamSet, N: int) -> SequenceClass:
    """The sequence B_n = A_n (1-q^n)/(1-q) for f(z) = z Phi[a,b;c;q,z].

    A_1 = 1 and A_n for n >= 2 is the (n-1)-th series coefficient of Phi.
    Verdict DECREASING_01 when 1 >= B_2 >= ... >= B_N >= 0, INCREASING_12
    when 1 <= B_2 <= ... <= B_N <= 2 (both with 1e-13 slack since the
    chains are non-strict), else NEITHER.  B_1 = 1 exactly.
    """
    if N < MIN_BN_N:
        raise DomainError(f"N must be >= {MIN_BN_N}, got {N}")
    B = heine_coeffs(p, N - 1).coeffs * _bn_weights(p.q, N) / (1.0 - p.q)
    tail = B[1:]
    steps = tail[1:] - tail[:-1]
    if (steps <= _BN_SLACK).all() and tail[0] <= 1.0 + _BN_SLACK and tail[-1] >= -_BN_SLACK:
        verdict = SequenceVerdict.DECREASING_01
    elif (steps >= -_BN_SLACK).all() and tail[0] >= 1.0 - _BN_SLACK and tail[-1] <= 2.0 + _BN_SLACK:
        verdict = SequenceVerdict.INCREASING_12
    else:
        verdict = SequenceVerdict.NEITHER
    limit = float(B[-1]) if abs(B[-1] - B[-2]) < 1e-10 else None
    return SequenceClass(verdict, B, limit)


@lru_cache(maxsize=16)
def _kq_points(grid: KqGrid) -> tuple:
    """The grid's radii, points z, g(z) = z/(1-z) and |g(z)|; read-only."""
    radii = grid.r_max * np.sin(np.pi * (np.arange(grid.n_radii) + 1.0)
                                / (2.0 * grid.n_radii))
    angles = np.exp(2j * np.pi * np.arange(grid.n_angles) / grid.n_angles)
    zs = radii[:, None] * angles[None, :]
    g = zs / (1.0 - zs)
    return tuple(map(_read_only, (radii, zs, g, np.abs(g))))


@lru_cache(maxsize=8)
def _kq_rings(grid: KqGrid, q: float) -> tuple:
    """The grid's radii and q times them as one row of rings, and q z at
    the grid's points; read-only.  A grid sweep meets one per q."""
    radii, zs = _kq_points(grid)[:2]
    return _read_only(np.concatenate([radii, q * radii])[None]), _read_only(q * zs)


def kq_membership_test(p: ParamSet, grid: KqGrid = KqGrid()) -> KqReport:
    """Sampled q-close-to-convexity ratio for f(z) = z Phi[a,b;c;q,z].

    Maximises |g(z) + f(qz) - f(z)| / |g(z)| over the polar grid with
    g(z) = z/(1-z); passes when the maximum is at most 1 + 1e-10.  The
    point z = 0 is excluded (there the criterion degenerates to the
    normalisation f'(0) = 1).
    """
    _, zs, g, g_abs = _kq_points(grid)
    rings, qzs = _kq_rings(grid, p.q)
    phi = _fold_and_transform([heine_pole_split(p)], rings, grid.n_angles)[0]
    # |g + f(qz) - f(z)| / |g|, formed in phi's rows
    fz, fqz = phi[:grid.n_radii], phi[grid.n_radii:]
    np.multiply(zs, fz, out=fz)
    np.multiply(qzs, fqz, out=fqz)
    np.add(g, fqz, out=fqz)
    fqz -= fz
    ratio = abs(fqz)
    ratio /= g_abs
    k = int(ratio.argmax())
    worst = complex(zs.flat[k])
    max_ratio = float(ratio.flat[k])
    return KqReport(max_ratio, worst, max_ratio <= 1.0 + _KQ_SLACK)


# ---------------------------------------------------------------------------
# boundary curves

@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Ordered samples w_k = F(r e^{2 pi i k/M}) of a circle image."""

    r: float
    samples: np.ndarray

    @property
    def M(self) -> int:
        return len(self.samples)


def boundary_curve(curve_map: CurveMap, r: float, M: int) -> BoundaryCurve:
    """Sample the image of |z| = r at M uniformly spaced angles."""
    require_unit_interval(r=r)
    if M < MIN_CURVE_SAMPLES:
        raise DomainError(f"M must be >= {MIN_CURVE_SAMPLES}, got {M}")
    return BoundaryCurve(r, curve_map.sample_circle(r, M))


def _cyclic_sign_changes(values: np.ndarray, floor: float) -> int:
    s = np.sign(values[np.abs(values) >= floor])
    if s.size == 0:
        raise DegenerateCurve("all differences below tolerance")
    return int(np.count_nonzero(s[1:] != s[:-1])) + int(s[0] != s[-1])


def vertical_convexity_check(curve: BoundaryCurve, tol: float = 1e-9) -> ConvexityReport:
    """Convexity in the direction of the imaginary axis, read off the boundary.

    Counts cyclic sign changes of the differences of Re w_k, merging
    differences below tol * curve diameter.  A Jordan curve bounds a
    vertically convex domain exactly when Re w has one maximum and one
    minimum, i.e. exactly 2 sign changes.
    """
    x, y = curve.samples.real, curve.samples.imag
    diam = float(np.hypot(x.max() - x.min(), y.max() - y.min()))
    if diam == 0.0:
        raise DegenerateCurve("curve has zero diameter")
    d = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=d[:-1])
    d[-1] = x[0] - x[-1]
    changes = _cyclic_sign_changes(d, tol * diam)
    return ConvexityReport(changes == 2, changes)
