"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload hands out rounds.  A round is a fixed list of operations:
seeded ones, drawn where the program must get every one right, and a few
fixed ones that reproduce the faults kept in the benchmark (KEPT_FAULTS).
Every round has the same composition, so the share of failed operations
is the same in every run whatever the seed and the run length.

qheine is reached only through its modules' attributes (qcore.heine_phi,
not a name bound here), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math

import numpy as np

import oracle

qcore = gfrac = geomtest = scanner = cli = QHeineError = None

# rounds whose first operation of each kind is also checked by the mpmath
# oracle; the double-precision oracle checks every operation
MP_ROUNDS = 4


def bind():
    """Import qheine's layers; run.py calls this once src/ is on sys.path."""
    global qcore, gfrac, geomtest, scanner, cli, QHeineError
    from qheine import cli, geomtest, gfrac, qcore, scanner  # noqa: F811
    from qheine.errors import QHeineError  # noqa: F811


def _hyp_family(variant):
    return "shift_bc" if variant in ("shift_bc", "shift_bc_qz") else "shift_a"


def draw_hypothesis_passing(rng, variant, q_max=0.9):
    """(a, b, c, q) with a, b, c in [0.02, 0.95], q in [0.1, q_max], passing
    the variant's hypotheses by more than the oracle's margin."""
    while True:
        a, b, c = (float(x) for x in rng.uniform(0.02, 0.95, 3))
        q = float(rng.uniform(0.1, q_max))
        if oracle.hypothesis_verdict(_hyp_family(variant), a, b, c, q):
            return a, b, c, q


# draws keep this far, in angle, from the positive real axis: there the
# series terms do not oscillate, heine_phi's tail estimate is tight and
# rounding tips it over (fault 1), and shift_bc's fraction has its cut
MIN_ANGLE = math.pi / 8


def _ring_point(rng, r_lo, r_hi):
    """|z| uniform in [r_lo, r_hi], at least MIN_ANGLE off the positive axis."""
    r = float(rng.uniform(r_lo, r_hi))
    th = float(rng.uniform(MIN_ANGLE, 2.0 * math.pi - MIN_ANGLE))
    return complex(r * math.cos(th), r * math.sin(th))


def _disk_point(rng, radius):
    """Uniform in the disk |z| <= radius, at least MIN_ANGLE off the positive axis."""
    return _ring_point(rng, 1.0, 1.0) * radius * math.sqrt(float(rng.uniform()))


# ---------------------------------------------------------------------------
# calls: single-point library calls

# heine_phi draws keep the oracle's condition number sum|terms|/|Phi| at or
# below this; above it the double sum loses its claimed accuracy (fault 1)
PHI_MAX_COND = 10.0
# ratio_moments at N = 40 is drawn for shift_bc with q <= 0.7, where the
# float64 difference table stays clear of its tolerance; shift_a and
# shift_all at N = 40 fail for most sets (fault 2)
N40_Q_MAX = 0.7
RATIO_TOL = 1e-9
IDENTITY_TOL = 1e-11
# moments are compared relative to themselves, down to an absolute floor
# far below anything visible next to m_0 = 1
MOMENT_TOL = 1e-12
MOMENT_FLOOR = 1e-30
MONOTONE_TOL = 1e-9

# verify_identities switches to mpmath when this cancellation scale is
# exceeded; such calls take 20-300 ms against 0.5 ms, so seeded draws stay
# below it and each round carries one fixed call above it (IDENTITY_HEAVY)
IDENTITY_SCALE_SPLIT = 100.0

# per round: (kind, count), about 165 ms in one process; identities take
# about a quarter of the time, moments (kept faults included) under half
CALLS_MIX = (
    ("phi_disk", 12),
    ("phi_ring", 12),
    ("ratio", 24),
    ("identities", 19),
    ("moments15", 12),
    ("moments40", 4),
)
# one identity call in twenty, as in uniform draws over the same domain
IDENTITY_HEAVY = ("identities", (0.2, 0.3, 0.93, 0.88), complex(0.4, 0.0))

KEPT_FAULTS = {
    # fault 1: heine_phi misses tol*|Phi| + est_error (rounding not counted)
    "phi_fault_neg": ("phi", (0.05, 0.05, 0.754, 0.9), complex(-0.99, 0.0)),
    "phi_fault_ring": ("phi", (0.1, 0.4, 0.95, 0.89),
                       complex(0.95 * math.cos(2.1), 0.95 * math.sin(2.1))),
    # fault 2: totally_monotone_check rejects hypothesis-passing sets at N=40
    "moments_fault_a": ("moments", ("shift_a", (0.99, 0.998, 0.98, 0.9), 40)),
    "moments_fault_all": ("moments", ("shift_all", (0.99, 0.998, 0.98, 0.9), 40)),
    # fault 3: a hypothesis-passing curve sampled badly near z = -r
    "curve_fault": ("curve", ("shift_bc_qz",
                              (0.08867350572254723, 0.20610139951521986,
                               0.020743843887045862, 0.9395579641604275),
                              0.999, 4096)),
}


def _phi_case(rng, ring):
    while True:
        a, b, c = (float(x) for x in rng.uniform(0.0, 0.95, 3))
        q = float(rng.uniform(0.1, 0.9))
        z = _ring_point(rng, 0.95, 0.999) if ring else _disk_point(rng, 0.8)
        ref = oracle.phi_double(a, b, c, q, z)
        if ref is not None and ref[2] <= PHI_MAX_COND * abs(ref[0]):
            return ("phi", (a, b, c, q), z)


def _ratio_case(rng, variant, fraction_side):
    """Kept where the double oracle's bound is under a tenth of the
    tolerance, which leaves out points very near a pole of the ratio."""
    while True:
        p = draw_hypothesis_passing(rng, variant)
        z = _ring_point(rng, 0.92, 0.99) if fraction_side else _ring_point(rng, 0.1, 0.88)
        w, bound = _ratio_ref(variant, p, z, False)
        if bound <= 0.1 * RATIO_TOL * max(1.0, abs(w)):
            return ("ratio", (variant, p, z))


def _identity_case(rng):
    while True:
        a, b, c = (float(x) for x in rng.uniform(0.0, 0.95, 3))
        q = float(rng.uniform(0.1, 0.9))
        z = _disk_point(rng, 0.8)
        if oracle.identity_scale(a, b, c, q, abs(z)) <= IDENTITY_SCALE_SPLIT:
            return ("identities", (a, b, c, q), z)


def _moments_case(rng, variant, N):
    q_max = N40_Q_MAX if N == 40 else 0.9
    return ("moments", (variant, draw_hypothesis_passing(rng, variant, q_max), N))


def calls_round(rng):
    ops = []
    for kind, count in CALLS_MIX:
        for i in range(count):
            if kind in ("phi_disk", "phi_ring"):
                ops.append(_phi_case(rng, kind == "phi_ring"))
            elif kind == "ratio":
                ops.append(_ratio_case(rng, ("shift_bc", "shift_a", "shift_all")[i % 3],
                                       i % 2 == 1))
            elif kind == "identities":
                ops.append(_identity_case(rng))
            elif kind == "moments15":
                ops.append(_moments_case(rng, ("shift_bc", "shift_a", "shift_all")[i % 3], 15))
            else:
                ops.append(_moments_case(rng, "shift_bc", 40))
    ops.append(IDENTITY_HEAVY)
    ops.extend(spec for spec in KEPT_FAULTS.values() if spec[0] != "curve")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def call_op(op):
    """Run one library call; returns a plain, comparable output."""
    kind = op[0]
    try:
        if kind == "phi":
            res = qcore.heine_phi(qcore.ParamSet(*op[1]), op[2])
            return ("ok", complex(res.value), float(res.est_error), int(res.terms_used))
        if kind == "ratio":
            variant, p, z = op[1]
            w = gfrac.ratio_eval(gfrac.RatioVariant(variant), qcore.ParamSet(*p), z)
            return ("ok", complex(w))
        if kind == "identities":
            res = qcore.verify_identities(qcore.ParamSet(*op[1]), op[2])
            return ("ok", tuple(float(v) for v in res.values()))
        variant, p, N = op[1]
        ms = gfrac.ratio_moments(gfrac.RatioVariant(variant), qcore.ParamSet(*p), N)
        # the paper's normalisation: a * m is the Hausdorff sequence for shift_all
        scaled = ms.m * p[0] if variant == "shift_all" else ms.m
        rep = gfrac.totally_monotone_check(scaled, MONOTONE_TOL)
        return ("ok", tuple(float(x) for x in ms.m), bool(rep.passed))
    except (QHeineError, ArithmeticError) as exc:
        return ("error", type(exc).__name__)


# the reference values are cached because the fixed inputs recur in every round

@functools.lru_cache(maxsize=1024)
def _phi_ref(a, b, c, q, z, use_mp):
    """(value, error bound) of Phi at z; mpmath when asked or when the
    double split does not apply."""
    if not use_mp:
        ref = oracle.phi_double(a, b, c, q, z)
        if ref is not None:
            return ref[:2]
    return complex(oracle.phi_mp(a, b, c, q, z)), 0.0


@functools.lru_cache(maxsize=16)
def _moments_ref(variant, p, N):
    return oracle.moments_mp(variant, *p, N)


def _ratio_ref(variant, p, z, use_mp):
    a, b, c, q = p
    if variant == "shift_bc":
        num, den = (a, b * q, c * q, q), p
    elif variant == "shift_a":
        num, den = (a * q, b, c, q), p
    else:
        # SHIFT_ALL by its definition z Phi[aq,bq;cq]/Phi[a,b;c]
        num, den = (a * q, b * q, c * q, q), p
    vn, en = _phi_ref(*num, z, use_mp)
    vd, ed = _phi_ref(*den, z, use_mp)
    w = z * vn / vd
    return w, abs(w) * (en / abs(vn) + ed / abs(vd))


def check_call(op, out, use_mp):
    """True when the output is right; every check is independent of qheine.

    Values are compared with the double oracle when its error bound settles
    the question, and with mpmath otherwise (or when use_mp is set)."""
    if out[0] != "ok":
        return False
    kind = op[0]
    if kind in ("phi", "ratio"):
        if kind == "phi":
            ref, bound = _phi_ref(*op[1], op[2], use_mp)
            # heine_phi's claim: within tol |Phi| + est_error
            limit = qcore.DEFAULT_TOL * abs(ref) + out[2]
        else:
            ref, bound = _ratio_ref(*op[1], use_mp)
            limit = RATIO_TOL * max(1.0, abs(ref))
        err = abs(out[1] - ref)
        if err + bound <= limit:
            return True
        return err - bound <= limit and not use_mp and check_call(op, out, True)
    if kind == "identities":
        return len(out[1]) == 4 and max(out[1]) < IDENTITY_TOL
    variant, p, N = op[1]
    m = np.array(out[1])
    ref = _moments_ref(variant, p, N)
    # a theorem: under the hypotheses the sequence is totally monotone
    return (len(m) == N + 1 and m[0] == 1.0 and out[2]
            and bool(np.all(np.abs(m - ref) <= MOMENT_TOL * np.abs(ref) + MOMENT_FLOOR)))


def call_kind(op):
    if op[0] == "moments":
        return f"moments_n{op[1][2]}"
    return op[0]


# ---------------------------------------------------------------------------
# curves: `qheine boundary` commands

CURVE_MAPS = ("shift_bc_qz", "shift_a", "shift_all")
CURVE_RADII = (0.99, 0.998, 0.999)
CURVE_SAMPLES = 4096
CURVE_SETS_PER_CELL = 2
# curves draw q <= 0.75: the sampling error near z = -r that breaks the
# kept curve (fault 3) grows about 2.5-fold per 0.01 of q and reaches the
# tolerance on some seeds from q = 0.85 at r = 0.999
CURVE_Q_MAX = 0.75
# the program decides vertical convexity at a resolution of 1e-9 * diameter,
# so every sample must be right to that level
CURVE_TOL = 1e-9
_MP_ANGLES = 4


def curves_round(rng):
    ops = []
    for _ in range(CURVE_SETS_PER_CELL):
        for m in CURVE_MAPS:
            for r in CURVE_RADII:
                ops.append(("curve", (m, draw_hypothesis_passing(rng, m, CURVE_Q_MAX), r,
                                      CURVE_SAMPLES)))
    ops.append(KEPT_FAULTS["curve_fault"])
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def curve_op(op, path):
    """One `qheine boundary` command in-process; returns (exit code, stdout)."""
    m, (a, b, c, q), r, M = op[1]
    argv = ["boundary", "--map", m, "-a", repr(a), "-b", repr(b), "-c", repr(c),
            "-q", repr(q), "-r", repr(r), "-M", str(M), "--format", "csv", "--out", path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def curve_reference(m, p, r, M):
    """w_k on |z| = r at M uniform angles, with a per-sample error bound."""
    a, b, c, q = p
    if m == "shift_bc_qz":
        num, den, rho = (a, b * q, c * q, q), p, q * r
    elif m == "shift_a":
        num, den, rho = (a * q, b, c, q), p, r
    else:
        num, den, rho = (a * q, b * q, c * q, q), p, r
    vn, en = oracle.phi_circle(*num, rho, M)
    vd, ed = oracle.phi_circle(*den, rho, M)
    z = r * np.exp(2j * np.pi * np.arange(M) / M)
    w = z * vn / vd
    return w, np.abs(w) * (en / np.abs(vn) + ed / np.abs(vd))


def _mp_curve_samples(m, p, r, M):
    a, b, c, q = p
    out = {}
    for k in range(0, M, M // _MP_ANGLES):
        th = 2.0 * math.pi * k / M
        z = complex(r * math.cos(th), r * math.sin(th))
        if m == "shift_bc_qz":
            num, den, s = (a, b * q, c * q, q), p, q
        elif m == "shift_a":
            num, den, s = (a * q, b, c, q), p, 1.0
        else:
            num, den, s = (a * q, b * q, c * q, q), p, 1.0
        out[k] = complex(z * oracle.phi_mp(*num, s * z) / oracle.phi_mp(*den, s * z))
    return out


def parse_curve_csv(text, M):
    """Samples from a curve CSV; None unless it has M rows at uniform angles."""
    lines = text.split("\n")
    if lines[0] != "theta,re_w,im_w" or len(lines) != M + 2 or lines[-1] != "":
        return None
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    theta = 2.0 * math.pi * np.arange(M) / M
    if rows.shape != (M, 3) or np.any(np.abs(rows[:, 0] - theta) > 8 * oracle.EPS * 2 * math.pi):
        return None
    return rows[:, 1] + 1j * rows[:, 2]


def vertical_sign_changes(w, tol=1e-9):
    """Cyclic sign changes of the differences of Re w, ignoring those below
    tol * diameter; a vertically convex image has exactly 2."""
    diam = math.hypot(float(np.ptp(w.real)), float(np.ptp(w.imag)))
    d = np.roll(w.real, -1) - w.real
    s = np.sign(d[np.abs(d) >= tol * diam])
    return int(np.sum(s != np.roll(s, 1)))


def check_curve(op, rc, text, use_mp):
    if rc != 0:
        return False
    m, p, r, M = op[1]
    w = parse_curve_csv(text, M)
    if w is None:
        return False
    ref, bound = curve_reference(m, p, r, M)
    diam = math.hypot(float(np.ptp(ref.real)), float(np.ptp(ref.imag)))
    if np.any(np.abs(w - ref) > CURVE_TOL * diam + bound):
        return False
    if use_mp:
        for k, want in _mp_curve_samples(m, p, r, M).items():
            if abs(w[k] - want) > CURVE_TOL * diam:
                return False
    # a theorem: under the hypotheses the image is vertically convex
    return vertical_sign_changes(w) == 2


# ---------------------------------------------------------------------------
# sweep: 6^4 grids through scanner.scan

# the demo config's ranges; each round's grid pulls both ends in by up to
# GRID_JITTER of the span.  a, b and c share one axis, as in the demo
# config, so the points on which a hypothesis holds with equality (b = c,
# a = c) stay the same and every grid costs about the same
ABC_RANGE = (0.05, 0.93)
Q_RANGE = (0.1, 0.9)
GRID_STEPS = 6
GRID_JITTER = 0.04
BN_N = 100


def sweep_round(rng):
    out = {}
    for names, (lo, hi) in (("abc", ABC_RANGE), ("q", Q_RANGE)):
        span = hi - lo
        lo2 = lo + float(rng.uniform(0.0, GRID_JITTER)) * span
        hi2 = hi - float(rng.uniform(0.0, GRID_JITTER)) * span
        out.update({name: (lo2, hi2) for name in names})
    return out


def make_grid(ranges):
    R = scanner.Range
    return scanner.GridSpec(a=R(*ranges["a"], GRID_STEPS), b=R(*ranges["b"], GRID_STEPS),
                            c=R(*ranges["c"], GRID_STEPS), q=R(*ranges["q"], GRID_STEPS),
                            bn_n=BN_N)


def _axis(lo, hi):
    return [lo + (hi - lo) * i / (GRID_STEPS - 1) for i in range(GRID_STEPS)]


def check_sweep_csv(ranges, text):
    """Per grid point: True when its record is right.  The verdicts are
    recomputed here; the empirical columns must agree with the theorems."""
    lines = text.split("\n")
    n = GRID_STEPS**4
    if lines[0] != scanner.CSV_HEADER or len(lines) != n + 2:
        return [False] * n
    axes = [_axis(*ranges[k]) for k in "abcq"]
    verdicts = []
    for i, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        idx = np.unravel_index(i, (GRID_STEPS,) * 4)
        point = [axes[k][idx[k]] for k in range(4)]
        verdicts.append(len(cells) == 11 and _check_record(point, cells))
    return verdicts


def _agrees(cell, verdict):
    return verdict is None or cell == ("true" if verdict else "false")


def _check_record(point, cells):
    vals = [float(x) for x in cells[:4]]
    if any(abs(v - w) > 4 * oracle.EPS * max(1.0, abs(w)) for v, w in zip(vals, point)):
        return False
    a, b, c, q = vals
    hyp1, hyp2, route, bn, vconvex, kq = cells[4:10]
    if not (_agrees(hyp1, oracle.hypothesis_verdict("shift_bc", a, b, c, q))
            and _agrees(hyp2, oracle.hypothesis_verdict("shift_a", a, b, c, q))):
        return False
    t1 = oracle.t1(a, b, q)
    if c < t1 - oracle.MARGIN:
        routes = {"t1"}
    elif c <= t1 + oracle.MARGIN:
        routes = {"t1", "none", "c_eq_ab"}
    elif abs(c - a * b) <= oracle.MARGIN:
        routes = {"c_eq_ab", "none"}
    else:
        routes = {"none"}
    if route not in routes or bn not in oracle.bn_verdicts(a, b, c, q, BN_N):
        return False
    # every empirical test ran, and soundness: a passing hypothesis
    # guarantees the empirical outcome
    if vconvex not in ("true", "false") or kq not in ("true", "false"):
        return False
    if hyp1 == "true" and vconvex == "false":
        return False
    return not (route != "none" and kq == "false")


def make_round(name, rng):
    return {"sweep": sweep_round, "curves": curves_round, "calls": calls_round}[name](rng)
