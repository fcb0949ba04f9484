"""Parameter-grid sweeps combining hypothesis checks with empirical tests.

Each grid point gets one ScanRecord: the sufficient-condition verdicts for
the two fraction hypotheses and the close-to-convexity routes, plus (when
enabled) empirical vertical-convexity and close-to-convexity sampling.
Sweeps never abort on per-point failures; those are recorded as notes.
The theorems are sufficient conditions, so hypothesis-false / empirical-
pass records are expected, while hypothesis-true / empirical-fail records
indicate an implementation bug (see soundness_violations).
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, DomainError, QHeineError
from .gfrac import RatioVariant, hypothesis_check
from .geomtest import (
    MIN_BN_N,
    MIN_CURVE_SAMPLES,
    KqGrid,
    bn_sequence,
    boundary_curve,
    kq_conditions_check,
    kq_membership_test,
    map_shift_a,
    map_shift_all,
    map_shift_bc,
    vertical_convexity_check,
)
from .qcore import ParamSet, require_finite, require_unit_interval

ENV_THREADS = "QHEINE_THREADS"


@dataclass(frozen=True)
class Range:
    """Inclusive parameter range sampled at `steps` evenly spaced values."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        require_finite(lo=self.lo, hi=self.hi)
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.hi < self.lo:
            raise DomainError(f"range [{self.lo}, {self.hi}] is empty")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class GridSpec:
    """Sweep configuration: ranges, test selection, and test resolutions."""

    a: Range
    b: Range
    c: Range
    q: Range
    run_bn: bool = True
    run_vconvex: bool = True
    run_kq: bool = True
    curve_r: float = 0.99
    curve_samples: int = 1024
    kq_radii: int = 32
    kq_angles: int = 32
    kq_rmax: float = 0.99
    bn_n: int = 100
    cap: int = 100_000

    def __post_init__(self):
        # the bounds the tests enforce per point, checked once for the sweep
        KqGrid(self.kq_radii, self.kq_angles, self.kq_rmax)
        require_unit_interval(curve_r=self.curve_r)
        if self.curve_samples < MIN_CURVE_SAMPLES:
            raise DomainError(f"curve_samples must be >= {MIN_CURVE_SAMPLES}, "
                              f"got {self.curve_samples}")
        if self.bn_n < MIN_BN_N:
            raise DomainError(f"bn_n must be >= {MIN_BN_N}, got {self.bn_n}")

    def total_points(self) -> int:
        return self.a.steps * self.b.steps * self.c.steps * self.q.steps


@dataclass(frozen=True)
class ScanRecord:
    """One grid point's verdicts; None means a test was skipped (see notes)."""

    a: float
    b: float
    c: float
    q: float
    hyp_thm1: bool
    hyp_thm2: bool
    kq_route: str
    bn_verdict: Optional[str]
    empirical_vconvex: Optional[bool]
    empirical_kq: Optional[bool]
    notes: Tuple[str, ...]


def _run_test(name: str, enabled: bool, notes: list, test):
    """test() if enabled; a disabled test or a QHeineError becomes a note and None."""
    if not enabled:
        notes.append(f"{name}:disabled")
        return None
    try:
        return test()
    except QHeineError as exc:
        notes.append(f"{name}:{type(exc).__name__}")
        return None


def scan_point(a: float, b: float, c: float, q: float, grid: GridSpec) -> ScanRecord:
    """Evaluate every enabled check at one parameter tuple."""
    notes = []
    try:
        p = ParamSet(a, b, c, q)
    except DomainError:
        return ScanRecord(a, b, c, q, False, False, "none", None, None, None,
                          ("invalid-params",))
    rep1 = hypothesis_check(RatioVariant.SHIFT_BC, p)
    rep2 = hypothesis_check(RatioVariant.SHIFT_A, p)
    hyp1, hyp2 = rep1.passed, rep2.passed
    if not hyp1:
        notes.append("thm1:" + "|".join(rep1.violations))
    if not hyp2:
        notes.append("thm2:" + "|".join(rep2.violations))
    try:
        kq_route = kq_conditions_check(p).route.value
    except QHeineError as exc:
        kq_route = "none"
        notes.append(f"kq-route:{type(exc).__name__}")

    def vconvex_test():
        maps = []
        if hyp1:
            maps.append(map_shift_bc(p, normalized=True))
        if hyp2:
            maps.append(map_shift_a(p))
            maps.append(map_shift_all(p))
        if not maps:
            maps.append(map_shift_bc(p, normalized=True))
            notes.append("vconvex:exploratory")
        return all(vertical_convexity_check(
            boundary_curve(m, grid.curve_r, grid.curve_samples)).passed for m in maps)

    bn_verdict = _run_test("bn", grid.run_bn, notes,
                           lambda: bn_sequence(p, grid.bn_n).verdict.value)
    vconvex = _run_test("vconvex", grid.run_vconvex, notes, vconvex_test)
    emp_kq = _run_test("kq", grid.run_kq, notes, lambda: kq_membership_test(
        p, KqGrid(grid.kq_radii, grid.kq_angles, grid.kq_rmax)).passed)
    return ScanRecord(a, b, c, q, hyp1, hyp2, kq_route, bn_verdict, vconvex,
                      emp_kq, tuple(notes))


def _scan_chunk(args) -> list:
    grid, start, stop = args
    va, vb, vc, vq = (grid.a.values(), grid.b.values(), grid.c.values(),
                      grid.q.values())
    dims = (len(va), len(vb), len(vc), len(vq))
    out = []
    for idx in range(start, stop):
        ia, ib, ic, iq = np.unravel_index(idx, dims)
        out.append(scan_point(float(va[ia]), float(vb[ib]), float(vc[ic]),
                              float(vq[iq]), grid))
    return out


def default_threads() -> int:
    env = os.environ.get(ENV_THREADS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"{ENV_THREADS} must be an integer, got {env!r}")
    return os.cpu_count() or 1


def scan(grid: GridSpec, threads: Optional[int] = None) -> list:
    """Run the sweep; one record per point in lexicographic (a,b,c,q) order.

    Points are independent, so the work is split across QHEINE_THREADS
    worker processes (default: all cores) and reassembled in index order;
    the record sequence is identical regardless of thread count.
    """
    total = grid.total_points()
    if total > grid.cap:
        raise CapExceeded(f"grid has {total} points, cap is {grid.cap}")
    threads = default_threads() if threads is None else max(1, threads)
    if threads == 1 or total < 64:
        return _scan_chunk((grid, 0, total))
    chunk = -(-total // (threads * 4))
    bounds = [(grid, s, min(s + chunk, total)) for s in range(0, total, chunk)]
    records = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(_scan_chunk, bounds):
            records.extend(part)
    return records


CSV_HEADER = ("a,b,c,q,hyp_thm1,hyp_thm2,kq_route,bn_verdict,"
              "empirical_vconvex,empirical_kq,notes")


def _cell(value) -> str:
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: Sequence[ScanRecord]) -> str:
    """Deterministic CSV: 17 significant digits, '\\n' endings."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            f"{r.a:.17g}", f"{r.b:.17g}", f"{r.c:.17g}", f"{r.q:.17g}",
            _cell(r.hyp_thm1), _cell(r.hyp_thm2), r.kq_route,
            _cell(r.bn_verdict), _cell(r.empirical_vconvex),
            _cell(r.empirical_kq), ";".join(r.notes),
        ]))
    return "\n".join(lines) + "\n"


def soundness_violations(records: Sequence[ScanRecord]) -> list:
    """Records where a passing hypothesis met an empirical failure.

    Either fraction hypothesis (theorem 1 or 2) guarantees every ratio map
    the scan tests at that point, and the kq route guarantees the kq
    test.  The theorems guarantee the empirical outcome, so any such
    record is a counterexample to the implementation, never to the grid.
    """
    bad = []
    for r in records:
        if (r.hyp_thm1 or r.hyp_thm2) and r.empirical_vconvex is False:
            bad.append(r)
        elif r.kq_route != "none" and r.empirical_kq is False:
            bad.append(r)
    return bad
