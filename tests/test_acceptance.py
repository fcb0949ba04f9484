"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py`; the whole file finishes in a
few minutes on one core.  Every tolerance is fixed here, not configurable.
"""
import pathlib

import mpmath
import numpy as np
import pytest

from conftest import sample_disk, sample_hypothesis_passing
from qheine.cli import main as cli_main
from qheine.geomtest import (
    KqGrid,
    KqRoute,
    SequenceVerdict,
    bn_sequence,
    boundary_curve,
    full_convexity_check,
    kq_conditions_check,
    kq_membership_test,
    map_shift_a,
    map_shift_all,
    map_shift_bc,
    t1_threshold,
    vertical_convexity_check,
)
from qheine.gfrac import (
    RatioVariant,
    gfraction_coeffs,
    gfraction_eval,
    hypothesis_check,
    ratio_moments,
    totally_monotone_check,
)
from qheine.qcore import (
    ParamSet,
    gauss_f,
    heine_phi,
    log_q,
    q_gamma,
    q_pochhammer,
    verify_identities,
)
from qheine.scanner import GridSpec, Range, records_to_csv, scan, soundness_violations

BC, A, ALL = RatioVariant.SHIFT_BC, RatioVariant.SHIFT_A, RatioVariant.SHIFT_ALL
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIG_BC = ParamSet(0.9, 0.7, 0.6, 0.8)
FIG_A = ParamSet(0.99, 0.998, 0.98, 0.9)

# c = ab parameter sets on the q-Gamma route, as (alpha, beta, q) with
# a = q^alpha, b = q^beta; margins asserted inside criterion 7
C_EQ_AB_SETS = [(1.1, 1.1, 0.9), (1.2, 1.05, 0.8), (1.0, 1.3, 0.85)]


def _report(num, ok, desc):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_identity_suite():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(200):
        a, b, c = rng.uniform(0.0, 0.95, 3)
        q = rng.uniform(0.1, 0.95)
        p = ParamSet(float(a), float(b), float(c), float(q))
        for z in sample_disk(rng, 5, 0.8):
            worst = max(worst, max(verify_identities(p, z).values()))
    _report(1, worst < 1e-11,
            f"200 sets x 5 z: max identity residual {worst:.3e} < 1e-11")


def _series_ratio_oracle(num_p, den_p, w):
    """Direct series ratio; escalates to mpmath when cancellation bites."""
    num = heine_phi(num_p, w, 1e-14).value
    den = heine_phi(den_p, w, 1e-14).value
    cond = max(heine_phi(num_p, abs(w), 1e-14).value.real / max(abs(num), 1e-300),
               heine_phi(den_p, abs(w), 1e-14).value.real / max(abs(den), 1e-300))
    if cond < 1e3:
        return num / den
    with mpmath.workdps(30):
        num = mpmath.qhyper([num_p.a, num_p.b], [num_p.c], num_p.q, w)
        den = mpmath.qhyper([den_p.a, den_p.b], [den_p.c], den_p.q, w)
        return complex(num / den)


def test_criterion_02_fraction_vs_series_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for variant in (BC, A, ALL):
        for p in sample_hypothesis_passing(rng, 50, variant):
            gf = gfraction_coeffs(A if variant is ALL else variant, p, 512)
            scale = p.q if variant is BC else 1.0
            num_p = (ParamSet(p.a, p.b * p.q, p.c * p.q, p.q) if variant is BC
                     else ParamSet(p.a * p.q, p.b, p.c, p.q))
            count = 0
            while count < 20:
                z = complex(sample_disk(rng, 1, 0.8)[0])
                if abs(z.imag) < 1e-3 and z.real > 0.0:
                    continue  # stay off the cut
                count += 1
                got = gfraction_eval(gf, z).value
                want = _series_ratio_oracle(num_p, p, scale * z)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(2, worst < 1e-9,
            f"50 sets/variant x 20 z: max fraction-vs-series error {worst:.3e} < 1e-9")


def _sweep_passing_sets():
    values = np.linspace(0.02, 0.93, 10)
    qs = np.linspace(0.1, 0.9, 10)
    passing = {BC: [], A: []}
    for a in values:
        for b in values:
            for c in values:
                for q in qs:
                    p = ParamSet(float(a), float(b), float(c), float(q))
                    for variant in (BC, A):
                        if hypothesis_check(variant, p).passed:
                            passing[variant].append(p)
    return passing


@pytest.fixture(scope="module")
def sweep_passing():
    return _sweep_passing_sets()


def test_criterion_03_g_bound_suite(sweep_passing):
    worst_lo, worst_hi, count = 0.0, 1.0, 0
    for variant, sets in sweep_passing.items():
        for p in sets:
            g = gfraction_coeffs(variant, p, 200).g
            worst_lo = min(worst_lo, float(g.min()))
            worst_hi = max(worst_hi, float(g.max()))
            count += 1
    ok = worst_lo >= -1e-14 and worst_hi <= 1.0 + 1e-14
    _report(3, ok, f"{count} hypothesis-passing sweep sets: "
                   f"g range [{worst_lo:.3e}, {worst_hi:.17g}] within [0,1]")


def test_criterion_04_hausdorff_property(sweep_passing):
    checked = 0
    for variant, sets in sweep_passing.items():
        for p in sets:
            ms = ratio_moments(variant, p, 15)
            assert totally_monotone_check(ms, 1e-9).passed, (variant, p)
            checked += 1
            if variant is A:
                scaled = ratio_moments(ALL, p, 15).m * p.a
                assert totally_monotone_check(scaled, 1e-9).passed, (ALL, p)
                checked += 1
    _report(4, True, f"{checked} moment sequences (incl. a-scaled SHIFT_ALL) "
                     f"all totally monotone at N=15, tol 1e-9")


def test_criterion_05_vertical_convexity():
    ok = True
    for cmap in (map_shift_bc(FIG_BC, normalized=True), map_shift_a(FIG_A),
                 map_shift_all(FIG_A)):
        for r in (0.9, 0.99, 0.999):
            ok &= vertical_convexity_check(boundary_curve(cmap, r, 4096)).passed
    plain = boundary_curve(map_shift_bc(FIG_BC), 0.998, 4096)
    not_convex = not full_convexity_check(plain).passed
    _report(5, ok and not_convex,
            "theorem-normalised maps vertically convex at r in {0.9,0.99,0.999}; "
            "plain-z curve at r=0.998 not fully convex")


def test_criterion_06_close_to_convexity_chain():
    p0 = ParamSet(0.5, 0.5, 0.2, 0.5)
    assert t1_threshold(0.5, 0.5, 0.5) == pytest.approx(0.25, abs=0)
    assert bn_sequence(p0, 100).verdict is SequenceVerdict.DECREASING_01
    rep = kq_membership_test(p0, KqGrid(64, 64, 0.99))
    assert rep.passed and rep.max_ratio <= 1.0 + 1e-10

    rng = np.random.default_rng(99)
    collected = [ParamSet(q**al, q**be, q**al * q**be, q)
                 for al, be, q in C_EQ_AB_SETS]
    while len(collected) < 500:
        a, b = rng.uniform(0.05, 0.95, 2)
        q = rng.uniform(0.1, 0.9)
        c = float(a * b) if rng.uniform() < 0.3 else float(rng.uniform(0.0, a * b))
        p = ParamSet(float(a), float(b), c, float(q))
        if kq_conditions_check(p).passed:
            collected.append(p)
    failures = 0
    for p in collected:
        route = kq_conditions_check(p).route
        verdict = bn_sequence(p, 100).verdict
        want = (SequenceVerdict.DECREASING_01 if route is KqRoute.T1
                else SequenceVerdict.INCREASING_12)
        if verdict is not want:
            failures += 1
        if not kq_membership_test(p, KqGrid(64, 64, 0.99)).passed:
            failures += 1
    _report(6, failures == 0,
            f"500 route-passing sets: B_n chain + membership sampling, "
            f"{failures} counterexamples (0 allowed)")


def test_criterion_07_q_gamma_limits():
    worst = 0.0
    for alpha, beta, q in C_EQ_AB_SETS:
        a, b = q**alpha, q**beta
        p = ParamSet(a, b, a * b, q)
        rep = kq_conditions_check(p)
        assert rep.route is KqRoute.C_EQ_AB, (alpha, beta, q)
        sc = bn_sequence(p, 400)
        want = q_gamma(log_q(a * b, q), q) / (
            q_gamma(log_q(a, q), q) * q_gamma(log_q(b, q), q))
        worst = max(worst, abs(sc.B[-1] - want))
    a, b, c, q = 1.2, 0.8, 2.5, 0.5
    n = 400
    ratio = (q_pochhammer(q**a, q, n) * q_pochhammer(q**b, q, n)
             / (q_pochhammer(q**c, q, n) * q_pochhammer(q, q, n)))
    limit = (1 - q) ** (c - a - b + 1) * q_gamma(c, q) / (q_gamma(a, q) * q_gamma(b, q))
    lem2_err = abs(ratio - limit)
    ok = worst < 1e-6 and lem2_err < 1e-8
    _report(7, ok, f"B_400 vs q-Gamma ratio: max err {worst:.3e} < 1e-6; "
                   f"coefficient-ratio limit err {lem2_err:.3e} < 1e-8")


def test_criterion_08_q_to_one_degeneration():
    pts = [r * np.exp(2j * np.pi * k / 3) for r in (0.1, 0.3, 0.5) for k in range(3)]
    ok = True
    for z in pts:
        errs = []
        for q in (0.9, 0.99, 0.999):
            p = ParamSet(q**1.0, q**2.0, q**3.0, q)
            errs.append(abs(heine_phi(p, z, 1e-13).value
                            - gauss_f(1.0, 2.0, 3.0, z, 1e-13).value))
        ok &= errs[0] > errs[1] > errs[2]
    _report(8, ok, "|Phi - F| decreases across q in {0.9, 0.99, 0.999} "
                   "at all 9 grid points")


def _load_curve_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows


def test_criterion_09_figure_regressions(tmp_path, capsys):
    import json

    worst = 0.0
    devs = {}
    for number in (1, 2, 3, 4, 5):
        out = tmp_path / f"figure{number}.csv"
        rc = cli_main(["figure", str(number), "--format", "csv", "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        got = _load_curve_csv(out)
        want = _load_curve_csv(GOLDEN_DIR / f"figure{number}.csv")
        worst = max(worst, float(np.abs(got - want).max()))
        if number == 5:
            devs[50] = payload["max_unit_deviation"]
    out500 = tmp_path / "figure5_c500.csv"
    rc = cli_main(["figure", "5", "--c", "500", "--format", "csv",
                   "--out", str(out500)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    devs[500] = payload["max_unit_deviation"]
    ok = worst < 1e-10 and devs[500] < devs[50]
    _report(9, ok, f"figures 1..5 match goldens (max coord diff {worst:.3e} "
                   f"< 1e-10); unit deviation {devs[500]:.4f} @c=500 "
                   f"< {devs[50]:.4f} @c=50")


def test_criterion_10_scanner_soundness():
    grid = GridSpec(a=Range(0.05, 0.93, 12), b=Range(0.05, 0.93, 12),
                    c=Range(0.05, 0.93, 12), q=Range(0.1, 0.9, 12))
    records = scan(grid, threads=1)
    csv1 = records_to_csv(records)
    csv2 = records_to_csv(scan(grid, threads=2))
    violations = soundness_violations(records)
    ok = not violations and csv1 == csv2
    _report(10, ok, f"12^4 sweep: {len(records)} records, "
                    f"{len(violations)} soundness violations (0 allowed), "
                    f"byte-identical at 1 and 2 workers: {csv1 == csv2}")
