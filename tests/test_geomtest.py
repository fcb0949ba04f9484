import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import full_convexity_check, identity_map, sample_hypothesis_passing, sample_params
from qheine import geomtest, qcore
from qheine.errors import DegenerateCurve, DomainError, NoConvergence, QHeineError
from qheine.gfrac import RatioVariant, hypothesis_check
from qheine.geomtest import (
    BoundaryCurve,
    CurveMap,
    KqGrid,
    KqRoute,
    SequenceVerdict,
    bn_sequence,
    boundary_curve,
    kq_conditions_check,
    kq_membership_test,
    map_gauss_ratio,
    map_shift_a,
    map_shift_all,
    map_shift_bc,
    map_zphi,
    sample_circles,
    t1_threshold,
    vertical_convexity_check,
)
from qheine.qcore import ParamSet, gauss_f, heine_phi, log_q, q_gamma

# parameter sets with c = ab on the q-Gamma route, written as
# (a, b) = (q^alpha, q^beta); all margins checked in the route test
C_EQ_AB_SETS = [(1.1, 1.1, 0.9), (1.2, 1.05, 0.8), (1.0, 1.3, 0.85)]


def c_eq_ab_params(alpha, beta, q):
    a, b = q**alpha, q**beta
    return ParamSet(a, b, a * b, q)


class TestT1Threshold:
    def test_symmetric_half_point(self):
        # E and F both vanish at a = b = q = 0.5
        assert t1_threshold(0.5, 0.5, 0.5) == pytest.approx(0.25, abs=0)

    def test_a_zero_nonpositive(self):
        for b, q in [(0.3, 0.5), (0.9, 0.2), (0.5, 0.8)]:
            assert t1_threshold(0.0, b, q) <= 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0.0, 0.99, 2)
            q = rng.uniform(0.05, 0.95)
            assert t1_threshold(a, b, q) == t1_threshold(b, a, q)


class TestKqConditionsCheck:
    def test_t1_route(self, p_t1):
        rep = kq_conditions_check(p_t1)
        assert rep.route is KqRoute.T1 and rep.passed
        assert rep.details["T1"] == pytest.approx(0.25)

    def test_no_route(self):
        rep = kq_conditions_check(ParamSet(0.5, 0.5, 0.3, 0.5))
        assert rep.route is KqRoute.NONE and not rep.passed

    def test_c_eq_ab_route_passes(self):
        for alpha, beta, q in C_EQ_AB_SETS:
            rep = kq_conditions_check(c_eq_ab_params(alpha, beta, q))
            assert rep.route is KqRoute.C_EQ_AB and rep.passed
            assert rep.details["gamma_q_ratio"] <= 2.0

    def test_c_eq_ab_flags_reported_per_term(self):
        # c = ab but the Gamma-ratio condition fails for small a, b
        a = b = 0.15
        rep = kq_conditions_check(ParamSet(a, b, a * b, 0.5))
        assert rep.route is KqRoute.NONE and not rep.passed
        assert "gamma_q_ratio<=2" in rep.details
        assert rep.details["gamma_q_ratio"] > 2.0

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            kq_conditions_check(ParamSet(0.0, 0.4, 0.0, 0.5))


class TestBnSequence:
    def test_b1_is_one_exactly(self):
        rng = np.random.default_rng(5)
        for p in sample_params(rng, 10):
            assert bn_sequence(p, 10).B[0] == 1.0

    def test_decreasing_route(self, p_t1):
        sc = bn_sequence(p_t1, 50)
        assert sc.verdict is SequenceVerdict.DECREASING_01
        assert sc.B[1] == pytest.approx(0.9375, rel=1e-14)

    def test_increasing_route_and_gamma_limit(self):
        for alpha, beta, q in C_EQ_AB_SETS:
            p = c_eq_ab_params(alpha, beta, q)
            sc = bn_sequence(p, 400)
            assert sc.verdict is SequenceVerdict.INCREASING_12
            want = q_gamma(log_q(p.a * p.b, q), q) / (
                q_gamma(log_q(p.a, q), q) * q_gamma(log_q(p.b, q), q))
            assert sc.limit_estimate is not None
            assert abs(sc.limit_estimate - want) < 1e-6

    def test_neither(self):
        assert bn_sequence(ParamSet(0.1, 0.1, 0.9, 0.5), 50).verdict \
            is SequenceVerdict.NEITHER

    def test_short_chain_rejected(self, p_t1):
        with pytest.raises(DomainError):
            bn_sequence(p_t1, 1)


class TestKqMembership:
    def test_identity_function_analytic_bound(self):
        # b = 1 kills every coefficient after the first, so f(z) = z and the
        # ratio collapses to |q + (1-q) z|, which is at most 1 on the disk
        p = ParamSet(0.3, 1.0, 0.2, 0.6)
        rep = kq_membership_test(p, KqGrid(24, 24, 0.99))
        assert rep.passed
        want = abs(p.q + (1 - p.q) * rep.worst_z)
        assert rep.max_ratio == pytest.approx(want, abs=1e-12)

    def test_t1_parameters_pass(self, p_t1):
        rep = kq_membership_test(p_t1, KqGrid(100, 100, 0.99))
        assert rep.passed
        assert rep.max_ratio <= 1.0 + 1e-10

    def test_neither_parameters_fail(self):
        rep = kq_membership_test(ParamSet(0.1, 0.1, 0.9, 0.5), KqGrid(64, 64, 0.99))
        assert not rep.passed
        assert rep.max_ratio > 1.0
        assert abs(rep.worst_z) > 0.9  # extremes live near the boundary

    def test_grid_excludes_origin(self, p_t1):
        rep = kq_membership_test(p_t1, KqGrid(4, 4, 0.5))
        assert abs(rep.worst_z) > 0.0


class TestBoundaryCurve:
    def test_identity_circle(self):
        curve = boundary_curve(identity_map(), 0.5, 256)
        assert curve.M == 256
        np.testing.assert_allclose(np.abs(curve.samples), 0.5, atol=1e-14)
        first = curve.samples[0]
        assert first == pytest.approx(0.5 + 0.0j, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            boundary_curve(identity_map(), 1.0, 256)
        with pytest.raises(DomainError):
            boundary_curve(identity_map(), 0.5, 100)
        for r in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                boundary_curve(identity_map(), r, 256)

    def test_adaptive_side_cap_raises(self, monkeypatch):
        # the Gauss numerator of figure 1 needs far more than 512 terms at r = 0.999
        monkeypatch.setattr(geomtest, "_MAX_COEFFS", 512)
        with pytest.raises(NoConvergence):
            boundary_curve(map_gauss_ratio(0.0, 0.0199, 0.1), 0.999, 256)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficients_raise_without_numpy_warnings(self):
        # 0.5 * 0.5 / 1e-310 overflows the first Gauss coefficient
        with pytest.raises(NoConvergence, match="coefficient 1 is inf"):
            boundary_curve(map_gauss_ratio(0.5, 0.5, 1e-310), 0.5, 256)

    @pytest.mark.parametrize("abcq", [(1.5, 0.3, 0.2, 0.5), (0.3, 0.4, 1.7, 0.5),
                                      (4.0, 0.6, 0.3, 0.5), (2.0, 0.5, 0.2, 0.5)])
    def test_signed_and_terminating_maps_pointwise(self, abcq):
        p = ParamSet(*abcq)
        curve = boundary_curve(map_shift_a(p), 0.9, 256)
        for k in (0, 40, 128, 201):
            z = 0.9 * np.exp(2j * np.pi * k / 256)
            want = z * (heine_phi(ParamSet(p.a * p.q, p.b, p.c, p.q), z, 1e-14).value
                        / heine_phi(p, z, 1e-14).value)
            assert abs(curve.samples[k] - want) < 1e-11 * max(1.0, abs(want))

    def test_sampling_matches_pointwise(self, p_bc):
        cmap = map_shift_bc(p_bc)
        curve = boundary_curve(cmap, 0.9, 256)
        for k in (0, 17, 101, 200):
            z = 0.9 * np.exp(2j * np.pi * k / 256)
            want = z * (heine_phi(ParamSet(p_bc.a, p_bc.b * p_bc.q, p_bc.c * p_bc.q, p_bc.q),
                                  z, 1e-14).value
                        / heine_phi(p_bc, z, 1e-14).value)
            assert abs(curve.samples[k] - want) < 1e-11

    def test_gauss_map_pointwise(self):
        cmap = map_gauss_ratio(0.0, 0.0199, 0.1)
        curve = boundary_curve(cmap, 0.9, 256)
        z = 0.9 * np.exp(2j * np.pi * 33 / 256)
        want = z * (gauss_f(1.0, 0.0199, 0.1, z, 1e-14).value
                    / gauss_f(0.0, 0.0199, 0.1, z, 1e-14).value)
        assert abs(curve.samples[33] - want) < 1e-11


class TestVerticalConvexity:
    def test_circle(self):
        curve = boundary_curve(identity_map(), 0.5, 512)
        rep = vertical_convexity_check(curve)
        assert rep.passed and rep.sign_changes == 2

    def test_two_humps_fail(self):
        th = 2.0 * np.pi * np.arange(512) / 512
        curve = BoundaryCurve(0.9, np.cos(2 * th) + 1j * np.sin(th))
        rep = vertical_convexity_check(curve)
        assert not rep.passed and rep.sign_changes == 4

    def test_normalized_map_guaranteed(self, p_bc):
        cmap = map_shift_bc(p_bc, normalized=True)
        rep = vertical_convexity_check(boundary_curve(cmap, 0.999, 4096))
        assert rep.passed

    def test_invariance_under_imaginary_shift_and_translation(self, p_bc):
        curve = boundary_curve(map_shift_bc(p_bc, normalized=True), 0.99, 1024)
        base = vertical_convexity_check(curve)
        for shift in (5.0j, -2.3j, 1.7 - 0.4j, 100.0 + 100.0j):
            moved = BoundaryCurve(curve.r, curve.samples + shift)
            rep = vertical_convexity_check(moved)
            assert rep.sign_changes == base.sign_changes
            assert rep.passed == base.passed

    def test_degenerate(self):
        flat = BoundaryCurve(0.5, np.full(300, 1.0 + 1.0j))
        with pytest.raises(DegenerateCurve):
            vertical_convexity_check(flat)


class TestFullConvexity:
    def test_circle(self):
        rep = full_convexity_check(boundary_curve(identity_map(), 0.5, 512))
        assert rep.passed and rep.sign_changes == 0

    def test_ellipse(self):
        th = 2.0 * np.pi * np.arange(512) / 512
        curve = BoundaryCurve(0.9, 3.0 * np.cos(th) + 1j * np.sin(th))
        assert full_convexity_check(curve).passed

    def test_plain_form_not_convex(self, p_bc):
        # the plain-z curve at r = 0.998 bounds a visibly non-convex image
        curve = boundary_curve(map_shift_bc(p_bc), 0.998, 4096)
        assert not full_convexity_check(curve).passed


class TestBnImpliesKq:
    def test_chain(self):
        # whenever the B_n chain classifies, membership sampling must pass
        rng = np.random.default_rng(17)
        tested = 0
        for p in sample_params(rng, 120, q_max=0.9):
            if bn_sequence(p, 100).verdict is SequenceVerdict.NEITHER:
                continue
            rep = kq_membership_test(p, KqGrid(64, 64, 0.99))
            assert rep.passed, (p, rep.max_ratio)
            tested += 1
        assert tested >= 10


class TestTheoremMapsVerticallyConvex:
    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_all_variant_maps(self, r, p_bc, p_a):
        for cmap in (map_shift_bc(p_bc, normalized=True), map_shift_a(p_a),
                     map_shift_all(p_a)):
            assert vertical_convexity_check(boundary_curve(cmap, r, 4096)).passed

    def test_zphi_map_samples(self, p_t1):
        curve = boundary_curve(map_zphi(p_t1), 0.9, 256)
        z = 0.9
        want = z * heine_phi(p_t1, z, 1e-14).value
        assert abs(curve.samples[0] - want) < 1e-12


def mp_split(a, b, c, q, dps=30):
    """(L, [A_n - L]) of Phi[a,b;c;q,.] in mpmath, L from its infinite products."""
    with mpmath.workdps(dps + 10):
        a, b, c, q = (mpmath.mpf(x) for x in (a, b, c, q))
        L = mpmath.qp(a, q) * mpmath.qp(b, q) / (mpmath.qp(c, q) * mpmath.qp(q, q))
        D, A, qk = [], mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(int((dps + 10) * math.log(10) / -math.log(q)) + 10):
            D.append(A - L)
            A *= (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk))
            qk *= q
        return L, D


def mp_eval(split, z):
    """Value of a split at z, and its rounding scale |L/(1-z)| + sum |D_n z^n|."""
    L, D = split
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        value = mpmath.polyval(D[::-1], z) + L / (1 - z)
        scale = abs(L / (1 - z)) + mpmath.polyval([abs(d) for d in D[::-1]], abs(z))
        return complex(value), float(scale)


def test_mp_split_matches_qhyper():
    split = mp_split(0.9, 0.7, 0.6, 0.8)
    for z in (-0.99, 0.99j):
        want = mpmath.qhyper([0.9, 0.7], [0.6], 0.8, z, maxterms=10**4)
        assert abs(mp_eval(split, z)[0] - complex(want)) < 1e-25 * abs(want)


@st.composite
def passing_curves(draw):
    c = draw(st.floats(0.0, 0.9))
    a, b = draw(st.floats(c, 0.95)), draw(st.floats(c, 0.95))
    p = ParamSet(a, b, c, draw(st.floats(0.1, 0.9)))
    label = draw(st.sampled_from(["shift_bc_qz", "shift_a", "shift_all"]))
    variant = RatioVariant.SHIFT_BC if label == "shift_bc_qz" else RatioVariant.SHIFT_A
    assume(hypothesis_check(variant, p).passed)
    return label, p, draw(st.sampled_from([0.99, 0.999]))


@given(passing_curves())
@settings(max_examples=25, deadline=None)
def test_split_samples_match_mpmath(case):
    """Samples at z = r, ir, -r, -ir within 1e-12 of the diameter, plus the
    rounding the split cannot avoid where |L| dwarfs |Phi| (near z = -r for
    q near 0.9 and small a, b, c)."""
    label, p, r = case
    a, b, c, q = p.a, p.b, p.c, p.q
    cmap, num, s = {"shift_bc_qz": (map_shift_bc(p, normalized=True), (a, b * q, c * q), q),
                    "shift_a": (map_shift_a(p), (a * q, b, c), 1.0),
                    "shift_all": (map_shift_all(p), (a * q, b * q, c * q), 1.0)}[label]
    w = boundary_curve(cmap, r, 256).samples
    diam = float(np.hypot(np.ptp(w.real), np.ptp(w.imag)))
    num_split, den_split = mp_split(*num, q), mp_split(a, b, c, q)
    for k in (0, 64, 128, 192):
        z = r * np.exp(2j * np.pi * k / 256)
        (vn, sn), (vd, sd) = mp_eval(num_split, s * z), mp_eval(den_split, s * z)
        want = z * vn / vd
        rounding = 16 * np.finfo(float).eps * (sn / abs(vn) + sd / abs(vd)) * abs(want)
        assert abs(w[k] - want) <= 1e-12 * diam + rounding, (k, abs(w[k] - want) / diam)


def test_split_term_count_ignores_radius():
    rng = np.random.default_rng(23)
    for variant, make in ((RatioVariant.SHIFT_BC, lambda p: map_shift_bc(p, normalized=True)),
                          (RatioVariant.SHIFT_A, map_shift_a)):
        for p in sample_hypothesis_passing(rng, 10, variant, q_max=0.9):
            for side in (make(p).num, make(p).den):
                assert len(side(0.999)[2]) == len(side(0.5)[2]) <= 400
        assert len(make(ParamSet(0.9, 0.95, 0.9, 0.9)).den(0.999)[2]) <= 400


def _each_alone(maps, r, M):
    """Each map sampled on its own: its samples, or the type of its error."""
    out = []
    for cmap in maps:
        try:
            out.append(boundary_curve(cmap, r, M).samples)
        except QHeineError as exc:
            out.append(type(exc))
    return out


@given(st.floats(-0.9, 0.95), st.floats(-0.9, 0.95), st.floats(-0.9, 0.95),
       st.floats(0.05, 0.95), st.sampled_from([256, 1024, 4096]),
       st.sampled_from([0.5, 0.99, 0.999]))
@settings(max_examples=40, deadline=None)
def test_sample_circles_match_each_map_alone(a, b, c, q, M, r):
    """One batched pass gives every map its own samples bit for bit: the
    denominator shift_a and shift_all share (also zphi's numerator) is
    evaluated once, and gauss_ratio folds more than M coefficients at r
    near 1.  A map that fails alone fails in the batch at its turn."""
    p = ParamSet(a, b, c, q)
    maps = [map_shift_bc(p, normalized=True), map_shift_a(p), map_shift_all(p),
            map_zphi(p), map_gauss_ratio(a, b, c), map_shift_bc(p)]
    alone = _each_alone(maps, r, M)
    batch = sample_circles(maps, r, M)
    for want in alone:
        if isinstance(want, type):
            with pytest.raises(want):
                next(batch)
            break
        assert next(batch).tobytes() == want.tobytes()
    good = [(cmap, want) for cmap, want in zip(maps, alone) if not isinstance(want, type)]
    got = list(sample_circles([cmap for cmap, _ in good], r, M))
    assert [w.tobytes() for w in got] == [want.tobytes() for _, want in good]


def test_shared_sides_evaluated_once(monkeypatch, p_a):
    counts = []
    fold = geomtest._fold_and_transform

    def counting(parts, rho, M):
        counts.append(len(parts))
        return fold(parts, rho, M)

    monkeypatch.setattr(geomtest, "_fold_and_transform", counting)
    maps = [map_shift_a(p_a), map_shift_all(p_a), map_zphi(p_a)]
    assert len(list(sample_circles(maps, 0.99, 1024))) == 3
    # the two shifted numerators, zphi's constant denominator, and one
    # Phi[a,b;c;q,z] for both denominators and zphi's numerator
    assert counts == [4]


def test_sample_circles_defers_a_later_error():
    def failing(r):
        raise NoConvergence("side failed")

    maps = [identity_map(), CurveMap("failing", failing, failing), identity_map()]
    batch = sample_circles(maps, 0.5, 256)
    assert next(batch).tobytes() == boundary_curve(identity_map(), 0.5, 256).samples.tobytes()
    with pytest.raises(NoConvergence, match="side failed"):
        next(batch)


def _clear_tables():
    for cache in (geomtest._ring_powers, geomtest._fold_powers, geomtest._pole_denominators,
                  geomtest._turns, geomtest._circle, geomtest._kq_points, geomtest._kq_rings,
                  geomtest._bn_weights, qcore.heine_pole_split):
        cache.cache_clear()
    qcore.FACTOR_ROWS.clear()


def test_ring_tables_cold_and_warm_give_the_same_bytes(p_a, p_bc):
    """The cached ring tables, kq tables, B_n weights and factor rows change
    no bit: curves at two sample counts, kq reports at two angle counts,
    each with several fold lengths, and B_n chains read the same bytes with
    every cache cleared and warm."""
    sets = [p_bc, p_a, ParamSet(1.5, 0.3, 0.2, 0.5), ParamSet(0.05, 0.05, 0.77, 0.9)]

    def pieces():
        for p in sets:
            maps = [map_shift_bc(p, normalized=True), map_shift_a(p), map_shift_all(p),
                    map_zphi(p)]
            for M in (256, 1024):
                yield lambda: [w.tobytes() for w in sample_circles(maps, 0.99, M)]
            for n_angles in (16, 32):
                yield lambda: repr(kq_membership_test(p, KqGrid(16, n_angles, 0.99)))
            yield lambda: bn_sequence(p, 100).B.tobytes()

    cold = []
    for piece in pieces():
        _clear_tables()
        cold.append(piece())
    assert [piece() for piece in pieces()] == cold


def ring_kq_report(p, grid):
    """kq_membership_test as it was written: Phi on the 2 n_radii explicit
    rings radii and q radii, its pole part added out of place, and the
    ratio formed out of place."""
    radii, zs, g, g_abs = geomtest._kq_points(grid)
    rho = 1.0 * np.concatenate([radii, p.q * radii])
    L, m, C = qcore.heine_pole_split(p)
    M = grid.n_angles
    phi = geomtest._fold_and_transform([(0.0, m, C)], rho[None], M)[0]
    if L != 0.0:
        r = rho[:, None]
        phi += L * r**m * geomtest._turns(M, m) / (1.0 - r * geomtest._turns(M))
    fz = zs * phi[: grid.n_radii]
    fqz = p.q * zs * phi[grid.n_radii :]
    ratio = np.abs(g + fqz - fz) / g_abs
    k = int(np.argmax(ratio))
    return float(ratio.ravel()[k]), complex(zs.ravel()[k])


def test_kq_report_keeps_the_ring_bits():
    """The per-(grid, q) ring tables and the in-place ratio keep every bit
    of the ring expression, on 50 seeded sets (terminating, m > 0, factors
    above 1, negative parameters) over three grids."""
    rng = np.random.default_rng(21)
    sets = [(0.9, 0.7, 0.6, 0.8), (0.05, 0.05, 0.77, 0.9), (4.0, 0.6, 0.3, 0.5),
            (1.5, 0.3, 0.2, 0.5), (-0.5, -0.3, -0.2, 0.4)]
    sets += [(*rng.uniform(-0.9, 0.95, 3), rng.uniform(0.05, 0.95)) for _ in range(30)]
    sets += [(*rng.uniform(-3.0, 3.0, 3), rng.uniform(0.05, 0.95)) for _ in range(15)]
    grids = [KqGrid(), KqGrid(32, 32, 0.99), KqGrid(7, 12, 0.9)]
    compared = 0
    for abcq in sets:
        p = ParamSet(*abcq)
        for grid in grids:
            try:
                want = ring_kq_report(p, grid)
            except QHeineError as exc:
                with pytest.raises(type(exc)):
                    kq_membership_test(p, grid)
                continue
            rep = kq_membership_test(p, grid)
            assert (rep.max_ratio, rep.worst_z) == want, (abcq, grid)
            compared += 1
    assert compared >= 120
