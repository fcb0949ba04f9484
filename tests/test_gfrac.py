import math

import numpy as np
import pytest

from conftest import sample_disk, sample_hypothesis_passing
from qheine.errors import CutError, DegenerateParameter, DomainError, NoConvergence
from qheine.gfrac import (
    GFraction,
    RatioVariant,
    gfraction_coeffs,
    gfraction_eval,
    gfraction_series,
    hypothesis_check,
    ratio_eval,
    ratio_moments,
    raw_cfrac_coeffs,
    totally_monotone_check,
)
from qheine.qcore import ParamSet, heine_phi

BC, A, ALL = RatioVariant.SHIFT_BC, RatioVariant.SHIFT_A, RatioVariant.SHIFT_ALL


def series_ratio(num_p, den_p, z, scale=1.0):
    """Independent oracle: ratio of two direct series at argument scale*z."""
    w = scale * z
    return heine_phi(num_p, w, 1e-14).value / heine_phi(den_p, w, 1e-14).value


class TestHypothesisCheck:
    def test_bc_reference_pass(self, p_bc):
        rep = hypothesis_check(BC, p_bc)
        assert rep.passed and rep.violations == ()
        # q(b-c) = 0.08 <= 0.52 and a-c = 0.3 in (0, 0.4]
        assert p_bc.q * (p_bc.b - p_bc.c) == pytest.approx(0.08)

    def test_bc_boundary_a_equals_c(self):
        rep = hypothesis_check(BC, ParamSet(0.6, 0.7, 0.6, 0.8))
        assert not rep.passed
        assert rep.violations == ("a-c>0",)

    def test_a_reference_pass(self, p_a):
        rep = hypothesis_check(A, p_a)
        assert rep.passed
        assert hypothesis_check(ALL, p_a).passed

    def test_a_violations_by_name(self):
        rep = hypothesis_check(A, ParamSet(0.5, 0.5, 0.98, 0.9))
        assert "1-b<=1-c" in rep.violations
        assert "1-aq<=1-cq" in rep.violations


class TestRawCfracCoeffs:
    def test_d1_closed_form(self, p_bc):
        a, b, c, q = p_bc.a, p_bc.b, p_bc.c, p_bc.q
        d = raw_cfrac_coeffs(BC, p_bc, 4)
        assert d[0] == pytest.approx((1 - a) * (c - b) / ((1 - c) * (1 - c * q)),
                                     rel=1e-14)
        assert d[0] == pytest.approx(-0.048076923076923, rel=1e-12)

    def test_d2_closed_form(self, p_bc):
        a, b, c, q = p_bc.a, p_bc.b, p_bc.c, p_bc.q
        d = raw_cfrac_coeffs(BC, p_bc, 4)
        want = (1 - b * q) * (c * q - a) / ((1 - c * q) * (1 - c * q**2))
        assert d[1] == pytest.approx(want, rel=1e-14)

    def test_shift_a_c1(self, p_a):
        a, b, c, q = p_a.a, p_a.b, p_a.c, p_a.q
        cs = raw_cfrac_coeffs(A, p_a, 4)
        want = (1 - a * q) * (b - c) / ((1 - c) * (1 - c * q))
        assert cs[0] == pytest.approx(want, rel=1e-13)

    def test_shift_all_shares_shift_a(self, p_a):
        np.testing.assert_array_equal(raw_cfrac_coeffs(ALL, p_a, 10),
                                      raw_cfrac_coeffs(A, p_a, 10))

    def test_sign_flip_and_q_rescale(self, p_bc):
        # the 1/(1+ d_k z ...) form flips sign to b_k = -d_k, and the
        # qz-normalised fraction carries a_k = q b_k; the stored partial
        # numerators realise a_k = (1-g_k) g_(k+1)
        d = raw_cfrac_coeffs(BC, p_bc, 11)
        gf = gfraction_coeffs(BC, p_bc, 12)
        np.testing.assert_allclose(gf.partial_numerators[:10],
                                   -p_bc.q * d[:10], rtol=1e-13)


class TestGFractionCoeffs:
    def test_bc_g1_g2(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 12)
        assert gf.g[0] == 0.0
        assert gf.g[1] == pytest.approx(0.75, rel=1e-14)
        assert gf.g[2] == pytest.approx(0.08 / 0.52, rel=1e-14)
        assert gf.argument_scale == 1.0

    def test_bc_z_form_scale(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 12, argument="z")
        assert gf.argument_scale == pytest.approx(1.0 / p_bc.q)
        np.testing.assert_array_equal(
            gf.partial_numerators,
            gfraction_coeffs(BC, p_bc, 12).partial_numerators)

    def test_a_g0(self, p_a):
        gf = gfraction_coeffs(A, p_a, 12)
        assert gf.g[0] == pytest.approx(0.01, rel=1e-12)
        assert gf.partial_numerators[0] == pytest.approx(
            p_a.a * (1 - p_a.b) / (1 - p_a.c), rel=1e-13)

    def test_g_in_unit_interval_under_hypotheses(self):
        rng = np.random.default_rng(42)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 25, variant):
                g = gfraction_coeffs(variant, p, 200).g
                assert g.min() >= -1e-14
                assert g.max() <= 1.0 + 1e-14

    def test_partial_numerators_in_unit_interval(self):
        rng = np.random.default_rng(43)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 10, variant):
                pn = gfraction_coeffs(variant, p, 100).partial_numerators
                assert pn.min() >= -1e-14
                assert pn.max() <= 1.0 + 1e-14


class TestGFractionEval:
    def test_all_zero_coefficients(self, p_a):
        gf = GFraction(A, p_a, np.zeros(6), np.zeros(5), 1.0)
        assert gfraction_eval(gf, 0.5 + 0.2j).value == 1.0

    def test_at_zero(self, p_a):
        gf = gfraction_coeffs(A, p_a, 64)
        assert gfraction_eval(gf, 0.0).value == 1.0

    def test_shift_a_against_series_ratio(self, p_a):
        gf = gfraction_coeffs(A, p_a, 512)
        got = gfraction_eval(gf, 0.5).value
        want = series_ratio(p_a.shifted(a=p_a.a * p_a.q), p_a, 0.5)
        assert abs(got - want) < 1e-10

    def test_bc_qz_form_against_series_ratio(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 512)
        for z in (0.4, -0.7, 0.5 + 0.5j):
            got = gfraction_eval(gf, z).value
            want = series_ratio(p_bc.shifted(b=p_bc.b * p_bc.q, c=p_bc.c * p_bc.q),
                                p_bc, z, scale=p_bc.q)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_cut_error(self, p_bc):
        gf_qz = gfraction_coeffs(BC, p_bc, 64)
        with pytest.raises(CutError):
            gfraction_eval(gf_qz, 1.2)
        gf_z = gfraction_coeffs(BC, p_bc, 64, argument="z")
        with pytest.raises(CutError):
            gfraction_eval(gf_z, p_bc.q + 0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
    def test_non_finite_z_rejected(self, p_a, bad):
        with pytest.raises(DomainError, match="finite"):
            gfraction_eval(gfraction_coeffs(A, p_a, 64), bad)
        for variant in (BC, A, ALL):
            with pytest.raises(DomainError, match="finite"):
                ratio_eval(variant, p_a, bad)

    def test_depth_exhaustion(self, p_a):
        # far too few stored coefficients for a point near the cut
        gf = gfraction_coeffs(A, p_a, 4)
        with pytest.raises(NoConvergence):
            gfraction_eval(gf, 0.99, tol=1e-15)


class TestRatioEval:
    def test_zero_for_all_variants(self, p_bc, p_a):
        assert ratio_eval(BC, p_bc, 0.0) == 0.0
        assert ratio_eval(A, p_a, 0.0) == 0.0
        assert ratio_eval(ALL, p_a, 0.0) == 0.0

    def test_shift_all_identity_route(self, p_t1):
        # the identity route must reproduce the direct series ratio
        z = 0.3
        got = ratio_eval(ALL, p_t1, z)
        shifted = p_t1.shifted(a=p_t1.a * p_t1.q, b=p_t1.b * p_t1.q,
                               c=p_t1.c * p_t1.q)
        want = z * series_ratio(shifted, p_t1, z)
        assert abs(got - want) < 1e-12

    def test_shift_all_tends_to_z(self, p_t1):
        z = 1e-8
        assert abs(ratio_eval(ALL, p_t1, z) / z - 1.0) < 1e-6

    def test_series_fraction_overlap(self, p_bc, p_a):
        # the fraction route (|z| >= 0.9) agrees with a pure series oracle
        for theta in (0.7, 2.0, 3.1, 4.5):
            z = 0.92 * np.exp(1j * theta)
            got = ratio_eval(BC, p_bc, z)
            want = z * series_ratio(p_bc.shifted(b=p_bc.b * p_bc.q, c=p_bc.c * p_bc.q),
                                    p_bc, z)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
            got = ratio_eval(A, p_a, z)
            want = z * series_ratio(p_a.shifted(a=p_a.a * p_a.q), p_a, z)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameter):
            ratio_eval(ALL, ParamSet(0.0, 0.5, 0.2, 0.5), 0.3)
        with pytest.raises(DegenerateParameter):
            ratio_eval(ALL, ParamSet(0.5, 1.0, 0.2, 0.5), 0.3)


class TestRatioMoments:
    def test_m0_is_one(self, p_bc, p_a):
        for variant, p in ((BC, p_bc), (A, p_a), (ALL, p_a)):
            assert ratio_moments(variant, p, 12).m[0] == 1.0

    def test_shift_a_m1(self, p_a):
        ms = ratio_moments(A, p_a, 6)
        assert ms.m[1] == pytest.approx(0.099, rel=1e-12)
        assert ms.m[1] == pytest.approx(p_a.a * (1 - p_a.b) / (1 - p_a.c), rel=1e-12)

    def test_shift_bc_m1(self, p_bc):
        ms = ratio_moments(BC, p_bc, 6)
        gf = gfraction_coeffs(BC, p_bc, 8)
        assert ms.m[1] == pytest.approx((1 - gf.g[1]) * gf.g[2], rel=1e-12)
        assert ms.m[1] == pytest.approx(0.0384615384615385, rel=1e-10)

    def test_against_brute_division(self, p_bc):
        # independent long division of the two coefficient lists
        N = 12
        q = p_bc.q
        from test_qcore import brute_pochhammer

        def coeff(p, n):
            return (brute_pochhammer(p.a, q, n) * brute_pochhammer(p.b, q, n)
                    / (brute_pochhammer(p.c, q, n) * brute_pochhammer(q, q, n)))

        num_p = p_bc.shifted(b=p_bc.b * q, c=p_bc.c * q)
        num = np.array([coeff(num_p, n) * q**n for n in range(N + 1)])
        den = np.array([coeff(p_bc, n) * q**n for n in range(N + 1)])
        want = np.zeros(N + 1)
        for n in range(N + 1):
            want[n] = num[n] - np.dot(den[1 : n + 1], want[n - 1 :: -1][:n])
        np.testing.assert_allclose(ratio_moments(BC, p_bc, N).m, want,
                                   rtol=1e-11, atol=1e-14)

    def test_order_cap(self, p_bc):
        with pytest.raises(DomainError):
            ratio_moments(BC, p_bc, 41)

    def test_substituting_a_by_aq(self, p_bc):
        # the same moment construction at a -> aq gives the coefficients of
        # Phi[aq,bq;cq;q,qz]/Phi[aq,b;c;q,qz]
        q = p_bc.q
        p_shift = p_bc.shifted(a=p_bc.a * q)
        ms = ratio_moments(BC, p_shift, 30)
        z = 0.35
        want = series_ratio(
            p_bc.shifted(a=p_bc.a * q, b=p_bc.b * q, c=p_bc.c * q),
            p_shift, z, scale=q)
        got = sum(m * z**k for k, m in enumerate(ms.m))
        assert abs(got - want) < 1e-12
        assert totally_monotone_check(ms.m[:16]).passed


class TestGFractionSeries:
    def test_matches_moments_shift_a(self, p_a):
        gf = gfraction_coeffs(A, p_a, 64)
        np.testing.assert_allclose(gfraction_series(gf, 9),
                                   ratio_moments(A, p_a, 9).m, atol=1e-12)

    def test_matches_moments_shift_bc(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 64)
        np.testing.assert_allclose(gfraction_series(gf, 9),
                                   ratio_moments(BC, p_bc, 9).m, atol=1e-12)

    def test_z_form_rescales(self, p_bc):
        gf_z = gfraction_coeffs(BC, p_bc, 64, argument="z")
        got = gfraction_series(gf_z, 8)
        want = ratio_moments(BC, p_bc, 8).m / p_bc.q ** np.arange(9)
        np.testing.assert_allclose(got, want, rtol=1e-11)


def brute_totally_monotone(m, tol):
    """Independent oracle with the explicit binomial-sum differences."""
    N = len(m) - 1
    for j in range(N + 1):
        for k in range(N + 1 - j):
            delta = sum((-1) ** i * math.comb(j, i) * m[k + j - i] for i in range(j + 1))
            if (-1) ** j * delta < -tol:
                return False, (j, k)
    return True, None


class TestTotallyMonotone:
    def test_point_mass(self):
        m = 0.6 ** np.arange(13)
        assert totally_monotone_check(m).passed

    def test_uniform_measure(self):
        m = 1.0 / (np.arange(14) + 1.0)
        rep = totally_monotone_check(m)
        ok, _ = brute_totally_monotone(m, 1e-9)
        assert rep.passed and ok

    def test_violation_position(self):
        rep = totally_monotone_check(np.array([1.0, 0.2, 0.5]))
        assert not rep.passed
        assert rep.first_violation == (1, 1)
        ok, pos = brute_totally_monotone([1.0, 0.2, 0.5], 1e-9)
        assert not ok and pos == (1, 1)

    @pytest.mark.parametrize("variant", [BC, A])
    def test_matches_brute_oracle_on_moments(self, variant, p_bc, p_a):
        p = p_bc if variant is BC else p_a
        m = ratio_moments(variant, p, 12).m
        rep = totally_monotone_check(m, 1e-9)
        ok, _ = brute_totally_monotone(m, 1e-9)
        assert rep.passed == ok

    def test_hypothesis_passing_sets_are_hausdorff(self):
        rng = np.random.default_rng(7)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 15, variant, q_max=0.9):
                ms = ratio_moments(variant, p, 15)
                assert totally_monotone_check(ms, 1e-9).passed

    def test_shift_all_scaled_by_a(self, p_a):
        m = ratio_moments(ALL, p_a, 12).m * p_a.a
        assert totally_monotone_check(m, 1e-9).passed

    def test_accepts_moment_sequence_type(self, p_a):
        assert totally_monotone_check(ratio_moments(A, p_a, 10)).passed


class TestOracleEquivalenceProperty:
    def test_random_fraction_vs_series(self):
        # module-level form of the fraction-vs-series invariant
        rng = np.random.default_rng(11)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 8, variant, q_max=0.9):
                gf = gfraction_coeffs(variant, p, 512)
                scale = p.q if variant is BC else 1.0
                num = (p.shifted(b=p.b * p.q, c=p.c * p.q) if variant is BC
                       else p.shifted(a=p.a * p.q))
                for z in sample_disk(rng, 5, 0.8):
                    if abs(z.imag) < 1e-3 and z.real > 0.5:
                        continue
                    got = gfraction_eval(gf, z).value
                    want = series_ratio(num, p, z, scale=scale)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
