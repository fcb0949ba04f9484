import cmath
import decimal
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import sample_disk, sample_hypothesis_passing
from qheine import gfrac
from qheine.errors import (
    CutError,
    DenominatorZero,
    DomainError,
    InconsistentCoefficients,
    NoConvergence,
)
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


# 400 digits, not 60: where b - c or a is near 1e-300 the moments fall that
# far below the series coefficients, and a 60-digit division returns noise
MP_DPS = 400


def mp_moments(variant, p, N):
    """Independent oracle: m_0..m_N by series division at MP_DPS digits."""
    with mpmath.workdps(MP_DPS):
        a, b, c, q = (mpmath.mpf(x) for x in (p.a, p.b, p.c, p.q))
        if variant is BC:
            num_abc, scale = (a, b * q, c * q), q
        else:
            num_abc, scale = ((a * q, b, c) if variant is A else (a * q, b * q, c * q)), 1

        def coeffs(a, b, c):
            out, acc = [], mpmath.mpf(1)
            for n in range(N + 1):
                out.append(acc * scale**n)
                acc *= (1 - a * q**n) * (1 - b * q**n) / ((1 - c * q**n) * (1 - q ** (n + 1)))
            return out

        num, den = coeffs(*num_abc), coeffs(a, b, c)
        m = []
        for n in range(N + 1):
            m.append((num[n] - mpmath.fsum(den[k] * m[n - k] for k in range(1, n + 1)))
                     / den[0])
        return m


def mp_numerators(variant, p, K):
    """p_1..p_K from the g-sequence closed forms, at MP_DPS digits."""
    with mpmath.workdps(MP_DPS):
        a, b, c, q = (mpmath.mpf(x) for x in (p.a, p.b, p.c, p.q))

        def g(i):
            n = i // 2
            if variant is BC:
                if i % 2:
                    return q**n * (a - c * q**n) / (1 - c * q ** (2 * n))
                return q**n * (b - c * q ** (n - 1)) / (1 - c * q ** (2 * n - 1))
            if i == 0:
                return 1 - a
            if i % 2:
                return (1 - b * q**n) / (1 - c * q ** (2 * n))
            return (1 - a * q**n) / (1 - c * q ** (2 * n - 1))

        if variant is BC:
            return [(1 - g(k)) * g(k + 1) for k in range(1, K + 1)]
        return [(1 - g(k - 1)) * g(k) for k in range(1, K + 1)]


def mp_ratio(variant, p, z, dps=40):
    """Independent oracle: z Phi[num]/Phi[p], both series summed directly
    at dps digits.  A sum stops once q^k max(1, |a|, |b|, |c|) < 1e-3,
    past which its terms fall about like |z|^k, and a term is below 1e-20
    of the sum times 1 - |z|.  Digits the sums cancel come out of dps."""
    with mpmath.workdps(dps):
        a, b, c, q = (mpmath.mpf(x) for x in (p.a, p.b, p.c, p.q))
        w = mpmath.mpc(z)
        tol = mpmath.mpf(1e-20) * (1 - abs(w))
        big = max(1, abs(a), abs(b), abs(c))

        def phi(a, b, c):
            total, term, qk = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpf(1)
            while qk * big >= 1e-3 or abs(term) > tol * abs(total):
                total += term
                term *= (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk)) * w
                qk *= q
            return total

        num = {BC: (a, b * q, c * q), A: (a * q, b, c), ALL: (a * q, b * q, c * q)}[variant]
        return complex(w * phi(*num) / phi(a, b, c))


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

    def test_decided_on_cancelled_forms(self):
        # a < c and b < c, yet 1 - cq rounds to 1 = 1 - aq = 1 - b
        rep = hypothesis_check(A, ParamSet(0.0, 0.0, 2.0036500534418523e-260, 0.5))
        assert rep.violations == ("1-aq<=1-cq", "1-b<=1-c")
        # b < c, yet q (b - c) rounds to -0.0
        rep = hypothesis_check(BC, ParamSet(0.5, 0.0, 5e-324, 0.5))
        assert rep.violations == ("q(b-c)>=0",)
        # a > 1, yet a - c and 1 - c round to the same double
        rep = hypothesis_check(BC, ParamSet(1.5, 0.5, -1e20, 0.5))
        assert "a-c<=1-c" in rep.violations


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

    @pytest.mark.parametrize("variant", [BC, A, ALL])
    def test_tiny_q_warns_nothing(self, variant):
        # each closed form is evaluated only on its own entries: the unused
        # branch used to overflow q^-1 and 1/q at q = 5e-324
        p = ParamSet(0.9199670257249022, 0.7520618752243152, 0.0, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = ratio_moments(variant, p, 9).m
            raw_cfrac_coeffs(variant, ParamSet(p.a, p.b, 0.3, p.q), 9)
            gfraction_coeffs(variant, ParamSet(p.a, p.b, 0.3, p.q), 9)
        assert m[0] == 1.0 and np.all(np.isfinite(m))


class TestGFractionEval:
    def test_all_zero_coefficients(self):
        gf = GFraction(np.zeros(6), np.zeros(5))
        assert gfraction_eval(gf, 0.5 + 0.2j).value == 1.0

    def test_at_zero(self, p_a):
        gf = gfraction_coeffs(A, p_a, 64)
        assert gfraction_eval(gf, 0.0).value == 1.0

    def test_shift_a_against_series_ratio(self, p_a):
        gf = gfraction_coeffs(A, p_a, 512)
        got = gfraction_eval(gf, 0.5).value
        want = series_ratio(ParamSet(p_a.a * p_a.q, p_a.b, p_a.c, p_a.q), p_a, 0.5)
        assert abs(got - want) < 1e-10

    def test_bc_qz_form_against_series_ratio(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 512)
        for z in (0.4, -0.7, 0.5 + 0.5j):
            got = gfraction_eval(gf, z).value
            want = series_ratio(ParamSet(p_bc.a, p_bc.b * p_bc.q, p_bc.c * p_bc.q, p_bc.q),
                                p_bc, z, scale=p_bc.q)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_cut_error(self, p_bc):
        gf = gfraction_coeffs(BC, p_bc, 64)
        with pytest.raises(CutError):
            gfraction_eval(gf, 1.2)
        # z = q + 0.05 in the ratio's own variable is qz = (q + 0.05)/q
        with pytest.raises(CutError):
            gfraction_eval(gf, (p_bc.q + 0.05) / p_bc.q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
    def test_non_finite_z_rejected(self, p_a, bad):
        with pytest.raises(DomainError, match="finite"):
            gfraction_eval(gfraction_coeffs(A, p_a, 64), bad)
        for variant in (BC, A, ALL):
            with pytest.raises(DomainError, match="finite"):
                ratio_eval(variant, p_a, bad)

    def test_zero_denominator_raises(self):
        # 1 - 2 * 0.5 / 1 = 0 at the only level; this used to return ~1e300
        gf = GFraction(np.zeros(2), np.array([2.0]))
        with pytest.raises(DenominatorZero, match="depth 1"):
            gfraction_eval(gf, 0.5)

    def test_depth_exhaustion(self, p_a):
        # far too few stored coefficients for a point near the cut
        gf = gfraction_coeffs(A, p_a, 4)
        with pytest.raises(NoConvergence):
            gfraction_eval(gf, 0.99, tol=1e-15)


class TestRatioVariantShift:
    def test_floats_and_decimals_alike(self):
        a, b, c, q = 0.5, 0.4, 0.2, 0.6
        D = decimal.Decimal
        want = {BC: ((a, b * q, c * q), (D("0.5"), D("0.24"), D("0.12"))),
                A: ((a * q, b, c), (D("0.3"), D("0.4"), D("0.2"))),
                ALL: ((a * q, b * q, c * q), (D("0.3"), D("0.24"), D("0.12")))}
        for variant, (floats, decimals) in want.items():
            assert variant.shift(a, b, c, q) == floats
            assert variant.shift(D("0.5"), D("0.4"), D("0.2"), D("0.6")) == decimals


class TestRatioEval:
    def test_zero_for_all_variants(self, p_bc, p_a):
        assert ratio_eval(BC, p_bc, 0.0) == 0.0
        assert ratio_eval(A, p_a, 0.0) == 0.0
        assert ratio_eval(ALL, p_a, 0.0) == 0.0

    def test_shift_all_identity_route(self, p_t1):
        # the fraction agrees with the direct quotient of the two series
        z = 0.3
        got = ratio_eval(ALL, p_t1, z)
        shifted = ParamSet(p_t1.a * p_t1.q, p_t1.b * p_t1.q, p_t1.c * p_t1.q, p_t1.q)
        want = z * series_ratio(shifted, p_t1, z)
        assert abs(got - want) < 1e-12

    def test_shift_all_tends_to_z(self, p_t1):
        z = 1e-8
        assert abs(ratio_eval(ALL, p_t1, z) / z - 1.0) < 1e-6

    def test_series_fraction_overlap(self, p_bc, p_a):
        # the fraction agrees with a pure series oracle near the unit circle
        for theta in (0.7, 2.0, 3.1, 4.5):
            z = 0.92 * np.exp(1j * theta)
            got = ratio_eval(BC, p_bc, z)
            want = z * series_ratio(ParamSet(p_bc.a, p_bc.b * p_bc.q, p_bc.c * p_bc.q, p_bc.q),
                                    p_bc, z)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
            got = ratio_eval(A, p_a, z)
            want = z * series_ratio(ParamSet(p_a.a * p_a.q, p_a.b, p_a.c, p_a.q), p_a, z)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    @staticmethod
    def quotient(variant, p, z):
        """z Phi[num]/Phi[p] with num shifted as the variant's definition says."""
        a, b, c, q = p.a, p.b, p.c, p.q
        num = {BC: (a, b * q, c * q), A: (a * q, b, c), ALL: (a * q, b * q, c * q)}[variant]
        return z * series_ratio(ParamSet(*num, q), p, z)

    @pytest.mark.parametrize("z", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_shift_all_small_z_relative(self, z):
        # a route through (F_A - 1)/(a(1-b)) loses relative accuracy like eps/|z|
        p = ParamSet(0.5, 0.4, 0.2, 0.6)
        want = self.quotient(ALL, p, z)
        assert abs(ratio_eval(ALL, p, z) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("p", [ParamSet(0.0, 0.5, 0.2, 0.5), ParamSet(0.5, 1.0, 0.2, 0.5)],
                             ids=["a=0", "b=1"])
    @pytest.mark.parametrize("z", [0.3, 0.95j])
    def test_shift_all_at_a0_and_b1(self, p, z):
        # the ratio is defined there, and the fraction evaluates it
        want = self.quotient(ALL, p, z)
        assert abs(ratio_eval(ALL, p, z) - want) <= 1e-13 * abs(want)

    def test_shift_all_contiguous_identity(self, p_t1, p_bc):
        # z Phi[aq,bq;cq]/Phi[a,b;c] = (1-c)/(a(1-b)) (Phi[aq,b;c]/Phi[a,b;c] - 1), off the cut
        z = 1.5j
        for p in (p_t1, p_bc):
            got = ratio_eval(ALL, p, z)
            want = (1 - p.c) / (p.a * (1 - p.b)) * (ratio_eval(A, p, z) / z - 1.0)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("abcq", [(0.9, 0.7, 0.6, 0.8), (0.5, 0.4, 0.2, 0.6)])
    @pytest.mark.parametrize("z", [0.9, 0.95, 0.99, 0.999])
    def test_shift_bc_on_real_segment(self, abcq, z):
        # [q, 1) is the cut of the fraction in z/q, not of the ratio; the
        # reference takes both series through Heine's transformation
        # Phi[a,b;c;q,z] = (b,az;q)_inf/(c,z;q)_inf Phi[c/b,z;az;q,b], whose
        # sums converge like b^n, where the direct ones need 10^5 terms at 0.999
        with mpmath.workdps(40):
            a, b, c, q, w = (mpmath.mpf(x) for x in (*abcq, z))
            want = complex(w * (1 - c) / (1 - b)
                           * mpmath.qhyper([c / b, w], [a * w], q, b * q, maxterms=10**6)
                           / mpmath.qhyper([c / b, w], [a * w], q, b, maxterms=10**6))
        got = ratio_eval(BC, ParamSet(*abcq), z)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_limits_below_one_and_cut_beyond(self):
        a, b, c, q = 0.9, 0.7, 0.6, 0.8
        p = ParamSet(a, b, c, q)
        limits = {BC: (1 - c) / (1 - b), A: 1 / (1 - a), ALL: (1 - c) / ((1 - a) * (1 - b))}
        for variant, limit in limits.items():
            assert abs(ratio_eval(variant, p, 1 - 1e-13) - limit) < 1e-9
            with pytest.raises(CutError):
                ratio_eval(variant, p, 1.5)

    def test_shift_bc_and_a_are_their_fraction(self):
        # bit for bit z F at every |z|, the SHIFT_BC fraction taken in its
        # normalised variable at z/q
        rng = np.random.default_rng(10)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 6, variant, q_max=0.9):
                for z in np.concatenate([sample_disk(rng, 3, 0.85),
                                         0.95 * np.exp(1j * rng.uniform(0.5, 5.8, 3))]):
                    z = complex(z)
                    w = z * (1.0 / p.q) if variant is BC else z
                    want = z * gfraction_eval(gfraction_coeffs(variant, p, 512), w).value
                    assert ratio_eval(variant, p, z) == want

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.01, 0.3), b=st.floats(0.01, 0.3), c=st.floats(0.01, 0.3),
           q=st.floats(0.85, 0.95),
           z=st.floats(2.6, 3.6).map(lambda t: 0.89 * cmath.exp(1j * t)))
    @example(a=0.09494743134001371, b=0.0948661901894012, c=0.0948661901894012,
             q=0.9499058755479816, z=-0.8741446085071916 + 0.16724593692466438j)
    def test_shift_a_near_negative_axis(self, a, b, c, q, z):
        # the two series cancel to about 15 digits near z = -0.89 with q
        # near 1; their quotient gives -0.8053-0.1262j at the example,
        # whose imaginary part has the wrong sign
        p = ParamSet(a, b, c, q)
        assume(hypothesis_check(A, p).passed)
        want = mp_ratio(A, p, z)
        assert abs(ratio_eval(A, p, z) - want) <= 1e-12 * abs(want)

    def test_shift_all_mixed_signs(self):
        # the two series cancel to about 37 digits, and their quotient gives
        # -0.1145+0.1233j; the reference is 0.09703798681504207-0.20226802851110817j
        p = ParamSet(-0.5923414184753559, -0.5560701241690127, 0.6105139820029324,
                     0.9598384237460628)
        z = -0.7636249085663513 - 0.08056935452446358j
        want = mp_ratio(ALL, p, z, dps=80)
        assert abs(ratio_eval(ALL, p, z) - want) <= 1e-12 * abs(want)

    def test_inconsistent_numerators_take_the_quotient(self):
        p = ParamSet(46.46310222978224, -3.9389467078550666, 33.88213436989983,
                     0.8987350392181966)
        z = -0.44132849757499676 - 0.8159064935042752j
        with pytest.raises(InconsistentCoefficients):
            gfraction_coeffs(BC, p, 512)
        want = mp_ratio(BC, p, z)
        assert abs(ratio_eval(BC, p, z) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("variant, abcq, z", [
        (A, (-0.3198638651583203, -0.45695076038242943, 0.9040789814150445,
             0.9942225429916476), -0.8781619198014784 - 0.08592133221438351j),
        (ALL, (0.8256874072754101, -0.8816491684494718, 0.7832992372088634,
               0.9983344875455945), -0.5113144607465195 + 0.24267699848571433j),
    ], ids=["shift_a", "shift_all"])
    def test_unsettled_fraction_raises(self, variant, abcq, z):
        # with q this near 1 the fraction has not settled by depth 512, and
        # the series quotient is off by 95 % to 320 % of the value here, so
        # no value is returned
        with pytest.raises(NoConvergence):
            ratio_eval(variant, ParamSet(*abcq), z)

    @pytest.mark.parametrize("variant, abcq, z", [
        (A, (-0.395697739669302, 0.4323170947936408, 2.8665879186588104,
             0.9891719997536049), 0.48341143635246947 + 0.10558696755927977j),
        (BC, (70.1734194021574, -14.815427427229992, 77.87971303054692,
              0.8859059513823193), 0.19841475776684628 + 0.5478289690082345j),
        (ALL, (86.89648268005817, -35.414334564988565, 62.01497843896448,
               0.9602625281908199), 0.11908232346885853 - 0.22836689780125005j),
    ], ids=["shift_a", "shift_bc", "shift_all"])
    def test_c_above_one_inside_split_takes_the_quotient(self, variant, abcq, z):
        # with c > 1 the fraction settles here on a value off by 38 %, 23 %
        # and 7 %; the series quotient is within 3e-14
        p = ParamSet(*abcq)
        want = mp_ratio(variant, p, z)
        assert abs(ratio_eval(variant, p, z) - want) <= 1e-12 * abs(want)

    def test_c_above_one_outside_split_takes_the_fraction(self):
        # at |z| = 0.957 the series quotient is off by 170 %, the fraction
        # is within 3e-15
        p = ParamSet(-2.436345786719998, -3.4601312432833478, 2.9189526670580115,
                     0.9530097990120643)
        z = -0.891423900564246 + 0.3477066617599177j
        want = mp_ratio(BC, p, z, dps=80)
        assert abs(ratio_eval(BC, p, z) - want) <= 1e-12 * abs(want)


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

        num_p = ParamSet(p_bc.a, p_bc.b * q, p_bc.c * q, q)
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
        p_shift = ParamSet(p_bc.a * q, p_bc.b, p_bc.c, q)
        ms = ratio_moments(BC, p_shift, 30)
        z = 0.35
        want = series_ratio(
            ParamSet(p_bc.a * q, p_bc.b * q, p_bc.c * q, q),
            p_shift, z, scale=q)
        got = sum(m * z**k for k, m in enumerate(ms.m))
        assert abs(got - want) < 1e-12
        assert totally_monotone_check(ms.m[:16]).passed

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from([BC, A, ALL]), a=st.floats(0.0, 0.95),
           b=st.floats(0.0, 0.95), c=st.floats(0.0, 0.95),
           q=st.floats(0.0, 0.9, exclude_min=True), N=st.integers(0, 40))
    def test_within_documented_bound(self, variant, a, b, c, q, N):
        # ratio_moments' docstring: |m_n - exact| <= ((1+eps)^n (1+g) - 1) m_n,
        # g = k u/(1 - k u), k = 4n + 2, eps the numerators' own relative error
        p = ParamSet(a, b, c, q)
        fraction = BC if variant is BC else A
        assume(hypothesis_check(fraction, p).passed)
        m = ratio_moments(variant, p, N).m
        assert len(m) == N + 1 and m[0] == 1.0
        used = N + 1 if variant is ALL else N
        got_p = gfraction_coeffs(fraction, p, used + 2).partial_numerators[:used]
        if np.any(got_p < 0.0):
            # rounding pushed a numerator below 0: the decimal division
            # serves the set, and the bound is not claimed for it
            return
        eps = 0.0
        for got, want in zip(got_p, mp_numerators(fraction, p, used)):
            if got != want:
                eps = max(eps, float(abs(got - want) / abs(want)) if want else math.inf)
        u = 2.0**-53
        ref = mp_moments(variant, p, N)
        for n in range(N + 1):
            k = 4 * n + 2
            rel = math.expm1(n * math.log1p(eps)) if eps < math.inf else math.inf
            bound = rel + k * u / (1 - k * u) * (1 + rel)
            # the floor covers products that underflow: every numerator is at
            # most 1/4 here, so all the rounding below 2^-1022 stays far below it
            assert abs(m[n] - ref[n]) <= bound * abs(ref[n]) + 1e-300, (n, eps)

    def test_orders_zero_and_one(self, p_bc, p_a):
        for variant, p in ((BC, p_bc), (A, p_a), (ALL, p_a)):
            assert ratio_moments(variant, p, 0).m.tolist() == [1.0]
            m = ratio_moments(variant, p, 1).m
            assert m[0] == 1.0
            assert m[1] == pytest.approx(float(mp_moments(variant, p, 1)[1]), rel=1e-15)

    @pytest.mark.parametrize("variant,abcq", [
        (ALL, (0.0, 0.5, 0.0, 0.5)),          # p_1 = a(1-b)/(1-c) = 0
        (ALL, (1e-300, 0.5, 0.0, 0.5)),
        (A, (1e-200, 0.5, 0.0, 0.5)),         # 1 - g_0 = a, not 1 - (1 - a)
        (BC, (1 - 2.0**-40, 0.5, 0.25, 0.5)),  # 1 - g_1 = (1-a)/(1-c)
    ])
    def test_tiny_first_numerator(self, variant, abcq):
        p = ParamSet(*abcq)
        m = ratio_moments(variant, p, 20).m
        assert m[0] == 1.0
        np.testing.assert_allclose(m, [float(x) for x in mp_moments(variant, p, 20)],
                                   rtol=1e-13, atol=0.0)

    def test_equal_b_and_c_give_exact_zeros(self):
        # Phi[a,b;b;q,x] = (ax;q)_inf/(x;q)_inf, so the SHIFT_BC ratio is 1;
        # c q^{n-1} must be exactly c at n = 1 for p_1 to come out 0
        p = ParamSet(0.5, 1e-13, 1e-13, 0.6875)
        assert ratio_moments(BC, p, 20).m.tolist() == [1.0] + [0.0] * 20

    @pytest.mark.parametrize("variant,abcq", [
        (BC, (-0.5, 0.3, 0.3, 0.7)),        # p_2 = q(a - cq)/(1 - cq^2) < 0
        (ALL, (0.0, -0.4, -0.4, 0.6)),
        (ALL, (-0.4, 0.0, -0.4, 0.6)),
    ])
    def test_division_gives_exact_zeros_for_a_unit_ratio(self, monkeypatch, variant, abcq):
        # the two series coincide; at a ceiling of 80 digits their moments
        # must settle as exact zeros, not as noise of about 1e-80
        p = ParamSet(*abcq)
        assert gfrac._moments_by_path_sums(variant, p, 20) is None
        monkeypatch.setattr(gfrac, "_MAX_DIGITS", 80)
        assert ratio_moments(variant, p, 20).m.tolist() == [1.0] + [0.0] * 20

    def test_mixed_signs_take_the_division(self, monkeypatch):
        pn = gfraction_coeffs(A, MIXED_A, 32).partial_numerators
        assert pn.min() < -13.0 and pn.max() > 13.0
        got = ratio_moments(A, MIXED_A, 30).m
        assert got[30] == pytest.approx(float(mp_moments(A, MIXED_A, 30)[30]), rel=1e-12)
        monkeypatch.setattr(gfrac, "_moments_by_path_sums", lambda *args: None)
        np.testing.assert_array_equal(got, ratio_moments(A, MIXED_A, 30).m)

    def test_division_matches_oracle(self):
        # the first set's moments fall so far below the series coefficients
        # that the division needs about 320 digits
        cases = [(BC, ParamSet(-0.0018060615541048801, -0.00034872208742232463,
                               -0.0018082037599907903, 0.11216763885712927))]
        rng = np.random.default_rng(61)
        while len(cases) < 21:
            a, b, c = rng.uniform(-100.0, 100.0, 3)
            p = ParamSet(float(a), float(b), float(c), float(rng.uniform(0.01, 0.99)))
            variant = (BC, A, ALL)[len(cases) % 3]
            if gfrac._moments_by_path_sums(variant, p, 40) is None:
                cases.append((variant, p))
        for variant, p in cases:
            want = [float(x) for x in mp_moments(variant, p, 40)]
            np.testing.assert_allclose(ratio_moments(variant, p, 40).m, want,
                                       rtol=1e-12, atol=0.0, err_msg=str((variant, p)))

    def test_division_precision_ceiling(self, monkeypatch):
        p = ParamSet(-0.0018060615541048801, -0.00034872208742232463,
                     -0.0018082037599907903, 0.11216763885712927)
        monkeypatch.setattr(gfrac, "_MAX_DIGITS", 160)
        with pytest.raises(NoConvergence):
            ratio_moments(BC, p, 40)


# a SHIFT_A set outside the hypotheses whose partial numerators span +-13.9
MIXED_A = ParamSet(0.916261106974507, -0.4121543034970268, 0.9069117785606575,
                   0.7501997147334211)


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
        # the qz fraction's coefficients scaled by q^-n are those of the plain-z
        # ratio Phi[a,bq;cq;q,z]/Phi[a,b;c;q,z], here by long division
        from test_qcore import brute_pochhammer
        a, b, c, q = p_bc.a, p_bc.b, p_bc.c, p_bc.q

        def coeffs(a, b, c):
            return np.array([brute_pochhammer(a, q, n) * brute_pochhammer(b, q, n)
                             / (brute_pochhammer(c, q, n) * brute_pochhammer(q, q, n))
                             for n in range(9)])

        num, den = coeffs(a, b * q, c * q), coeffs(a, b, c)
        want = np.zeros(9)
        for n in range(9):
            want[n] = num[n] - np.dot(den[1 : n + 1], want[n - 1 :: -1][:n])
        got = gfraction_series(gfraction_coeffs(BC, p_bc, 64), 8) / q ** np.arange(9)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_mixed_signs(self):
        # expanding level by level with series_reciprocal gave m_30 = -2^62
        # here; the division route of ratio_moments gives 60.55
        gf = gfraction_coeffs(A, MIXED_A, 64)
        np.testing.assert_allclose(gfraction_series(gf, 30),
                                   ratio_moments(A, MIXED_A, 30).m, rtol=1e-10)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(DomainError):
            totally_monotone_check(np.array([1.0, 2.0, 0.0]), tol)


class TestOracleEquivalenceProperty:
    def test_random_fraction_vs_series(self):
        # module-level form of the fraction-vs-series invariant
        rng = np.random.default_rng(11)
        for variant in (BC, A):
            for p in sample_hypothesis_passing(rng, 8, variant, q_max=0.9):
                gf = gfraction_coeffs(variant, p, 512)
                scale = p.q if variant is BC else 1.0
                num = (ParamSet(p.a, p.b * p.q, p.c * p.q, p.q) if variant is BC
                       else ParamSet(p.a * p.q, p.b, p.c, p.q))
                for z in sample_disk(rng, 5, 0.8):
                    if abs(z.imag) < 1e-3 and z.real > 0.5:
                        continue
                    got = gfraction_eval(gf, z).value
                    want = series_ratio(num, p, z, scale=scale)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
