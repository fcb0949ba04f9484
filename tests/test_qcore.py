import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qheine import geomtest, gfrac, qcore
from qheine.errors import DomainError, NoConvergence
from qheine.qcore import (
    INFINITY,
    ParamSet,
    PowerSeries,
    gauss_f,
    heine_coeffs,
    heine_phi,
    heine_pole_split,
    log_q,
    q_diff,
    q_gamma,
    q_pochhammer,
    verify_identities,
)

params_st = st.tuples(
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.1, max_value=0.9),
)


NON_FINITE = (math.nan, math.inf, -math.inf)


def brute_pochhammer(a, q, n):
    out = 1.0
    for k in range(n):
        out *= 1.0 - a * q**k
    return out


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.7, 0.5, 0) == 1.0

    def test_two_factors(self):
        # (1 - 0.5)(1 - 0.25)
        assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375, abs=0)

    def test_shift_relation_spot(self):
        a, q = 0.3, 0.7
        lhs = (1.0 - a) * q_pochhammer(a * q, q, 3)
        rhs = q_pochhammer(a, q, 4)
        assert abs(lhs - rhs) < 1e-15

    @given(a=st.floats(min_value=-2.0, max_value=0.99),
           q=st.floats(min_value=0.05, max_value=0.95),
           n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_shift_relation_property(self, a, q, n):
        lhs1 = (1.0 - a) * q_pochhammer(a * q, q, n)
        lhs2 = q_pochhammer(a, q, n) * (1.0 - a * q**n)
        rhs = q_pochhammer(a, q, n + 1)
        scale = max(1.0, abs(rhs))
        assert abs(lhs1 - rhs) < 1e-14 * scale
        assert abs(lhs2 - rhs) < 1e-14 * scale

    @given(a=st.floats(min_value=-1.5, max_value=0.99),
           q=st.floats(min_value=0.05, max_value=0.9),
           n=st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_product(self, a, q, n):
        assert q_pochhammer(a, q, n) == pytest.approx(brute_pochhammer(a, q, n),
                                                      rel=1e-13, abs=1e-300)

    def test_infinite_product_vs_mpmath(self):
        for a, q in [(0.35, 0.6), (0.9, 0.3), (-0.4, 0.8)]:
            assert q_pochhammer(a, q, INFINITY) == pytest.approx(
                float(mpmath.qp(a, q)), rel=1e-13)

    def test_any_inf_object_accepted(self):
        assert q_pochhammer(0.35, 0.6, float("inf")) == \
            q_pochhammer(0.35, 0.6, INFINITY)

    def test_complex_argument(self):
        a = 0.3 + 0.4j
        got = q_pochhammer(a, 0.5, 3)
        want = (1 - a) * (1 - a * 0.5) * (1 - a * 0.25)
        assert abs(got - want) < 1e-15

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            q_pochhammer(0.5, 1.5, 3)
        with pytest.raises(DomainError):
            q_pochhammer(0.5, 0.5, -1)


class TestParamSet:
    def test_q_domain(self):
        with pytest.raises(DomainError):
            ParamSet(0.5, 0.5, 0.5, 1.0)

    def test_denominator_guard(self):
        # c = 1/q zeroes the (1 - c q) factor
        with pytest.raises(DomainError):
            ParamSet(0.5, 0.5, 2.0, 0.5)
        with pytest.raises(DomainError, match=r"q\^-0"):
            ParamSet(0.5, 0.5, 1.0, 0.5)
        # c = q^-3 zeroes (1 - c q^3)
        for q in (0.5, 0.7):
            with pytest.raises(DomainError, match=r"q\^-3"):
                ParamSet(0.5, 0.5, q**-3, q)

    def test_large_c_off_ladder_is_fine(self):
        ParamSet(0.5, 0.5, 1.7, 0.5)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        for args in ((bad, 0.7, 0.6, 0.8), (0.9, bad, 0.6, 0.8),
                     (0.9, 0.7, bad, 0.8), (0.9, 0.7, 0.6, bad)):
            with pytest.raises(DomainError):
                ParamSet(*args)


def mp_phi(p, z):
    with mpmath.workdps(30):
        return complex(mpmath.qhyper([p.a, p.b], [p.c], p.q, z))


def split_value(split, z):
    L, m, C = split
    return L * z**m / (1.0 - z) + np.polyval(C[::-1], z)


class TestHeinePoleSplit:
    # sets with a negative factor (a > 1, c > 1) or negative parameters
    # carry their sign through the split; figure 4's set has A_n and L
    # agreeing to many digits
    SETS = [(0.9, 0.7, 0.6, 0.8), (0.99, 0.998, 0.98, 0.9), (1.5, 0.3, 0.2, 0.5),
            (0.3, 0.4, 1.7, 0.5), (2.5, -0.4, 3.3, 0.6), (-0.5, -0.3, -0.2, 0.4)]

    @pytest.mark.parametrize("abcq", SETS)
    def test_limit_and_values_match_mpmath(self, abcq):
        p = ParamSet(*abcq)
        split = heine_pole_split(p)
        with mpmath.workdps(30):
            a, b, c, q = (mpmath.mpf(x) for x in abcq)
            want_L = float(mpmath.qp(a, q) * mpmath.qp(b, q)
                           / (mpmath.qp(c, q) * mpmath.qp(q, q)))
        assert split[0] == pytest.approx(want_L, rel=4e-15)
        for z in (0.5, -0.9 + 0.1j, 0.95j):
            assert abs(split_value(split, z) - mp_phi(p, z)) <= 1e-13 * max(abs(want_L), 1.0)

    def test_differences_keep_relative_accuracy(self):
        # figure 4's set: A_n - L falls to 1e-17 |L| while A_n and L stay O(1)
        p = ParamSet(0.99, 0.998, 0.98, 0.9)
        L, m, C = heine_pole_split(p)
        with mpmath.workdps(50):
            a, b, c, q = (mpmath.mpf(x) for x in (p.a, p.b, p.c, p.q))
            want_L = mpmath.qp(a, q) * mpmath.qp(b, q) / (mpmath.qp(c, q) * mpmath.qp(q, q))
            want, A = [], mpmath.mpf(1)
            for k in range(len(C)):
                want.append(float(A - want_L))
                A *= (1 - a * q**k) * (1 - b * q**k) / ((1 - c * q**k) * (1 - q**(k + 1)))
        assert m == 0
        np.testing.assert_allclose(C, want, rtol=1e-12)

    @pytest.mark.parametrize("abcq", SETS + [(0.05, 0.05, 0.77, 0.9)])
    def test_coefficients_are_recovered(self, abcq):
        p = ParamSet(*abcq)
        L, m, C = heine_pole_split(p)
        A = heine_coeffs(p, len(C) - 1).coeffs
        np.testing.assert_allclose(C[:m], A[:m], rtol=1e-13)
        np.testing.assert_allclose(L + C[m:m + 50], A[m:m + 50], rtol=1e-13)

    def test_pole_taken_late_where_limit_dwarfs_value(self):
        # L = 9.3e9 while |Phi| is 2.5e-4 near z = -0.891: moving the pole to
        # z^m keeps every coefficient within its A_n, and the error within
        # rounding of that smaller scale (28x below the plain split's)
        p = ParamSet(0.05, 0.05, 0.77, 0.9)
        L, m, C = heine_pole_split(p)
        z = -0.891
        scale = np.sum(np.abs(C) * abs(z) ** np.arange(len(C))) + abs(L * z**m / (1 - z))
        with mpmath.workdps(40):
            want = complex(mpmath.qhyper([p.a, p.b], [p.c], p.q, z, maxterms=10**4))
        assert m > 0 and L > 1e9
        assert abs(split_value((L, m, C), z) - want) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("abcq,length", [((1.0, 0.3, 0.2, 0.5), 1),
                                             ((0.3, 2.0, 0.2, 0.5), 2),
                                             ((4.0, 0.6, 0.3, 0.5), 3)])
    def test_terminating_series(self, abcq, length):
        # a or b equal to q^-m ends the series at z^m: no pole, L = 0
        p = ParamSet(*abcq)
        L, m, C = heine_pole_split(p)
        assert L == 0.0 and m == 0 and len(C) == length
        np.testing.assert_array_equal(C, heine_coeffs(p, length - 1).coeffs)
        assert not C.flags.writeable  # the split is cached and shared

    def test_term_count_from_q_alone(self):
        counts = [len(heine_pole_split(ParamSet(0.5, 0.5, 0.2, q))[2])
                  for q in (0.1, 0.5, 0.9)]
        assert counts[0] < counts[1] < counts[2] <= 400

    def test_q_too_close_to_one_refused(self):
        with pytest.raises(NoConvergence):
            heine_pole_split(ParamSet(0.5, 0.5, 0.2, 0.99999))


class TestHeineCoeffs:
    def test_order_zero(self):
        ps = heine_coeffs(ParamSet(0.3, 0.4, 0.5, 0.6), 0)
        assert list(ps.coeffs) == [1.0]

    def test_first_coefficient(self):
        a, b, c, q = 0.3, 0.45, 0.2, 0.6
        ps = heine_coeffs(ParamSet(a, b, c, q), 1)
        want = (1 - a) * (1 - b) / ((1 - c) * (1 - q))
        assert ps.coeffs[1] == pytest.approx(want, rel=1e-15)

    def test_q_binomial_reduction(self):
        # a = q and c = b cancel: every coefficient is 1, and the summed
        # series is (az;q)_inf/(z;q)_inf.  Expand that product ratio
        # independently with plain truncated polynomial arithmetic.
        q = b = 0.5
        N = 12
        ps = heine_coeffs(ParamSet(q, b, b, q), N)
        np.testing.assert_allclose(ps.coeffs, np.ones(N + 1), rtol=1e-14)

        num = np.zeros(N + 1)
        num[0] = 1.0
        for k in range(80):  # (qz; q)_inf truncated
            factor = np.zeros(N + 1)
            factor[0], factor[1] = 1.0, -q * q**k
            num = np.convolve(num, factor)[: N + 1]
        den = np.zeros(N + 1)
        den[0] = 1.0
        for k in range(80):  # (z; q)_inf truncated
            factor = np.zeros(N + 1)
            factor[0], factor[1] = 1.0, -(q**k)
            den = np.convolve(den, factor)[: N + 1]
        ratio = np.zeros(N + 1)
        for n in range(N + 1):  # long division
            ratio[n] = (num[n] - np.dot(den[1 : n + 1], ratio[n - 1 :: -1][:n])
                        if n else num[0])
        np.testing.assert_allclose(ps.coeffs, ratio, atol=1e-13)

    @given(params_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_pochhammer(self, abcq):
        a, b, c, q = abcq
        ps = heine_coeffs(ParamSet(a, b, c, q), 8)
        for n in range(9):
            want = (brute_pochhammer(a, q, n) * brute_pochhammer(b, q, n)
                    / (brute_pochhammer(c, q, n) * brute_pochhammer(q, q, n)))
            assert ps.coeffs[n] == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestHeinePhi:
    def test_at_zero(self):
        res = heine_phi(ParamSet(0.2, 0.4, 0.1, 0.5), 0.0)
        assert res.value == 1.0
        assert res.terms_used == 1
        assert res.est_error == 0.0

    def test_against_long_kahan_sum(self, p_bc):
        z = 0.5
        total = 0.0
        comp = 0.0
        for n in range(200):
            term = (brute_pochhammer(p_bc.a, p_bc.q, n)
                    * brute_pochhammer(p_bc.b, p_bc.q, n)
                    / (brute_pochhammer(p_bc.c, p_bc.q, n)
                       * brute_pochhammer(p_bc.q, p_bc.q, n)) * z**n)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        got = heine_phi(p_bc, z, 1e-14).value
        assert got == pytest.approx(total, rel=1e-12)

    def test_against_mpmath(self, p_bc):
        for z in (0.5, -0.6, 0.3 + 0.4j):
            want = complex(mpmath.qhyper([p_bc.a, p_bc.b], [p_bc.c], p_bc.q, z))
            assert heine_phi(p_bc, z, 1e-14).value == pytest.approx(want, rel=1e-12)

    def test_partial_sum_consistency(self, p_bc):
        # value equals dot(coeffs, z^n) for n < terms_used, up to the tail bound
        z = 0.55 - 0.2j
        res = heine_phi(p_bc, z, 1e-12)
        ps = heine_coeffs(p_bc, res.terms_used - 1)
        dot = sum(cf * z**n for n, cf in enumerate(ps.coeffs))
        assert abs(res.value - dot) <= res.est_error + 1e-13

    def test_q_to_one_limit(self):
        errs = []
        for q in (0.9, 0.99, 0.999):
            p = ParamSet(q**1.0, q**2.0, q**3.0, q)
            errs.append(abs(heine_phi(p, 0.3, 1e-13).value
                            - gauss_f(1.0, 2.0, 3.0, 0.3, 1e-13).value))
        assert errs[2] < 1e-2
        assert errs[0] > errs[1] > errs[2]

    def test_domain_error(self, p_bc):
        with pytest.raises(DomainError):
            heine_phi(p_bc, 1.0)
        with pytest.raises(DomainError):
            heine_phi(p_bc, 0.5, tol=0.0)

    def test_nan_tol_rejected(self, p_bc):
        # NaN fails every comparison, so only `not tol > 0` rejects it
        for call in (lambda: heine_phi(p_bc, 0.5, tol=math.nan),
                     lambda: gauss_f(1.0, 1.0, 2.0, 0.5, tol=math.nan),
                     lambda: verify_identities(p_bc, 0.3, tol=math.nan)):
            with pytest.raises(DomainError, match="tol"):
                call()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_z_rejected(self, p_bc, bad):
        for z in (bad, complex(0.1, bad)):
            with pytest.raises(DomainError, match="finite"):
                heine_phi(p_bc, z)
            with pytest.raises(DomainError, match="finite"):
                verify_identities(p_bc, z)
        with pytest.raises(DomainError, match="finite"):
            gauss_f(bad, 1.0, 2.0, 0.5)


def mp_phi40(abcq, z):
    """Phi at 40 digits by the pole split, L from its infinite products:
    independent of qheine, and as many terms at |z| = 0.999 as at 0.5."""
    with mpmath.workdps(50):
        a, b, c, q = (mpmath.mpf(x) for x in abcq)
        z = mpmath.mpc(z)
        L = mpmath.qp(a, q) * mpmath.qp(b, q) / (mpmath.qp(c, q) * mpmath.qp(q, q))
        total, A, zn, qk = L / (1 - z), mpmath.mpf(1), mpmath.mpc(1), mpmath.mpf(1)
        # A_n - L falls like q^n, below 10^-50 |L| after this many terms
        for _ in range(int(50 * math.log(10) / -math.log(abcq[3])) + 10):
            total += (A - L) * zn
            A *= (1 - a * qk) * (1 - b * qk) / ((1 - c * qk) * (1 - q * qk))
            qk *= q
            zn *= z
        return complex(total)


class TestHeinePhiRoutes:
    """heine_phi takes the pole split where the direct sum would be the
    longer, and the direct sum where the split refuses (q near 1)."""

    def test_reference_matches_qhyper(self, p_bc):
        for z in (0.9, -0.5 + 0.6j):
            want = complex(mpmath.qhyper([p_bc.a, p_bc.b], [p_bc.c], p_bc.q, z, maxterms=10**4))
            assert abs(mp_phi40((p_bc.a, p_bc.b, p_bc.c, p_bc.q), z) - want) <= 1e-25 * abs(want)

    @pytest.mark.parametrize("z", [0.99, 0.999, 0.995j])
    def test_near_unit_circle(self, p_bc, z):
        # the direct sum's stop rule left 9.7e-11 and 1.0e-9 at 0.99 and 0.999
        res = heine_phi(p_bc, z)
        want = mp_phi40((p_bc.a, p_bc.b, p_bc.c, p_bc.q), z)
        assert abs(res.value - want) <= 1e-12 * abs(want)
        assert res.terms_used == len(heine_pole_split(p_bc)[2])

    def test_beyond_the_direct_sums_reach(self, p_bc):
        # the direct sum needs about 2.8e5 terms here and gave up at MAX_TERMS
        res = heine_phi(p_bc, 0.9999)
        want = mp_phi40((p_bc.a, p_bc.b, p_bc.c, p_bc.q), 0.9999)
        assert want.real == pytest.approx(985.776, abs=1e-3)
        assert abs(res.value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_direct_where_split_refuses(self, z):
        q = 0.9999
        p = ParamSet(q, q**2, q**3, q)
        with pytest.raises(NoConvergence):
            heine_pole_split(p)
        res = heine_phi(p, z)
        # A_n = (q^2;q)_n / (q^3;q)_n = (1-q^2) / (1-q^{n+2}), summed at 40 digits
        with mpmath.workdps(40):
            qq = mpmath.mpf(q)
            want = mpmath.nsum(lambda n: (1 - qq**2) * mpmath.mpf(z) ** n / (1 - qq ** (n + 2)),
                               [0, mpmath.inf])
        # the direct route's claim: within tol |Phi| plus its tail estimate
        assert res.terms_used < 1000
        assert abs(res.value - complex(want)) <= 1e-12 * abs(complex(want)) + res.est_error

    @given(params_st, st.floats(min_value=0.9, max_value=0.999),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_split_route_within_rounding(self, abcq, r, theta):
        p = ParamSet(*abcq)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        got = heine_phi(p, z).value
        want = mp_phi40(abcq, z)
        L, m, C = heine_pole_split(p)
        scale = abs(L * z**m / (1 - z)) + float(np.sum(np.abs(C) * r ** np.arange(len(C))))
        assert abs(got - want) <= 1e-12 * abs(want) + 16 * np.finfo(float).eps * scale


def kahan_terms_sum(ratio, z, tol):
    """The scalar direct sum: t_0 = 1, t_{n+1} = t_n ratio(n) z, Kahan-summed
    until |t_n| < tol |sum| three times in a row; returns the value, the
    terms used, the geometric tail estimate and sum |t_n|."""
    s, comp, term, small_run, prev_abs, abs_sum = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j, 0, 1.0, 1.0
    for n in range(1, qcore.MAX_TERMS + 1):
        term = term * ratio(n - 1) * z
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        t_abs = abs(term)
        abs_sum += t_abs
        if t_abs < tol * abs(s):
            small_run += 1
            if small_run >= 3:
                rho = min(0.9995, max(abs(z), t_abs / prev_abs))
                return complex(s), n + 1, t_abs * rho / (1.0 - rho), abs_sum
        else:
            small_run = 0
        prev_abs = t_abs if t_abs > 0.0 else prev_abs
    raise NoConvergence("reference sum did not settle")


unit_st = st.floats(min_value=-0.95, max_value=0.95)


class TestDirectSum:
    """The array kernel against the scalar Kahan loop it replaced."""

    @staticmethod
    def assert_matches(got, want):
        (res, abs_sum), (value, terms, est, ref_abs_sum) = got, want
        assert res.terms_used == terms
        # the floor covers estimates in the subnormal range, where rounding is coarse
        assert res.est_error == pytest.approx(est, rel=1e-12, abs=1e-300)
        assert abs_sum == pytest.approx(ref_abs_sum, rel=1e-12)
        assert abs(res.value - value) <= 32 * np.finfo(float).eps * ref_abs_sum

    @given(unit_st, unit_st, unit_st, st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_heine_matches_scalar_loop(self, a, b, c, q, r, theta):
        z = complex(r * math.cos(theta), r * math.sin(theta))

        def ratio(n):
            qn = q**n
            return (1.0 - a * qn) * (1.0 - b * qn) / ((1.0 - c * qn) * (1.0 - q * qn))

        self.assert_matches(qcore._direct_sum(z, 1e-12, qcore._heine_ratios, ParamSet(a, b, c, q)),
                            kahan_terms_sum(ratio, z, 1e-12))

    @given(unit_st, unit_st, unit_st,
           st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_gauss_matches_scalar_loop(self, a, b, c, r, theta):
        assume(abs(c) > 1e-6)  # near c = 0 the terms overflow, which the loop cannot report
        z = complex(r * math.cos(theta), r * math.sin(theta))

        def ratio(n):
            return (a + n) * (b + n) / ((c + n) * (1.0 + n))

        self.assert_matches(qcore._direct_sum(z, 1e-12, qcore._gauss_ratios, a, b, c),
                            kahan_terms_sum(ratio, z, 1e-12))

    def test_overflow_fails_fast(self):
        # both used to run all MAX_TERMS terms and then report no settling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="overflow"):
                heine_phi(ParamSet(1e10, 1e10, 0.5, 0.5), 0.5)
            with pytest.raises(NoConvergence, match="overflow"):
                gauss_f(300.0, 300.0, 0.5, 0.9)

    def test_unsettled_sum_raises(self, monkeypatch):
        monkeypatch.setattr(qcore, "MAX_TERMS", 40)
        with pytest.raises(NoConvergence, match="40 terms"):
            qcore._direct_sum(0.5, 1e-300, qcore._gauss_ratios, 1.0, 1.0, 2.0)


class TestGaussF:
    def test_at_zero(self):
        assert gauss_f(0.3, 0.7, 1.1, 0.0).value == 1.0

    def test_log_closed_form(self):
        # F(1,1;2;z) = -log(1-z)/z
        want = -math.log(0.5) / 0.5
        assert gauss_f(1.0, 1.0, 2.0, 0.5, 1e-14).value == pytest.approx(want, rel=1e-12)

    def test_binomial_closed_form(self):
        # F(a,b;b;z) = (1-z)^(-a)
        want = 0.6 ** (-0.3)
        assert gauss_f(0.3, 2.0, 2.0, 0.4, 1e-14).value == pytest.approx(want, rel=1e-12)

    def test_terminating_series(self):
        for c in (50.0, 500.0):
            for z in (0.3, -0.7, 0.2 + 0.5j):
                got = gauss_f(-1.0, 2.0, c, z).value
                assert abs(got - (1.0 - 2.0 * z / c)) < 1e-15
        assert gauss_f(0.0, 2.0, 50.0, 0.9).value == 1.0

    def test_against_mpmath(self):
        for (a, b, c, z) in [(0.3, 1.7, 2.2, 0.6), (-3.0, 1.5, 2.5, 0.7),
                             (1.2, 0.4, 0.9, -0.5)]:
            want = complex(mpmath.hyp2f1(a, b, c, z))
            assert gauss_f(a, b, c, z, 1e-14).value == pytest.approx(want, rel=1e-11)

    def test_invalid_c(self):
        with pytest.raises(DomainError):
            gauss_f(0.5, 0.5, -2.0, 0.3)


class TestQDiff:
    def test_monomial_spot(self):
        f = PowerSeries(np.array([0.0, 0.0, 1.0]))
        assert q_diff(f, 0.5, 1.0) == pytest.approx(1.5)

    @given(n=st.integers(min_value=1, max_value=8),
           q=st.floats(min_value=0.1, max_value=0.9),
           x=st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_monomial_rule(self, n, q, x):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        f = PowerSeries(coeffs)
        want = (1.0 - q**n) / (1.0 - q) * x ** (n - 1)
        if x == 0.0 and n == 1:
            want = 1.0
        got = q_diff(f, q, x) if x != 0 else q_diff(f, q, 0)
        assert complex(got) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310])
    def test_subnormal_z(self, x):
        # z (1-q) underflows to 0 here; the term-by-term rule never divides by z
        f = PowerSeries(np.array([0.3, 1.0, 2.0]))
        assert complex(q_diff(f, 0.5, x)) == pytest.approx(1.0, rel=1e-12)

    def test_series_at_zero_is_first_coefficient(self, p_bc):
        f = heine_coeffs(p_bc, 10)
        want = (1 - p_bc.a) * (1 - p_bc.b) / ((1 - p_bc.c) * (1 - p_bc.q))
        assert q_diff(f, p_bc.q, 0.0) == pytest.approx(want, rel=1e-15)

    def test_q_derivative_shift_identity(self, p_bc):
        # z (D_q Phi)(z) = ((1-a)(1-b)/((1-c)(1-q))) z Phi[aq,bq;cq;q,z]
        a, b, c, q = p_bc.a, p_bc.b, p_bc.c, p_bc.q
        z = 0.4
        dq = q_diff(lambda w: heine_phi(p_bc, w, 1e-14).value, q, z)
        shifted = ParamSet(a * q, b * q, c * q, q)
        want = ((1 - a) * (1 - b) / ((1 - c) * (1 - q))
                * heine_phi(shifted, z, 1e-14).value)
        assert abs(dq - want) < 1e-12


class TestQGamma:
    def test_at_one_and_two(self):
        for q in (0.2, 0.5, 0.77, 0.95):
            assert q_gamma(1.0, q) == pytest.approx(1.0, rel=1e-13)
            assert q_gamma(2.0, q) == pytest.approx(1.0, rel=1e-13)

    def test_q_factorial_of_two(self):
        assert q_gamma(3.0, 0.5) == pytest.approx(1.5, rel=1e-13)

    @given(x=st.floats(min_value=0.1, max_value=5.0),
           q=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_functional_equation(self, x, q):
        lhs = q_gamma(x + 1.0, q)
        rhs = (1.0 - q**x) / (1.0 - q) * q_gamma(x, q)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_against_mpmath(self):
        for x, q in [(1.2, 0.5), (2.5, 0.5), (0.8, 0.5), (3.3, 0.85)]:
            assert q_gamma(x, q) == pytest.approx(float(mpmath.qgamma(x, q)),
                                                  rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_gamma(0.0, 0.5)
        with pytest.raises(DomainError):
            log_q(-1.0, 0.5)


class TestCoefficientRatioLimit:
    def test_q_gamma_limit(self):
        # (q^a;q)_n (q^b;q)_n / ((q^c;q)_n (q;q)_n)
        #   -> (1-q)^(c-a-b+1) GammaQ(c) / (GammaQ(a) GammaQ(b))
        a, b, c, q = 1.2, 0.8, 2.5, 0.5
        n = 400
        num = q_pochhammer(q**a, q, n) * q_pochhammer(q**b, q, n)
        den = q_pochhammer(q**c, q, n) * q_pochhammer(q, q, n)
        want = (1 - q) ** (c - a - b + 1) * q_gamma(c, q) / (q_gamma(a, q) * q_gamma(b, q))
        assert abs(num / den - want) < 1e-8


class TestVerifyIdentities:
    def test_reference_point(self, p_bc):
        res = verify_identities(p_bc, 0.3)
        assert set(res) == {"L2.1a", "L2.1b-first", "L2.1b-second", "Dq-relation"}
        assert all(v < 1e-12 for v in res.values())

    def test_at_zero_exact(self, p_bc):
        res = verify_identities(p_bc, 0.0)
        assert all(v == 0.0 for v in res.values())

    def test_complex_argument(self):
        res = verify_identities(ParamSet(0.5, 0.5, 0.25, 0.5), 0.7j)
        assert all(v < 1e-12 for v in res.values())

    def test_large_scale_corner_still_resolves(self):
        # near (q, c) -> 1 the series values are huge; the residuals must
        # reflect the identities, not double-precision cancellation
        res = verify_identities(ParamSet(0.05, 0.1, 0.93, 0.94), 0.8)
        assert all(v < 1e-11 for v in res.values())

    def test_a_equal_one_rejected(self):
        with pytest.raises(DomainError):
            verify_identities(ParamSet(1.0, 0.5, 0.2, 0.5), 0.3)


class TestIdentityEscalation:
    """Escalated residuals: the six series summed in decimal."""

    HEAVY = ((0.2, 0.3, 0.93, 0.88), 0.4)

    @pytest.mark.parametrize("abcq,z", [HEAVY, ((0.05, 0.1, 0.93, 0.94), 0.8),
                                        ((0.9, 0.7, 0.6, 0.8), -0.5 + 0.6j)])
    def test_six_sums_match_qhyper(self, abcq, z):
        digits = 35
        z = complex(z)
        D = qcore.decimal.Decimal
        with qcore.decimal.localcontext(qcore.decimal.Context(prec=digits)):
            a, b, c, q = map(D, abcq)
            x, y = D(z.real), D(z.imag)
            sums = [qcore._decimal_phi(a1, b1, c1, q, s * x, s * y, digits)
                    for a1, b1, c1, s in qcore._identity_series(a, b, c, q)]
        with mpmath.workdps(40):
            a, b, c, q = (mpmath.mpf(v) for v in abcq)
            z = mpmath.mpmathify(z)
            for (re, im), (a1, b1, c1, s) in zip(sums, qcore._identity_series(a, b, c, q)):
                want = mpmath.qhyper([a1, b1], [c1], q, s * z, maxterms=10**4)
                got = mpmath.mpc(str(re), str(im))
                assert abs(got - want) <= mpmath.mpf(10) ** -30 * abs(want)

    def test_residuals_within_working_precision(self, monkeypatch):
        # 40 seeded escalating calls: every residual <= scale 10^-dps
        escalated = []
        real = qcore._identity_residuals_mp

        def spy(a, b, c, q, z, scale):
            out = real(a, b, c, q, z, scale)
            escalated.append((scale, out))
            return out

        monkeypatch.setattr(qcore, "_identity_residuals_mp", spy)
        rng = np.random.default_rng(2024)
        verify_identities(ParamSet(*self.HEAVY[0]), self.HEAVY[1])
        while len(escalated) < 40:
            a, b, c = (float(v) for v in rng.uniform(0.0, 0.95, 3))
            q = float(rng.uniform(0.1, 0.9))
            z = 0.8 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            verify_identities(ParamSet(a, b, c, q), complex(z))
        for scale, residuals in escalated:
            dps = 25 + max(0, int(math.log10(scale)))
            assert max(abs(r) for r in residuals) <= scale * 10.0**-dps

    @pytest.mark.parametrize("z", [0.99, 0.99j])
    def test_near_unit_circle_settles(self, z):
        # the decimal sums need about 7 500 terms at z = 0.99
        res = verify_identities(ParamSet(*self.HEAVY[0]), z)
        assert all(v < 1e-20 for v in res.values())

    def test_decimal_sums_stop_at_max_terms(self, monkeypatch):
        # at z = 0.8 the double sums settle within 160 terms, the decimal
        # ones need more than 300
        monkeypatch.setattr(qcore, "MAX_TERMS", 200)
        with pytest.raises(NoConvergence, match="decimal series did not settle within 200 terms"):
            verify_identities(ParamSet(*self.HEAVY[0]), 0.8)


def _gf():
    return gfrac.gfraction_coeffs(gfrac.RatioVariant.SHIFT_A, ParamSet(0.5, 0.5, 0.2, 0.5), 512)


@pytest.mark.parametrize("call", [
    lambda: gfrac.gfraction_eval(_gf(), 0.5, tol=math.nan),
    lambda: gfrac.gfraction_eval(_gf(), 0.5, tol=-1.0),
    lambda: qcore.gauss_coeffs(0.5, 0.5, 0.3, -3),
    lambda: q_pochhammer(math.nan, 0.5, INFINITY),
    lambda: q_gamma(math.nan, 0.5),
    lambda: q_pochhammer(math.nan, 0.5, 3),
    lambda: q_pochhammer(0.5, 0.5, math.nan),
    lambda: log_q(math.nan, 0.5),
    lambda: geomtest.t1_threshold(math.nan, 0.5, 0.5),
], ids=["gfraction_eval-tol-nan", "gfraction_eval-tol-negative", "gauss_coeffs-N-negative",
        "q_pochhammer-a-nan-infinite", "q_gamma-x-nan", "q_pochhammer-a-nan",
        "q_pochhammer-n-nan", "log_q-u-nan", "t1_threshold-a-nan"])
def test_invalid_input_fails_at_entry(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: ParamSet(0.5, 0.5, 0.5, 1.5), "q must lie in (0,1), got 1.5"),
    (lambda: q_pochhammer(0.5, 0.0, 3), "q must lie in (0,1), got 0.0"),
    (lambda: geomtest.t1_threshold(0.5, 0.5, 1.0), "q must lie in (0,1), got 1.0"),
    (lambda: geomtest.KqGrid(4, 4, 1.5), "r_max must lie in (0,1), got 1.5"),
    (lambda: geomtest.boundary_curve(None, -0.5, 256), "r must lie in (0,1), got -0.5"),
])
def test_unit_interval_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
