import itertools
import math
import re
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from besselcert import (
    AIRY_C,
    BoundReport,
    DomainError,
    EvalResult,
    Order,
    PrecisionError,
    airy_envelope_maxima,
    bessel_j_prime_ref,
    bessel_j_ref,
    bound_airy_envelope,
    bound_derivative,
    bound_envelope,
    bound_log_derivative,
    bound_monotonic,
    bound_near_first_zero,
    bound_watson,
    bound_wronskian_kernel,
    gamma,
    leftmost_max_check,
    lemma_integral_check,
    refine_airy_zero,
    sonin_eval,
)
from besselcert import bounds as bounds_module
from besselcert.bounds import _gauss_legendre, _leftmost_slope, _trigamma
from besselcert.zeros import _airy_bracket
from plain_bisection import plain_bisection

INV_SQRT_PI = 1 / math.sqrt(math.pi)


class TestWatson:
    def test_unit_cap_at_nu_one(self):
        rep = bound_watson(Order(1.0), 2.0)
        assert rep.rhs == pytest.approx(1.0, rel=1e-14)
        assert rep.holds

    def test_holds_on_samples(self):
        for nu in (0.0, 0.5, 3.0, 15.0):
            for x in (0.05, 1.0, 20.0):
                assert bound_watson(Order(nu), x).holds

    def test_tight_near_origin(self):
        # both sides go to 0 like (x/2)^nu; the margin shrinks with x
        rep = bound_watson(Order(2.0), 1e-3)
        assert rep.holds and rep.lhs == pytest.approx(rep.rhs, rel=1e-5)


class TestEnvelope:
    def test_equality_at_half_order_extremum(self):
        # sqrt(pi x/2)|J_{1/2}| = |sin x| peaks at exactly 1
        rep = bound_envelope(Order(0.5), math.pi / 2)
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)

    def test_strict_above_half_order(self):
        for nu in (1.0, 5.0, 20.0):
            for x in (0.5, 7.0, 120.0):
                rep = bound_envelope(Order(nu), x)
                assert rep.holds and rep.lhs < 1.0

    def test_holds_up_to_where_mu_leaves_the_doubles(self):
        # mu = nu^2 - 1/4 is 1.69e308 at nu = 1.3e154 and inf from about 1.34e154
        assert bound_envelope(Order(1.3e154), 100.0).holds
        for nu in (1.35e154, 1e200, 1e300):
            with pytest.raises(DomainError, match=r"^bound_envelope: mu = \|nu\^2 - 1/4\| leaves"):
                bound_envelope(Order(nu), 100.0)


class TestDerivative:
    def test_holds_past_transition(self):
        for nu, x in ((0.5, 3.0), (2.0, 5.0), (10.0, 14.5), (20.0, 26.0)):
            assert bound_derivative(Order(nu), x).holds

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_derivative(Order(0.4), 10.0)
        with pytest.raises(DomainError):
            bound_derivative(Order(10.0), 10.5)  # inside the transition region


class TestMonotonic:
    def test_equality_at_t_one(self):
        first, second = bound_monotonic(Order(2.0), 1.0)
        assert first.holds and first.margin == pytest.approx(0.0, abs=1e-15)
        assert second.holds

    def test_holds_on_samples(self):
        for nu in (0.5, 1.0, 7.0, 40.0):
            for t in (0.1, 0.5, 0.9):
                first, second = bound_monotonic(Order(nu), t)
                assert first.holds and second.holds

    def test_closed_form_log_path(self):
        # the closed form is evaluated in logs; check it against the direct
        # product at an order where both routes are still representable
        nu, t = 40.0, 0.6
        x = t * nu
        first, second = bound_monotonic(Order(nu), t)
        grow = nu * nu * (1 - t * t) / (2 * nu + 1)
        direct = (2 ** (1 / 3) * x ** nu
                  / (3 ** (2 / 3) * gamma(2 / 3) * nu ** (nu + 1 / 3))
                  * math.exp(grow))
        assert second.rhs == pytest.approx(direct, rel=1e-11)
        assert first.holds and second.holds

    def test_ln_gamma_two_thirds_is_the_logged_gamma(self):
        # the closed form's constant is the double that math.log(gamma(2/3)) reads
        assert bounds_module._LN_GAMMA_2_3 == math.log(gamma(2 / 3))

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_monotonic(Order(2.0), 0.0)
        with pytest.raises(DomainError):
            bound_monotonic(Order(2.0), 1.1)
        with pytest.raises(DomainError):
            bound_monotonic(Order(0.0), 0.5)


class TestLogDerivative:
    def test_closed_form_midpoint(self):
        first, second = bound_log_derivative(Order(0.5), 0.5)
        assert first.lhs == pytest.approx(math.sqrt(3) - 2, rel=1e-15)
        assert first.holds and second.holds

    def test_holds_on_samples(self):
        for nu in (0.0, 0.5, 2.0, 10.0):
            for frac in (0.1, 0.6, 1.0):
                x = frac * (nu + 0.5)
                first, second = bound_log_derivative(Order(nu), x)
                assert first.holds and second.holds

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_log_derivative(Order(1.0), 1.6)  # beyond nu + 1/2

    @pytest.mark.parametrize("nu,x", [(60.0, 0.05), (120.00000000000001, 2.0)])
    def test_j_squared_below_the_doubles(self, nu, x):
        # J_60(0.05) = 9.0e-179 and J_120(2) = 1.5e-199: J^2 underflows to 0,
        # so the ratio's error must divide by J only once
        first, second = bound_log_derivative(Order(nu), x)
        assert first.holds and second.holds
        with mpmath.workdps(30):
            j = mpmath.besselj(nu, x)
            truth = mpmath.besselj(nu, x, derivative=1) / j - nu / mpmath.mpf(x)
        assert first.rhs == pytest.approx(float(truth), rel=1e-12)


class TestAiryEnvelope:
    def test_holds_at_origin_and_beyond(self):
        for x in (0.0, 1.0, 10.0, 55.0):
            rep = bound_airy_envelope(x)
            assert rep.holds and rep.rhs == 9 / 14

    def test_maxima_corridor(self):
        reports = airy_envelope_maxima(20.0)
        assert len(reports) >= 16 and len(reports) % 2 == 0
        assert all(r.holds for r in reports)
        # first crest of the damped envelope, from the refined scan
        first_val = reports[0].rhs
        assert first_val == pytest.approx(0.6412831480456839, abs=1e-9)

    def test_crests_approach_limit(self):
        # by x ~ 30 the crest values have settled to within 2% of 1/sqrt(pi)
        reports = airy_envelope_maxima(35.0)
        last_val = reports[-2].rhs  # lower report of the final pair
        assert abs(last_val - INV_SQRT_PI) < 0.02

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_airy_envelope(-0.1)

    def test_hump_lemma_sign_pattern_to_the_domain_end(self):
        # f'' / f = -x - 5/(16(x+c)^2) < 0 at every critical point of f, so
        # inside each positive hump (a_2k, a_2k+1) of Ai(-x), a_0 = -inf, f'
        # reads + ... + - ... - on a grid of about 15 points per
        # half-oscillation.  The signs come from mpmath's float Airy
        # functions, independent of the oracle and within ~2e-13 of it to
        # x = 120
        xs = _scan_grid(120.0)
        for k in itertools.count():
            lo = -math.inf if k == 0 else _airy_bracket(2 * k)[1]
            if lo >= xs[-1]:
                break
            hi = _airy_bracket(2 * k + 1)[0]
            signs = "".join("+" if _mp_slope(x) > 0 else "-" for x in xs if lo < x < hi)
            assert re.fullmatch(r"\++-+" if hi < xs[-1] else r"\++-*", signs), (k, signs)
        assert k == 140  # a_279 = 119.94 ends the last hump; a_280 is past 120

    def test_hump_ends_read_the_lemmas_signs_to_the_domain_end(self):
        # airy_envelope_maxima reads f' at each hump's ends, 1e-3 (k = 0) or
        # a_2k's upper bracket end, and a_2k+1's lower one: mpmath's f' is
        # > 0 at the first and <= 0 at the second for every hump to x = 120
        for k in itertools.count():
            lo = 1e-3 if k == 0 else _airy_bracket(2 * k)[1]
            if lo >= 120.0:
                break
            assert _mp_slope(lo, mpmath.mp) > 0, k
            hi = _airy_bracket(2 * k + 1)[0]
            if hi <= 120.0:
                assert _mp_slope(hi, mpmath.mp) <= 0, k
        assert k == 140

    def test_a_hump_against_the_lemma_refuses(self, monkeypatch):
        # hump ends that straddle a negative hump break the sign pattern
        monkeypatch.setattr(bounds_module, "_airy_bracket", lambda s: (s + 0.5, s + 0.5))
        with pytest.raises(PrecisionError, match="breaks the hump lemma"):
            airy_envelope_maxima(14.0)


def _scan_grid(x_hi):
    # about 15 points per half-oscillation, the step of the crest scan the
    # certified humps replaced
    xs = [1e-3]
    while xs[-1] < x_hi:
        x = xs[-1]
        xs.append(min(x_hi, x + min(0.05, math.pi / (15 * math.sqrt(max(x, 0.5))))))
    return xs


def _mp_slope(x, ctx=mpmath.fp):
    # f' for f = (x+c)^(1/4) Ai(-x), from mpmath's Airy functions in ctx
    # (floats by default, 30 digits for mpmath.mp)
    with mpmath.workdps(30):
        a, ap = ctx.airyai(-x), -ctx.airyai(-x, derivative=1)
        return 0.25 * (x + AIRY_C) ** -0.75 * a + (x + AIRY_C) ** 0.25 * ap


class TestWronskianKernel:
    def test_symmetric_in_arguments(self):
        a = bound_wronskian_kernel(0.3, 1.0, 4.0)
        b = bound_wronskian_kernel(0.3, 4.0, 1.0)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)

    def test_vanishes_at_nu_zero(self):
        rep = bound_wronskian_kernel(0.0, 1.0, 2.0)
        assert rep.rhs == pytest.approx(0.0, abs=1e-16)
        assert rep.lhs < 1e-13 and rep.holds

    def test_half_order_closed_form(self):
        # at nu = 1/2 the kernel is (2/pi)|sin(x2 - x1)|, saturating at
        # separation pi/2
        rep = bound_wronskian_kernel(0.5, 1.0, 1.0 + math.pi / 2)
        assert rep.lhs == pytest.approx(2 / math.pi, rel=1e-13)
        assert rep.holds

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_wronskian_kernel(0.7, 1.0, 2.0)


class TestNearFirstZero:
    def test_holds_on_samples(self):
        for nu in (0.5, 2.0, 10.0, 40.0):
            rep = bound_near_first_zero(Order(nu))
            assert rep.holds and rep.lhs > 0

    def test_a1_is_the_refined_and_the_rounded_zero(self):
        # gamma's a_1 is the double refine_airy_zero(1) returns, and a_1
        # correctly rounded
        assert bounds_module._A1 == refine_airy_zero(1)
        with mpmath.workdps(40):
            assert bounds_module._A1 == float(-mpmath.airyaizero(1))

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_near_first_zero(Order(0.3))


class TestSonin:
    def test_szego_constant_at_half_order(self):
        # sqrt(x) J_{1/2} = sqrt(2/pi) sin x, so S collapses to 2/pi exactly
        for x in (0.3, 2.0, 17.0):
            s = sonin_eval("szego", Order(0.5), x)
            assert s.S == pytest.approx(2 / math.pi, rel=1e-13)

    def test_szego_nondecreasing(self):
        order = Order(0.2)
        vals = [sonin_eval("szego", order, 0.1 + 0.4 * k).S for k in range(60)]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_envelope_nondecreasing(self):
        order = Order(3.0)
        x0 = math.sqrt(order.mu) + 0.05
        vals = [sonin_eval("envelope", order, x0 + 0.5 * k).S for k in range(60)]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_airy_max_at_origin(self):
        s0 = sonin_eval("airy", Order(0.0), 0.0).S
        assert s0 == pytest.approx(0.49512393523826403, rel=1e-10)
        for x in (0.5, 3.0, 30.0):
            assert sonin_eval("airy", Order(0.0), x).S <= s0

    @given(st.floats(-0.5, 0.5), st.floats(0.01, 80.0))
    @settings(max_examples=25, deadline=None)
    def test_szego_nonnegative(self, nu, x):
        assert sonin_eval("szego", Order(nu), x).S >= 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sonin_eval("szego", Order(0.7), 1.0)
        with pytest.raises(DomainError):
            sonin_eval("envelope", Order(0.4), 10.0)
        with pytest.raises(DomainError):
            sonin_eval("airy", Order(0.0), -1.0)
        with pytest.raises(DomainError):
            sonin_eval("bogus", Order(0.0), 1.0)


class TestLeftmostMax:
    def test_floor_below_first_crest(self):
        rep = leftmost_max_check(Order(5.0))
        assert rep.holds
        assert rep.lhs == pytest.approx(5.0 * math.sqrt(1 - 10.0 ** (-2 / 3)))
        assert 4.59 < rep.rhs < 4.61

    def test_boundary_order(self):
        assert leftmost_max_check(Order(5 / 3)).holds

    def test_domain(self):
        with pytest.raises(DomainError):
            leftmost_max_check(Order(1.5))


# (nu, floor, xi) of the linear scan-grid walk that the bisection replaced
LEFTMOST_GOLDEN = (
    (5 / 3, 1.2381208042660228, 1.3521003892488836),
    (1.8, 1.3640538925173025, 1.4822755830988736),
    (2.0, 1.5532543088727617, 1.6771682731180904),
    (5.0, 4.428759789706402, 4.600175557522324),
    (5.8, 5.203389574442307, 5.382721717262857),
    (10.0, 9.296661331737617, 9.507151396341996),
    (20.0, 19.125911248002435, 19.383433080159993),
    # J_nu is below 1e-80 on the first grid points, and hp is still positive there
    (30.0, 29.004775216892597, 29.295125410829993),
    # mpmath's crest is 39.224440282916959
    (40.0, 38.90787339856452, 39.22444028291696),
)


class TestLeftmostMaxBisection:
    @pytest.mark.parametrize("nu, floor, xi", LEFTMOST_GOLDEN)
    def test_bit_identical_to_the_walk(self, nu, floor, xi):
        assert leftmost_max_check(Order(nu)) == BoundReport(
            "leftmost_max", floor, xi, xi - floor, True)

    def test_call_budget(self, monkeypatch):
        # hp at the floor and at hi, then refine_root on [floor, hi]: 13 J
        # evaluations at nu = 10, two of them re-reading the ends from the
        # oracle's cache; the secant lands in the final bisection cell, so
        # bisection evaluates no midpoint of its own
        calls = []

        def counting(*args):
            calls.append(args)
            return bessel_j_ref(*args)

        monkeypatch.setattr("besselcert.bounds.bessel_j_ref", counting)
        leftmost_max_check(Order(10.0))
        assert len(calls) == 13

    def test_both_certificates_hold_across_the_domain(self):
        # 40 log-spaced orders from 5/3 to the domain's end, nu ~ 200.0006:
        # hp clears its charge positive at the floor and negative at hi,
        # by a factor past 1e12 (at least 4.0e12), and each report holds
        start = time.perf_counter()
        top = 200.0006
        assert math.sqrt(Order(top).mu) - 1e-6 <= 200 < math.sqrt(Order(top + 1e-4).mu) - 1e-6
        for k in range(40):
            nu = 5 / 3 * (top / (5 / 3)) ** (k / 39)
            order = Order(nu)
            rep = leftmost_max_check(order)
            hi = nu * math.sqrt(1 - 0.5 * (2 * nu) ** (-2 / 3))
            at_floor, at_hi = _leftmost_slope(order, rep.lhs), _leftmost_slope(order, hi)
            assert at_floor.value > 1e12 * at_floor.abs_err_estimate, nu
            assert -at_hi.value > 1e12 * at_hi.abs_err_estimate, nu
            assert rep.holds and rep.lhs < rep.rhs < hi, nu
        assert time.perf_counter() - start < 1.0

    def test_an_uncertain_floor_sign_raises(self, monkeypatch):
        # J_nu's estimate inflated past |hp|: hp(floor) keeps its sign but
        # sits within its own charge, so the claim is not decided
        def blurred(order, x):
            r = bessel_j_ref(order, x)
            return EvalResult(r.value, 1e3 * abs(r.value))

        monkeypatch.setattr("besselcert.bounds.bessel_j_ref", blurred)
        order = Order(5.0)
        floor = 5.0 * math.sqrt(1 - 10.0 ** (-2 / 3))
        at_floor = _leftmost_slope(order, floor)
        assert at_floor.value > 0 and at_floor.abs_err_estimate >= at_floor.value
        with pytest.raises(PrecisionError, match="not certified positive at the floor"):
            leftmost_max_check(order)

    def test_no_sign_change_raises(self, monkeypatch):
        # hp = (mu - x^2)^(1/4) > 0 on the whole grid
        monkeypatch.setattr("besselcert.bounds.bessel_j_ref",
                            lambda order, x, ctx=None: EvalResult(0.0, 0.0))
        monkeypatch.setattr("besselcert.bounds.bessel_j_prime_ref",
                            lambda order, x, ctx=None: EvalResult(1.0, 0.0))
        with pytest.raises(PrecisionError, match="no maximum"):
            leftmost_max_check(Order(5.0))


class TestLargeOrderCrests:
    def test_crest_matches_mpmath(self):
        # mpmath's root of hp at nu = 45.1
        rep = leftmost_max_check(Order(45.1))
        assert abs(rep.rhs - 44.29282621385047612) <= 1e-8
        assert rep.holds

    def test_order_fifty_reports(self):
        # J_50 is about 1e-97 at the first grid point, x = 0.05
        rep = leftmost_max_check(Order(50.0))
        assert abs(rep.rhs - 49.16460074347863957) <= 1e-8
        assert rep.holds


class TestLemmaIntegral:
    def test_holds_and_saturates(self):
        first, second = lemma_integral_check(10.0)
        assert first.holds and second.holds
        # at moderate x the caps are nearly attained: x * integral is close
        # to the limiting constants 1/2 and 2/pi
        assert 0.49 < 10.0 * first.lhs < 0.5
        assert 0.62 < 10.0 * second.lhs < 2 / math.pi

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma_integral_check(0.0)


class TestDomainGuards:
    # explicit errors, not asserts: these guards must survive python -O

    def test_derivative_nonpositive_psi(self, monkeypatch):
        # with the shift gone, x = nu passes the domain check but psi < 0
        monkeypatch.setattr("besselcert.bounds._DERIV_SHIFT", 0.0)
        with pytest.raises(DomainError, match="psi"):
            bound_derivative(Order(5.0), 5.0)

    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_near_first_zero_nonpositive_value(self, monkeypatch, value):
        monkeypatch.setattr("besselcert.bounds.bessel_j_ref",
                            lambda order, x, ctx=None: EvalResult(value, 1e-17))
        with pytest.raises(DomainError, match="first zero"):
            bound_near_first_zero(Order(5.0))


LEMMA_XS = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6)


def _lemma_fold(mpmath, x):
    # both integrals folded onto one period through the trigamma function
    pi = mpmath.pi
    f1 = lambda u: mpmath.sin(u) ** 2 * mpmath.psi(1, (u + x) / pi)
    f2 = lambda u: mpmath.sin(u) * mpmath.psi(1, (u + x) / pi)
    return mpmath.quad(f1, [0, pi]) / pi ** 2, mpmath.quad(f2, [0, pi]) / pi ** 2


class TestLemmaClosedForm:
    def test_trigamma_against_mpmath(self):
        for k in range(46):
            z = 1e-3 * 10 ** (k / 5)  # 1e-3 .. 1e6
            truth = mpmath.psi(1, z)
            assert abs(float((_trigamma(z) - truth) / truth)) <= 1e-14, z

    def test_gauss_legendre_exact_to_degree_39(self):
        rule = _gauss_legendre()
        assert len(rule) == 20
        for k in range(40):
            exact = 2 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * t ** k for t, w in rule) - exact) < 1e-15

    @pytest.mark.parametrize("x", LEMMA_XS)
    def test_lhs_bounds_the_integrals_from_above(self, x):
        with mpmath.workdps(30):
            truths = _lemma_fold(mpmath, x)
        for rep, truth in zip(lemma_integral_check(x), truths):
            assert truth <= rep.lhs <= truth + 1e-12 * max(1, truth), rep.name

    @pytest.mark.parametrize("x", LEMMA_XS)
    def test_holds(self, x):
        assert all(rep.holds for rep in lemma_integral_check(x))


# (nu, xi) where J_nu, J'_nu and hp are 0.0 at the grid's first point
# x = 0.05, so the bisection's lo rule must admit hp = 0
LEFTMOST_FLUSHED = (
    (120.0, "0x1.db8618658cb54p+6"),
    (150.0, "0x1.2996b0cb9c113p+7"),
    (200.0, "0x1.8d5866f897eb5p+7"),
)


@pytest.mark.parametrize("nu, xi", LEFTMOST_FLUSHED)
def test_leftmost_crest_past_the_flushed_start(nu, xi):
    order = Order(nu)
    assert bessel_j_ref(order, 0.05).value == 0.0
    rep = leftmost_max_check(order)
    assert rep.rhs.hex() == xi and rep.holds
    # the same crest from a linear walk along the same grid and plain bisection
    mu = order.mu

    def hp(x):
        s = mu - x * x
        return (-0.5 * x * s ** -0.75 * bessel_j_ref(order, x).value
                + s ** 0.25 * bessel_j_prime_ref(order, x).value)

    grid, end = [0.05], math.sqrt(mu) - 1e-6
    while grid[-1] < end:
        grid.append(min(end, grid[-1] + max(1e-3, grid[-1] / 300)))
    k = next(k for k, x in enumerate(grid) if hp(x) < 0)
    assert plain_bisection(hp, (grid[k - 1], grid[k]), 1e-10) == rep.rhs


@pytest.mark.parametrize("nu", [25.0, 40.0, 60.0])
def test_leftmost_scan_start_is_resolved(nu):
    # at x = 0.05, where the leftmost check's former grid started, J_nu and
    # J'_nu are tiny but still resolved as positive
    assert bessel_j_ref(Order(nu), 0.05).value > 0
    assert bessel_j_prime_ref(Order(nu), 0.05).value > 0
