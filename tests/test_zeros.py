import math
import random
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import besselcert.oracle as oracle
import besselcert.zeros as zeros_module
from besselcert import (
    DomainError,
    EvalResult,
    Order,
    PrecisionError,
    airy_ai_neg_ref,
    airy_zero_estimate,
    bessel_first_zeros_estimate,
    bessel_j_ref,
    center_gap_check,
    conjecture_check,
    refine_airy_zero,
    refine_bessel_zero,
)
import full_walk
from plain_bisection import plain_bisection

# zeros of Ai(-x) and of J_nu, frozen to 40 digits
AIRY_ZEROS = {
    1: 2.338107410459767038489197252446735440639,
    2: 4.087949444130970616636988701457391060225,
    3: 5.520559828095551059129855512931293573797,
    10: 12.82877675286575720040672940724182447739,
    50: 38.02100867725525443313246829074864484066,
}
BESSEL_ZEROS = {
    (0.0, 1): 2.404825557695772768621631879326454643124,
    (5.0, 1): 8.771483815959954019122867133409560562981,
    (10.0, 2): 18.43346366696658264203509661878799388724,
    (20.0, 3): 33.98870278523519141313196512876914937274,
}


class TestAiryEstimates:
    def test_first_zero_center(self):
        est = airy_zero_estimate(1, "full")
        assert abs(est.center - 2.338107410) < 0.00122
        assert not est.one_sided

    def test_half_width_formulas(self):
        m = 9 * math.pi
        full = airy_zero_estimate(1, "full")
        assert full.half_width == pytest.approx(
            1280 * math.pi / (9 * m ** 3 * (m * m + 40) ** (1 / 6)))
        simp = airy_zero_estimate(1, "simplified")
        assert simp.center == pytest.approx(0.25 * (m * m + 20) ** (1 / 3))
        assert simp.half_width == pytest.approx(
            456 / (m ** 3 * (m * m + 40) ** (1 / 6)))

    def test_brackets_contain_refined(self):
        for s in range(1, 51):
            refined = refine_airy_zero(s)
            for mode in ("full", "simplified"):
                lo, hi = airy_zero_estimate(s, mode).bracket()
                assert lo <= refined <= hi, f"s={s} mode={mode}"

    def test_widths_shrink_fast(self):
        # half-widths decay like s^(-10/3); two decades over s = 1..50
        w1 = airy_zero_estimate(1, "full").half_width
        w50 = airy_zero_estimate(50, "full").half_width
        assert w50 < 1e-5 * w1

    def test_domain(self):
        with pytest.raises(DomainError):
            airy_zero_estimate(0)
        with pytest.raises(DomainError):
            airy_zero_estimate(1, "quick")


class TestRefinement:
    @pytest.mark.parametrize("s", sorted(AIRY_ZEROS))
    def test_airy_zeros(self, s):
        assert refine_airy_zero(s) == pytest.approx(AIRY_ZEROS[s], abs=1e-10)

    @pytest.mark.parametrize("nu,s", sorted(BESSEL_ZEROS))
    def test_bessel_zeros(self, nu, s):
        refined = refine_bessel_zero(Order(nu), s)
        assert refined == pytest.approx(BESSEL_ZEROS[(nu, s)], abs=1e-10)

    def test_half_order_zeros_are_multiples_of_pi(self):
        for s in (1, 2, 5):
            refined = refine_bessel_zero(Order(0.5), s)
            assert refined == pytest.approx(s * math.pi, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            refine_airy_zero(0)
        with pytest.raises(DomainError):
            refine_airy_zero(51)
        with pytest.raises(DomainError):
            refine_bessel_zero(Order(1.0), 0)

    def test_bessel_index_past_the_x_cap_refuses_at_once(self):
        # j_{nu,65} >= 64.5 pi > 200 for nu >= -1/2: refused before any scan step
        start = time.perf_counter()
        with pytest.raises(DomainError, match="s must be <= 64"):
            refine_bessel_zero(Order(1.0), 65)
        assert time.perf_counter() - start < 0.01

    def test_last_admitted_index_is_reached_at_the_least_order(self):
        # j_{-1/2,64} = 63.5 pi, the last zero of the least order below x = 200
        assert refine_bessel_zero(Order(-0.5), 64) == pytest.approx(63.5 * math.pi, abs=1e-10)


def _fresh_scan(f, x, step, n, cap=math.inf):
    """The first n sign changes of f in steps from x, walked from x and refined
    by plain bisection; f is sampled at min(x, cap), and the walk ends with
    the first step that starts past cap."""
    found = []
    prev_x, prev_v = x, f(x)
    while len(found) < n and not x > cap:
        x += step
        v = f(min(x, cap))
        if prev_v * v < 0:
            found.append(plain_bisection(f, (prev_x, min(x, cap)), 1e-11))
        prev_x, prev_v = x, v
    return found


def _bisected_airy_zero(s):
    """Plain bisection's a_s on its certified bracket, as float.hex."""
    return plain_bisection(zeros_module._ai, zeros_module._airy_bracket(s), 1e-11).hex()


def _counting(monkeypatch, name):
    """Record every abscissa the zeros module passes to oracle function name."""
    seen = []
    fn = getattr(zeros_module, name)

    def counted(*args):
        seen.append(args[-1])
        return fn(*args)

    monkeypatch.setattr(zeros_module, name, counted)
    return seen


class TestResumedScan:
    def test_airy_zeros_in_order_equal_plain_bisection_on_their_brackets(self):
        got = [refine_airy_zero(s).hex() for s in range(1, 13)]
        assert got == [_bisected_airy_zero(s) for s in range(1, 13)]

    @pytest.mark.parametrize("nu", (0.0, 2.5, 10.0))
    def test_bessel_zeros_in_order_equal_a_fresh_scan(self, nu):
        order = Order(nu)
        got = [refine_bessel_zero(order, k) for k in (1, 2, 3)]
        assert got == _fresh_scan(lambda t: bessel_j_ref(order, t).value,
                                  max(nu, 0.05), 0.25, 3)

    def test_airy_continuation_stays_above_the_previous_zero(self, monkeypatch):
        a5 = refine_airy_zero(5)
        seen = _counting(monkeypatch, "airy_ai_neg_ref")
        assert refine_airy_zero(5) == a5
        seen.clear()
        refine_airy_zero(6)
        assert seen and min(seen) > a5

    def test_bessel_continuation_reuses_the_series_cache(self):
        # a repeat makes no series miss; a fresh s = 3 after s = 2 reads
        # the cell ends up to j_2 from the series cache and sums 11 new
        # series: one cell end, the cell's midpoint and the refinement
        oracle._j_series_fixed.cache_clear()
        order = Order(2.5)
        j2 = refine_bessel_zero(order, 2)
        misses = oracle._j_series_fixed.cache_info().misses
        assert refine_bessel_zero(order, 2) == j2
        assert oracle._j_series_fixed.cache_info().misses == misses
        refine_bessel_zero(order, 3)
        assert oracle._j_series_fixed.cache_info().misses - misses <= 11

    def test_failed_step_leaves_the_scan_where_it_was(self, monkeypatch):
        # an exception is never cached: after a refused evaluation the next
        # call searches afresh and equals the walk, and the cap is raised on
        # every call, not stepped past
        order = Order(2.5)
        calls = []

        def flaky(*args):
            calls.append(args[-1])
            if len(calls) == 10:  # only once: calls keeps growing
                raise PrecisionError("refused once")
            return bessel_j_ref(*args)

        monkeypatch.setattr(zeros_module, "bessel_j_ref", flaky)
        with pytest.raises(PrecisionError, match="refused once"):
            refine_bessel_zero(order, 2)
        assert [refine_bessel_zero(order, 1), refine_bessel_zero(order, 2)] == _fresh_scan(
            lambda t: bessel_j_ref(order, t).value, 2.5, 0.25, 2)
        for _ in range(2):
            with pytest.raises(PrecisionError, match="exceeded the x cap"):
                refine_bessel_zero(Order(10.0), 64)


class TestBesselWalk:
    @pytest.mark.parametrize("nu, s", ((1.76, 63), (-0.25, 64)))
    def test_a_zero_in_the_last_cell_is_refined_inside_the_x_cap(self, nu, s):
        # the last Sturm cell, the one holding these zeros, ends at the cap
        # x = 200, where J_nu is read, so refine_root stays in the domain
        truth = mpmath.findroot(lambda t: mpmath.besselj(nu, t), mpmath.mpf(199.9))
        assert abs(refine_bessel_zero(Order(nu), s) - float(truth)) <= 1e-10

    def test_a_fresh_index_refines_one_zero(self, monkeypatch):
        # five samples about pi apart reach the third zero's Sturm cell, one
        # midpoint halves it and refine_root refines only that zero: 16 J
        # evaluations, where walking every 0.25-cell took 57
        seen = _counting(monkeypatch, "bessel_j_ref")
        refine_bessel_zero(Order(2.5), 3)
        assert len(seen) <= 16

    @pytest.mark.parametrize("nu, s, calls", ((0.0, 20, 33), (-0.25, 64, 75)),
                             ids=("0.0-20", "-0.25-64"))
    def test_the_stride_widens_with_x_below_half(self, monkeypatch, nu, s, calls):
        # below |nu| = 1/2 the Sturm gap pi/sqrt(1 + mu/x^2) grows with x, and
        # each Sturm cell takes its length from its left end: 33 and 75 J
        # evaluations, where one 0.25-grid stride from x_0 = 0.05 took 259
        # and 813
        seen = _counting(monkeypatch, "bessel_j_ref")
        refine_bessel_zero(Order(nu), s)
        assert len(seen) == calls

    def test_the_stride_search_equals_the_walk(self):
        # below 1/2 the Sturm gap, hence the stride, shrinks with the coarse
        # cell's left end down to one cell at x = 0.05; at +-1/2 and above it
        # is 12 cells; from nu ~ 150 the cap at x = 200 cuts the zeros off
        rng = random.Random(20)
        orders = [-0.49, -0.25, 0.0, 0.3, 0.45, -0.5, 0.5]
        orders += [rng.uniform(1, 60) for _ in range(3)] + [rng.uniform(150, 199.5)
                                                            for _ in range(2)]
        for nu in orders:
            order = Order(nu)
            walk = [z.hex() for z in _fresh_scan(lambda t: bessel_j_ref(order, t).value,
                                                 max(nu, 0.05), 0.25, 10, 200.0)]
            for s in (1, 2, 3, 10):
                if s <= len(walk):
                    assert refine_bessel_zero(order, s).hex() == walk[s - 1], (nu, s)
                else:
                    with pytest.raises(PrecisionError, match="exceeded the x cap"):
                        refine_bessel_zero(order, s)

    # walks from 2.5, 1.0 and 0.25 land on 200.0 itself, so the full grid
    # ends in 200.0 twice; from 1.78125 and 3.78125 the zero lies in the last
    # cell, whose right end is clipped from 200.03125; from 0.05 the walk's
    # additions round
    @pytest.mark.parametrize("nu, s", ((2.5, 62), (2.5, 63), (2.5, 64), (1.0, 63), (1.0, 64),
                                       (0.25, 63), (0.25, 64), (1.78125, 63), (3.78125, 62),
                                       (0.0, 63), (0.0, 64)))
    def test_the_sturm_cells_equal_the_full_walk_near_the_cap(self, nu, s):
        # the Sturm cells return the full walk's double or refusal
        def outcome(search):
            try:
                return search(Order(nu), s).hex()
            except PrecisionError as exc:
                return str(exc)

        assert outcome(refine_bessel_zero) == outcome(full_walk.full_walk_zero), (nu, s)


class TestAiryJump:
    def test_every_airy_zero_is_plain_bisection_on_its_bracket_in_either_order(self):
        bisected = [_bisected_airy_zero(s) for s in range(1, 51)]
        for order in (range(1, 51), range(50, 0, -1)):
            got = {s: refine_airy_zero(s).hex() for s in order}
            assert [got[s] for s in range(1, 51)] == bisected

    def test_a_fresh_last_zero_takes_few_evaluations(self, monkeypatch):
        # the bracket's two ends, then refine_root on the bracket: 8 in all
        # (17 with every bisection midpoint evaluated)
        seen = _counting(monkeypatch, "airy_ai_neg_ref")
        refine_airy_zero(50)
        assert len(seen) <= 8

    def test_a_bracket_without_one_sign_change_refuses(self, monkeypatch):
        # a bracket that misses a_s, narrow or wide, shows no sign change
        # and is refused rather than guessed from
        message = "no certified sign change over a_1's bracket"
        monkeypatch.setattr(zeros_module, "_airy_bracket", lambda s: (3.0, 3.05))
        with pytest.raises(PrecisionError, match=message):
            refine_airy_zero(1)
        monkeypatch.setattr(zeros_module, "_airy_bracket", lambda s: (2.35, 4.05))
        with pytest.raises(PrecisionError, match=message):
            refine_airy_zero(1)
        monkeypatch.undo()
        assert refine_airy_zero(1) == pytest.approx(AIRY_ZEROS[1], abs=1e-10)

    @pytest.mark.parametrize("end", (0, 1))
    def test_an_end_within_its_error_estimate_refuses(self, monkeypatch, end):
        # the right signs are not enough: an end whose |Ai| does not exceed
        # its error estimate does not certify its sign
        x_end = zeros_module._airy_bracket(1)[end]

        def blurred(x):
            r = airy_ai_neg_ref(x)
            return EvalResult(r.value, abs(r.value)) if x == x_end else r

        monkeypatch.setattr(zeros_module, "airy_ai_neg_ref", blurred)
        with pytest.raises(PrecisionError, match="no certified sign change over a_1's bracket"):
            refine_airy_zero(1)


class TestBesselBrackets:
    def test_one_sided_brackets_contain_refined(self):
        for nu in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            for s in (1, 2, 3):
                est = bessel_first_zeros_estimate(Order(nu), s)
                refined = refine_bessel_zero(Order(nu), s)
                lo, hi = est.bracket()
                assert est.one_sided and lo == est.center
                assert lo <= refined <= hi, f"nu={nu} s={s}"

    def test_half_order_bracket_contains_pi(self):
        lo, hi = bessel_first_zeros_estimate(Order(0.5), 1).bracket()
        assert lo <= math.pi <= hi

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_first_zeros_estimate(Order(0.0), 1)
        with pytest.raises(DomainError):
            bessel_first_zeros_estimate(Order(1.0), 0)


class TestCenterGap:
    @given(st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_chain_holds(self, s):
        positive, below = center_gap_check(s)
        assert positive.holds and below.holds

    def test_stable_at_cancellation_scale(self):
        # by s = 48 the two centers agree to ~17 digits; the direct float
        # subtraction is pure noise there while the exact identity is not
        positive, below = center_gap_check(48)
        assert 0 < positive.rhs < below.rhs
        m = (12 * 48 - 3) * math.pi
        assert below.rhs == pytest.approx(25 / (3 * m ** 3 * (m * m + 40) ** (1 / 6)))


    def test_holds_up_to_the_cap(self):
        # the relative margin, about 1.9e-2/s^2, clears the float rounding up
        # to s = 10^6; a log grid, ten points a decade
        for k in range(61):
            s = round(10 ** (k / 10))
            positive, below = center_gap_check(s)
            assert positive.holds and below.holds, s
        assert s == zeros_module._GAP_S_CAP


class TestConjecture:
    @pytest.mark.parametrize("s", (1, 5, 50))
    def test_refined_below_closed_form(self, s):
        rep = conjecture_check(s)
        assert rep.name == "conjecture_zero_cap"
        assert rep.holds
        assert rep.lhs == pytest.approx(refine_airy_zero(s))

    def test_domain(self):
        with pytest.raises(DomainError):
            conjecture_check(51)
