import math
import os
from pathlib import Path
import random
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import besselcert.approx as approx_module
from besselcert import (
    DomainError,
    GridSpec,
    Order,
    airy_approx,
    airy_ai_neg_ref,
    bessel_j_ref,
    best_approx,
    classic_oscillatory,
    olver_coefficient,
    olver_expansion,
    phase_B,
    sharper_oscillatory,
    simplified_oscillatory,
    transition,
    transition_x,
    verify_approx_grid,
)

# first positive zero of Ai(-x), to well beyond double precision
AIRY_ZERO_1 = 2.338107410459767038489197252446735440639
# the first five zeros of Ai(-x), rounded to doubles
AIRY_ZEROS = (2.338107410459767, 4.087949444130971, 5.520559828095551,
              6.786708090071759, 7.944133587120853)


def _oracle_gap(order, x, a):
    r = bessel_j_ref(order, x)
    return abs(a.value - r.value), r.abs_err_estimate


def _refuse_the_airy_oracle(monkeypatch):
    """Make airy_ai_neg_ref raise wherever a besselcert module holds it."""
    def refuse(x):
        raise AssertionError(f"airy_ai_neg_ref({x!r}) was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "besselcert" and hasattr(module, "airy_ai_neg_ref"):
            monkeypatch.setattr(module, "airy_ai_neg_ref", refuse)


class TestClassic:
    def test_c_table_small_order(self):
        a = classic_oscillatory(Order(0.3), 2.0)
        mu = abs(0.3 ** 2 - 0.25)
        assert a.half_width == pytest.approx((2 / math.pi) ** 1.5 * mu * 2.0 ** -1.5)

    def test_c_table_above_sqrt_mu(self):
        order = Order(3.0)
        a = classic_oscillatory(order, 4.0)  # 4 > sqrt(8.75)
        assert a.half_width == pytest.approx(math.sqrt(2) / 2 * order.mu * 4.0 ** -1.5)

    def test_c_table_below_sqrt_mu(self):
        order = Order(3.0)
        a = classic_oscillatory(order, 2.0)  # 2 < sqrt(8.75)
        assert a.half_width == pytest.approx(1.25 * order.mu * 2.0 ** -1.5)

    def test_exact_at_half_order(self):
        # mu = 0: the main term IS J_{1/2} and the width collapses to zero
        order = Order(0.5)
        for x in (0.7, 3.0, 41.0):
            a = classic_oscillatory(order, x)
            assert a.half_width == 0.0
            gap, est = _oracle_gap(order, x, a)
            assert gap <= 5e-16 + est

    def test_certified_on_samples(self):
        for nu in (0.0, 1.0, 7.5):
            order = Order(nu)
            for x in (0.3, 2.0, 9.0, 80.0):
                a = classic_oscillatory(order, x)
                gap, est = _oracle_gap(order, x, a)
                assert gap <= a.half_width + est

    def test_domain(self):
        with pytest.raises(DomainError):
            classic_oscillatory(Order(0.0), 0.0)
        with pytest.raises(DomainError):
            classic_oscillatory(Order(-1.0), 1.0)


class TestOlver:
    def test_coefficients(self):
        assert olver_coefficient(0.0, 0) == 1.0
        assert olver_coefficient(0.0, 1) == pytest.approx(1 / 8)
        assert olver_coefficient(0.0, 2) == pytest.approx(9 / 128)
        # the expansion terminates at nu = 1/2
        for i in range(1, 8):
            assert olver_coefficient(0.5, i) == 0.0

    def test_coefficients_refuse_where_the_divisor_leaves_the_doubles(self):
        # 2^i i! leaves the doubles from i = 151 on; the refusal comes before
        # a loop of i steps, so a huge i refuses at once
        assert approx_module._OLVER_I_CAP == 151
        assert olver_coefficient(0.5, 150) == 0.0
        for i in (151, 10 ** 200):
            with pytest.raises(OverflowError):
                olver_coefficient(0.7, i)

    def test_huge_term_counts_refuse_at_once(self):
        # the width rule reads olver_coefficient(nu, 2 l1); a child process
        # runs the call, so that a loop of 2e200 steps ends at the timeout
        # rather than hanging the suite
        probe = ("import time\n"
                 "from besselcert import DomainError, Order, olver_expansion\n"
                 "t = time.perf_counter()\n"
                 "try:\n"
                 "    olver_expansion(Order(1e200), 1e6, 10**200, 10**200)\n"
                 "except DomainError as e:\n"
                 "    print(e)\n"
                 "print(time.perf_counter() - t)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", probe],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, timeout=10, check=True)
        message, seconds = out.stdout.splitlines()
        assert message == "olver_expansion: the width leaves the doubles"
        assert float(seconds) < 1

    def test_calibration_point(self):
        # the sign convention was fixed here once; certify it still holds
        order = Order(0.0)
        a = olver_expansion(order, 20.0, 3, 3)
        gap, est = _oracle_gap(order, 20.0, a)
        assert gap <= a.half_width + est
        assert gap <= 0.9 * a.half_width  # genuinely inside, not borderline

    def test_exact_at_half_order(self):
        order = Order(0.5)
        for x in (5.0, 17.3, 100.0):
            a = olver_expansion(order, x, 3, 3)
            assert a.half_width == 0.0
            gap, _ = _oracle_gap(order, x, a)
            assert gap <= 1e-13

    def test_truncation_preconditions(self):
        with pytest.raises(DomainError):
            olver_expansion(Order(10.0), 30.0, 1, 3)  # l1 < nu/2 - 1/4
        with pytest.raises(DomainError):
            olver_expansion(Order(10.0), 30.0, 5, 1)
        with pytest.raises(DomainError):
            olver_expansion(Order(-0.3), 30.0, 3, 3)
        with pytest.raises(DomainError):
            olver_expansion(Order(1.0), 0.0, 3, 3)

    @given(st.floats(0.0, 4.0), st.floats(5.0, 120.0))
    @settings(max_examples=25, deadline=None)
    def test_certified_property(self, nu, x):
        order = Order(nu)
        a = olver_expansion(order, x, 3, 3)
        gap, est = _oracle_gap(order, x, a)
        assert gap <= a.half_width + max(est, 1e-11)


class TestPhase:
    def test_low_branch_derivative(self):
        order = Order(0.2)
        h = 1e-6
        ph = phase_B(order, 3.0)
        fd = (phase_B(order, 3.0 + h).B - phase_B(order, 3.0 - h).B) / (2 * h)
        assert fd == pytest.approx(ph.b, abs=1e-7)
        assert ph.b == pytest.approx(math.sqrt(9 - 0.04 + 0.25) / 3.0)

    def test_high_branch_derivative(self):
        order = Order(4.0)
        h = 1e-6
        ph = phase_B(order, 9.0)
        fd = (phase_B(order, 9.0 + h).B - phase_B(order, 9.0 - h).B) / (2 * h)
        assert fd == pytest.approx(ph.b, abs=1e-7)

    def test_free_space_at_half_order(self):
        ph = phase_B(Order(0.5), 7.0)
        assert ph.B == 7.0 and ph.b == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phase_B(Order(0.0), 0.0)
        with pytest.raises(DomainError):
            phase_B(Order(4.0), 3.0)  # below sqrt(mu)


class TestSharperAndSimplified:
    def test_branches(self):
        assert sharper_oscillatory(Order(0.3), 5.0).method == "sharp_low"
        assert sharper_oscillatory(Order(3.0), 20.0).method == "sharp_high"
        with pytest.raises(DomainError):
            sharper_oscillatory(Order(3.0), 5.0)  # 5 < mu = 8.75
        with pytest.raises(DomainError):
            simplified_oscillatory(Order(0.7), 5.0)

    def test_certified_on_samples(self):
        for nu, xs in ((0.0, (0.5, 3.0, 40.0)), (1 / 3, (1.0, 12.0)),
                       (2.0, (4.1, 30.0)), (10.0, (101.0,))):
            order = Order(nu)
            for x in xs:
                a = sharper_oscillatory(order, x)
                gap, est = _oracle_gap(order, x, a)
                assert gap <= a.half_width + est

    def test_width_ordering(self):
        # sharp beats simplified beats classic once x clears the order
        for nu in (0.0, 1 / 3):
            order = Order(nu)
            for x in (5.0, 10.0, 50.0, 100.0):
                sharp = sharper_oscillatory(order, x).half_width
                simp = simplified_oscillatory(order, x).half_width
                classic = classic_oscillatory(order, x).half_width
                assert sharp < simp < classic

    def test_simplified_certified(self):
        order = Order(0.25)
        for x in (0.4, 2.0, 25.0):
            a = simplified_oscillatory(order, x)
            gap, est = _oracle_gap(order, x, a)
            assert gap <= a.half_width + est


class TestTransition:
    def test_eval_point(self):
        assert transition_x(Order(8.0), 1.5) == pytest.approx(8.0 + 2 * 1.5)

    def test_width_at_zero(self):
        a = transition(Order(25.0), 0.0)
        assert a.half_width == pytest.approx(23 / (2 * 25.0))

    def test_main_term_vanishes_at_first_airy_zero(self):
        z = 2 ** (-1 / 3) * AIRY_ZERO_1
        for nu in (1.0, 10.0):
            a = transition(Order(nu), z)
            assert abs(a.value) < 1e-9
            r = bessel_j_ref(Order(nu), transition_x(Order(nu), z))
            assert abs(r.value) <= a.half_width

    def test_certified_on_samples(self):
        for nu in (1.0, 5.0, 25.0):
            order = Order(nu)
            for z in (0.0, 0.8, 2.9):
                a = transition(order, z)
                r = bessel_j_ref(order, transition_x(order, z))
                assert abs(a.value - r.value) <= a.half_width + r.abs_err_estimate

    def test_domain(self):
        with pytest.raises(DomainError):
            transition(Order(0.4), 1.0)
        with pytest.raises(DomainError):
            transition(Order(2.0), -0.1)
        # ends with the Ai evaluator's domain, with its own message
        with pytest.raises(DomainError, match="transition"):
            transition(Order(1.0), 96.0)

    def test_cap_lies_inside_the_airy_domain(self):
        cap = approx_module._TRANSITION_Z_CAP
        assert math.isfinite(transition(Order(1.0), cap).value)
        with pytest.raises(DomainError, match="transition"):
            transition(Order(1.0), math.nextafter(cap, math.inf))

    def test_runs_without_the_airy_oracle(self, monkeypatch):
        _refuse_the_airy_oracle(monkeypatch)
        cap = approx_module._TRANSITION_Z_CAP
        for z in (0.0, 1.0, 4.0, 4.5, 30.0, cap):
            assert math.isfinite(transition(Order(10.0), z).value)
        # both sides of the series' end, up to x = 1 + 95 and 5 + 1.71 * 95
        rep = verify_approx_grid("transition", GridSpec((1.0, 5.0), (0.0, 95.0), 12, "linear"))
        assert (rep.total, rep.skipped, rep.violations) == (24, 0, ())

    def test_within_its_width_of_mpmath(self):
        # orders log-spaced to 1e3, plus two large ones: mpmath's J takes
        # about 0.1 s at nu = 3000 and 0.5 s at nu = 1e4
        rng = random.Random(21)
        cap = approx_module._TRANSITION_Z_CAP
        points = [(10 ** rng.uniform(math.log10(0.5), 3), cap * rng.random()) for _ in range(16)]
        points += [(3000.0, 60.0), (1e4, 1.5)]
        with mpmath.workdps(20):
            for nu, z in points:
                order = Order(nu)
                a = transition(order, z)
                truth = mpmath.besselj(nu, transition_x(order, z), maxprec=40000, maxterms=10 ** 6)
                assert abs(a.value - truth) <= a.half_width, (nu, z)


class TestAiryNeg:
    """approx._airy_neg: Ai(-t) in floats, with a bound that covers its rounding."""

    def test_within_its_bound_of_mpmath(self):
        T = approx_module._AIRY_SERIES_T
        t_cap = 2 ** (1 / 3) * approx_module._TRANSITION_Z_CAP
        rng = random.Random(21)
        ts = [0.0, *_ulps_around(T), *AIRY_ZEROS, t_cap]
        ts += [t_cap * rng.random() for _ in range(250)] + [T * rng.random() for _ in range(100)]
        with mpmath.workdps(25):
            for t in ts:
                value, bound = approx_module._airy_neg(t)
                assert abs(value - mpmath.airyai(-mpmath.mpf(t))) <= bound, t
                # the series' bound is small enough for the check to bite
                assert t > T or bound <= 1e-12, t

    def test_derivative_envelope(self):
        # transition charges the rounding of t through |Ai'(-t)| <= (1 + t)^(1/4)
        ts = [k / 10 for k in range(2001)]
        assert all(abs(mpmath.fp.airyai(-t, derivative=1)) <= (1 + t) ** 0.25 for t in ts)

    def test_starts_at_ai_of_zero(self):
        assert approx_module._airy_neg(0.0)[0] == float(mpmath.airyai(0))


class TestAiry:
    def test_sharp_width_at_ten(self):
        hw = airy_approx(10.0, "sharp").half_width
        assert hw == pytest.approx(2.7139520687421232e-06, rel=1e-12)
        assert hw < 1e-5

    def test_modes_certified(self):
        for mode in ("classic", "sharp", "simplified"):
            for x in (0.7, 3.0, 25.0, 59.0):
                a = airy_approx(x, mode)
                r = airy_ai_neg_ref(x)
                assert abs(a.value - r.value) <= a.half_width + r.abs_err_estimate

    def test_width_decays(self):
        xs = [1.0 * (100.0) ** (k / 999) for k in range(1000)]
        for mode in ("classic", "sharp", "simplified"):
            widths = [airy_approx(x, mode).half_width for x in xs]
            assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            airy_approx(0.0)
        with pytest.raises(DomainError):
            airy_approx(1.0, "bogus")


class TestBest:
    def test_picks_smallest_applicable(self):
        a = best_approx(Order(0.0), 10.0)
        assert a.method == "sharp_low"
        b = best_approx(Order(5.0), 100.0)
        assert b.method == "sharp_high"

    def test_never_wider_than_candidates(self):
        for nu, x in ((0.0, 2.0), (0.5, 9.0), (2.5, 40.0), (10.0, 10.5), (20.0, 150.0)):
            best = best_approx(Order(nu), x)
            assert best.half_width <= classic_oscillatory(Order(nu), x).half_width

    def test_total_on_positive_axis(self):
        for nu in (-0.5, 0.0, 1.0, 30.0):
            a = best_approx(Order(nu), 0.05)
            assert math.isfinite(a.value) and a.half_width >= 0

    def test_small_order_far_from_turning_point(self):
        # z = (x - nu)/nu^(1/3) is past the transition form's domain here;
        # best must drop that candidate rather than propagate its refusal
        a = best_approx(Order(1.0), 97.0)
        r = bessel_j_ref(Order(1.0), 97.0)
        assert a.method == "sharp_high"
        assert abs(a.value - r.value) <= a.half_width + max(r.abs_err_estimate, 1e-11)

    @given(st.floats(-0.5, 20.0), st.floats(0.5, 150.0))
    @settings(max_examples=30, deadline=None)
    def test_certified_property(self, nu, x):
        order = Order(nu)
        a = best_approx(order, x)
        gap, est = _oracle_gap(order, x, a)
        assert gap <= a.half_width + max(est, 1e-11)


_METHOD_ORDER = ("sharp_high", "sharp_low", "simplified", "olver", "classic", "transition")


def _evaluate_all(order, x):
    """Reference for best_approx: evaluate every applicable candidate and
    keep the narrowest, ties to the earlier method of _METHOD_ORDER."""
    candidates = [classic_oscillatory(order, x)]
    nu, mu = order.nu, order.mu
    if abs(nu) <= 0.5:
        candidates.append(sharper_oscillatory(order, x))
        candidates.append(simplified_oscillatory(order, x))
    elif x > max(mu, math.sqrt(mu)):
        candidates.append(sharper_oscillatory(order, x))
    if 0 <= nu <= 2.5:
        candidates.append(olver_expansion(order, x, 1, 1))
    if nu >= 0.5 and x >= nu:
        z = (x - nu) / nu ** (1 / 3)
        if z <= approx_module._TRANSITION_Z_CAP:
            candidates.append(transition(order, z))
    return min(candidates, key=lambda a: (a.half_width,
                                          _METHOD_ORDER.index(a.method)))


def _ulps_around(x, n=3):
    """x and its n floating-point neighbours on each side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _edge_points():
    """Where the candidate set or the ranking changes: every width 0 at
    |nu| = 1/2, the sharp_high threshold max(mu, sqrt(mu)), olver's last
    order 2.5, x = nu (z = 0) and z at the transition form's cap."""
    points = [(nu, x) for nu in (-0.5, 0.5)
              for x in (1e-3, 0.3, 0.5, 1.0, 7.0, 100.0, 199.0)]
    for nu in (0.75, 1.0, 1.2, 2.5, 5.0, 20.0, 45.0):
        mu = Order(nu).mu
        points += [(nu, x) for x in _ulps_around(max(mu, math.sqrt(mu)))]
    points += [(nu, x) for nu in _ulps_around(2.5, 1)
               for x in (0.05, 1.0, 2.5, 3.0, 10.0, 150.0)]
    points += [(nu, nu) for nu in (0.5, 1.0, 2.5, 20.0, 60.0)]
    for nu in (1.0, 40.0, 1e6):
        points += [(nu, x) for x in
                   _ulps_around(nu + nu ** (1 / 3) * approx_module._TRANSITION_Z_CAP)]
    return points


class TestBestRanking:
    def test_matches_evaluate_all_on_acceptance_grid(self):
        # the acceptance battery's STD_GRID
        grid = GridSpec((0.0, 1 / 3, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0), (0.1, 150.0), 200)
        for nu in grid.nu_values:
            order = Order(nu)
            for x in grid.x_values():
                assert best_approx(order, x) == _evaluate_all(order, x), (nu, x)

    def test_matches_evaluate_all_on_seeded_and_edge_points(self):
        rng = random.Random(8)
        points = [(rng.uniform(-0.5, 60.0), 200.0 * (1 - rng.random()))
                  for _ in range(1500)]
        points += [(rng.choice((-0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0, 20.0)),
                    200.0 * (1 - rng.random())) for _ in range(500)]
        edges = _edge_points()
        methods = set()
        for nu, x in points + edges:
            order = Order(nu)
            best = best_approx(order, x)
            assert best == _evaluate_all(order, x), (nu, x)
            methods.add(best.method)
        # simplified's width exceeds sharp_low's by (25/24)(1 + mu/x^2)^(5/4)
        assert methods == set(_METHOD_ORDER) - {"simplified"}
        # the edges exercise what they claim: an all-zero tie and both
        # sides of the transition cap
        assert best_approx(Order(0.5), 7.0).method == "sharp_low"
        capped = [best_approx(Order(nu), x).method for nu, x in edges if nu == 1e6]
        assert "transition" in capped and "classic" in capped

    def test_never_calls_the_airy_oracle(self, monkeypatch):
        _refuse_the_airy_oracle(monkeypatch)
        applicable = wins = 0
        for nu in (1.0, 5.0, 20.0, 1e6):
            order = Order(nu)
            for z in (0.0, 0.5, 2.0, 10.0, 60.0):
                a = best_approx(order, transition_x(order, z))
                applicable += 1
                wins += a.method == "transition"
        assert 0 < wins < applicable

    def test_every_candidate_returns_or_refuses_at_the_extremes(self):
        # best_approx evaluates each candidate and drops a refusal: every
        # argument builder and call must return or raise DomainError, losing
        # candidates included, never another error
        nus = (math.nan, -math.inf, -1.0, -0.5, -0.0, 0.0, 5e-324, 1e-300, 0.25, 0.5,
               2.5, 60.0, 1e6, 1e20, 1e154, 1e300, math.inf)
        xs = (math.nan, -1.0, 0.0, 5e-324, 1e-300, 3.14e-206, 1e-10, 0.5, 1.0, 60.0,
              1e10, 1e154, 1e300, 1.7e308, math.inf)
        returned = refused = 0
        for nu in nus:
            order = Order(nu)
            for x in xs:
                for function, *_, args_of in approx_module._CANDIDATES:
                    try:
                        a = getattr(approx_module, function)(*args_of(order, x))
                    except DomainError:
                        refused += 1
                    else:
                        assert math.isfinite(a.value) and a.half_width >= 0, (function, nu, x)
                        returned += 1
        assert returned and refused
