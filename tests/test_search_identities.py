"""refine_root's secant stage, up to seven steps and then f at the ends of
the bisection cell the last iterate lies in, at the searches that call it:
they still return plain bisection's doubles (for the Bessel zeros, on the
Sturm cell and on the former 0.25 walk's cell alike), the premise that
makes them so holds at the roots they refine, and the oracle calls the
cell ends save stay saved."""

import math

import pytest

from besselcert import (
    Order,
    airy_ai_neg_ref,
    bessel_j_prime_ref,
    bessel_j_ref,
    bounds,
    leftmost_max_check,
    oracle,
    refine_airy_zero,
    refine_bessel_zero,
    refine_root,
    zeros,
)
from plain_bisection import plain_bisection
import search_calls

# 40 seeded (nu, s), nu in [-1/2, 60], s <= 12, and 8 seeded orders in [5/3, 40]
BESSEL_BATTERY = search_calls.BESSEL_BATTERY
LEFTMOST_ORDERS = search_calls.LEFTMOST_ORDERS


def _recording(monkeypatch, module):
    """Record the (f, bracket, tol, root) of every refine_root call module makes."""
    seen = []

    def record(f, bracket, tol):
        root = refine_root(f, bracket, tol)
        seen.append((f, bracket, tol, root))
        return root

    monkeypatch.setattr(module, "refine_root", record)
    return seen


def _counting(monkeypatch, module, name):
    """Record every abscissa module passes to its oracle function name."""
    seen = []
    fn = getattr(module, name)

    def counted(*args):
        seen.append(args[-1])
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return seen


def _walk_cell(f, nu, s):
    """The cell of the s-th sign change of the walk x_0 = max(nu, 0.05),
    x_k+1 = x_k + 0.25, with f sampled at min(x, 200)."""
    x = max(nu, 0.05)
    v = f(x)
    while not x > 200.0:
        nx = x + 0.25
        nv = f(min(nx, 200.0))
        if v * nv < 0:
            s -= 1
            if s == 0:
                return x, min(nx, 200.0)
        x, v = nx, nv
    raise AssertionError(f"the walk found fewer than s sign changes at nu = {nu}")


def _sturm_cell(f, order, s):
    """The cell [a, b] of the s-th sign change of f over the Sturm cells from
    a = max(nu, 0.05), each b = min(a + gap(a) - 1e-9, 200) with gap(a) = pi
    for |nu| >= 1/2 and pi/sqrt(1 + mu/a^2) below."""
    a = max(order.nu, 0.05)
    while a < 200.0:
        gap = math.pi if abs(order.nu) >= 0.5 else math.pi / math.sqrt(1 + order.mu / a ** 2)
        b = min(a + gap - 1e-9, 200.0)
        if f(a) * f(b) < 0:
            s -= 1
            if s == 0:
                return a, b
        a = b
    raise AssertionError(f"fewer than s sign changes at nu = {order.nu}")


def _leftmost_hp(order):
    """leftmost_max_check's hp as (value, error estimate), the estimate
    carried through hp's formula from those of J_nu and J'_nu."""
    mu = order.mu

    def hp(x):
        s = mu - x * x
        j, jp = bessel_j_ref(order, x), bessel_j_prime_ref(order, x)
        return (-0.5 * x * s ** -0.75 * j.value + s ** 0.25 * jp.value,
                0.5 * x * s ** -0.75 * j.abs_err_estimate + s ** 0.25 * jp.abs_err_estimate)
    return hp


def test_bessel_zeros_are_plain_bisections_on_their_sturm_cells(monkeypatch):
    # refine_root receives the half of the s-th sign change's Sturm cell
    # that its midpoint leaves the sign change in: plain bisection's first
    # step, so the double is plain bisection's on the cell, and also on the
    # former 0.25 walk's cell
    seen = _recording(monkeypatch, zeros)
    for nu, s in BESSEL_BATTERY:
        order = Order(nu)

        def f(t):
            return bessel_j_ref(order, t).value
        z = refine_bessel_zero(order, s)
        _, half, tol, _ = seen[-1]
        a, b = cell = _sturm_cell(f, order, s)
        m = 0.5 * (a + b)
        assert half == ((a, m) if (f(m) > 0) == (f(b) > 0) else (m, b)), (nu, s)
        assert z.hex() == plain_bisection(f, cell, tol).hex(), (nu, s)
        assert z.hex() == plain_bisection(f, _walk_cell(f, nu, s), tol).hex(), (nu, s)
    assert len(seen) == len(BESSEL_BATTERY)


def test_leftmost_maxima_are_plain_bisections_on_floor_to_hi(monkeypatch):
    # the bracket runs from the floor nu sqrt(1 - (2 nu)^(-2/3)) to
    # hi = nu sqrt(1 - (2 nu)^(-2/3)/2), both ends certified
    seen = _recording(monkeypatch, bounds)
    for nu in LEFTMOST_ORDERS:
        order = Order(nu)
        rep = leftmost_max_check(order)
        _, bracket, tol, _ = seen[-1]
        floor = nu * math.sqrt(1 - (2 * nu) ** (-2 / 3))
        hi = nu * math.sqrt(1 - 0.5 * (2 * nu) ** (-2 / 3))
        assert bracket == (floor, hi) and rep.lhs == floor and tol == 1e-10, nu
        hp = _leftmost_hp(order)
        xi = plain_bisection(lambda x: hp(x)[0], (floor, hi), 1e-10)
        assert rep.rhs.hex() == xi.hex(), nu
    assert len(seen) == len(LEFTMOST_ORDERS)


def test_airy_zeros_are_plain_bisections_on_their_brackets(monkeypatch):
    seen = _recording(monkeypatch, zeros)
    for s in range(1, 51):
        z = refine_airy_zero(s)
        f, bracket, tol, _ = seen[-1]
        assert bracket == zeros._airy_bracket(s), s
        assert z.hex() == plain_bisection(f, bracket, tol).hex(), s
    assert len(seen) == 50


@pytest.mark.parametrize("x_hi", (6.0, 14.0, 60.0))
def test_airy_crests_are_plain_bisections_on_their_humps(monkeypatch, x_hi):
    # each hump runs from 1e-3 (k = 0) or a_2k's upper bracket end to
    # a_2k+1's lower one, cut at x_hi
    seen = _recording(monkeypatch, bounds)
    reports = bounds.airy_envelope_maxima(x_hi)
    assert len(seen) == len(reports) // 2 == {6.0: 2, 14.0: 6, 60.0: 50}[x_hi]
    for k, (slope, hump, tol, xi) in enumerate(seen):
        lo = 1e-3 if k == 0 else zeros._airy_bracket(2 * k)[1]
        assert hump == (lo, min(x_hi, zeros._airy_bracket(2 * k + 1)[0])), k
        assert xi.hex() == plain_bisection(slope, hump, tol).hex(), k


def test_airy_zeros_evaluate_ai_only_inside_their_brackets(monkeypatch):
    seen = _counting(monkeypatch, zeros, "airy_ai_neg_ref")
    for s in range(1, 51):
        seen.clear()
        refine_airy_zero(s)
        lo, hi = zeros._airy_bracket(s)
        assert seen and all(lo <= x <= hi for x in seen), s


def _assert_sign_certain(evaluate, z, tol, margin):
    """f(z - tol/4) and f(z + tol/4) differ in sign, each |f| past margin
    times its error estimate: f's computed sign there is the true one."""
    (v_lo, e_lo), (v_hi, e_hi) = evaluate(z - tol / 4), evaluate(z + tol / 4)
    assert (v_lo > 0) != (v_hi > 0), z
    assert abs(v_lo) > margin * e_lo and abs(v_hi) > margin * e_hi, z


def test_the_sign_is_certain_a_quarter_tolerance_from_the_refined_roots():
    # the identity's second premise, f's computed sign right outside
    # [p, q], read a quarter tolerance from each root; Ai(-x)'s estimate charges the rounding of zeta
    # through |J'|, about 1.6e-14 at a_50, where |Ai| clears it 221 times,
    # so its margin is 100 where J's and hp's is 1e3
    def pair(r):
        return r.value, r.abs_err_estimate

    for nu, s in BESSEL_BATTERY:
        order = Order(nu)
        _assert_sign_certain(lambda t: pair(bessel_j_ref(order, t)),
                             refine_bessel_zero(order, s), 1e-11, 1e3)
    for nu in LEFTMOST_ORDERS:
        order = Order(nu)
        _assert_sign_certain(_leftmost_hp(order), leftmost_max_check(order).rhs, 1e-10, 1e3)
    for s in range(1, 51):
        _assert_sign_certain(lambda t: pair(airy_ai_neg_ref(t)), refine_airy_zero(s), 1e-11, 100)


def test_budget_fresh_bessel_zero(monkeypatch):
    oracle._j_series_fixed.cache_clear()
    seen = _counting(monkeypatch, zeros, "bessel_j_ref")
    refine_bessel_zero(Order(2.5), 3)
    assert len(seen) <= 16
    assert oracle._j_series_fixed.cache_info().misses <= 14


def test_budget_airy_zeros(monkeypatch):
    seen = _counting(monkeypatch, zeros, "airy_ai_neg_ref")
    for s in range(1, 51):
        seen.clear()
        refine_airy_zero(s)
        assert len(seen) <= 9, s


def test_budget_leftmost_max(monkeypatch):
    # hp at the floor and at hi, then refine_root on [floor, hi]: 13 calls,
    # two of them re-reading the ends from the oracle's cache, none of them
    # a bisection midpoint
    seen = _counting(monkeypatch, bounds, "bessel_j_ref")
    leftmost_max_check(Order(10.0))
    assert len(seen) == 13


@pytest.mark.parametrize("nu", [round(2.22 + 0.02 * k, 2) for k in range(15)])
def test_leftmost_maxima_near_nu_2_4_take_at_most_36_series(nu):
    # 6 secant steps stop short of the final bisection cell at these
    # orders, and bisection then evaluates 48-60 series; 7 reach it
    order = Order(nu)
    oracle._j_series_fixed.cache_clear()
    rep = leftmost_max_check(order)
    assert oracle._j_series_fixed.cache_info().misses <= 36
    hp = _leftmost_hp(order)
    hi = nu * math.sqrt(1 - 0.5 * (2 * nu) ** (-2 / 3))
    assert rep.rhs.hex() == plain_bisection(lambda x: hp(x)[0], (rep.lhs, hi), 1e-10).hex()
