import decimal
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselcert import (
    airy_envelope_maxima,
    bound_log_derivative,
    bounds,
    leftmost_max_check,
    oracle,
    refine_bessel_zero,
    sonin_eval,
    zeros,
)
from besselcert.oracle import (
    DomainError,
    Order,
    PrecisionError,
    _j_prime_any,
    airy_ai_neg_prime_ref,
    airy_ai_neg_ref,
    bessel_j_prime_ref,
    bessel_j_ref,
    gamma,
    refine_root,
)
from plain_bisection import plain_bisection
from prefactor_reference import gamma_reference, prefactor_reference
from series_reference import series_reference

# 40-digit reference values from an independent high-precision summation
J_REF = {
    (0.0, 1.0): "0.7651976865579665514497175261026632209093",
    (0.0, 20.0): "0.1670246643405831547273205447013840388753",
    (0.0, 150.0): "-0.0007740903753942912469463482739369848064615",
    (1.0, 1.0): "0.4400505857449335159596822037189149131274",
    (-0.5, 1.0): "0.4310988680183760795205209672985334000881",
    (2.5, 7.5): "-0.299104052457313050802027750658280853106",
    (5.0, 5.0): "0.2611405461201700900548055385129185280567",
    (10.0, 10.5): "0.2477455375359274327149611494050776142159",
    (30.0, 30.0): "0.1439358500103072102934171000752590718187",
    (20.0, 150.0): "0.0634472409538619729332876395536808275345",
    (30.0, 200.0): "-0.05212227902988283204360751867456977684091",
    (0.5, 0.1): "0.2518929403260009526715629546451974880212",
}

AI_REF = {
    0.5: "0.4757280916105395887986437782813071504876",
    1.0: "0.5355608832923521187995165656388747074669",
    2.0: "0.2274074282016855759919244360378737994608",
    10.5: "-0.3119260350510506008546185721217066534523",
    44.0: "0.1203459607997602112870375849240456465795",
}

AI_ZERO_1 = 2.338107410459767038489197252446735440639
J_ZERO_0_1 = 2.404825557695772768621631879326454643124


def test_order_derived_fields():
    o = Order(0.5)
    assert o.mu == 0.0
    assert Order(-0.5).mu == 0.0
    assert Order(2.0).mu == 3.75
    assert math.isclose(o.omega, math.pi / 2, rel_tol=1e-15)
    assert Order(0.0).omega == pytest.approx(math.pi / 4, rel=1e-15)


def test_gamma_trivial_values():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 3e-16
    assert abs(gamma(2 / 3) / 1.354117939426400416945288028154513785519 - 1) < 1e-15


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)
    with pytest.raises(DomainError):
        gamma(64.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=60))
def test_gamma_functional_equation(z):
    # rounding of the argument z+1 enters through digamma, ~ln(z)*ulp(z)
    assert abs(gamma(z + 1) / (z * gamma(z)) - 1) < 1e-13


def test_bessel_reference_values():
    for (nu, x), s in J_REF.items():
        r = bessel_j_ref(Order(nu), x)
        ref = float(s)
        assert abs(r.value - ref) <= max(4e-16 * abs(ref), r.abs_err_estimate), (nu, x)
        assert r.abs_err_estimate <= 1e-12 * max(abs(r.value), 1e-10)


def test_bessel_small_x_limits():
    # J_0 -> 1 and J_1 -> x/2 as x -> 0
    assert abs(bessel_j_ref(Order(0.0), 1e-8).value - 1) < 1e-12
    assert abs(bessel_j_ref(Order(1.0), 1e-8).value - 5e-9) < 1e-20


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j_ref(Order(-0.6), 1.0)
    with pytest.raises(DomainError):
        bessel_j_ref(Order(0.0), 0.0)
    with pytest.raises(DomainError):
        bessel_j_ref(Order(0.0), 200.5)


def test_three_term_recurrence_residual():
    for nu in (0.0, 1 / 3, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0):
            # nu - 1 < -1/2 for the first two orders: center the identity at nu+1
            n = nu if nu >= 0.5 else nu + 1
            a = bessel_j_ref(Order(n - 1), x).value
            b = bessel_j_ref(Order(n + 1), x).value
            c = bessel_j_ref(Order(n), x).value
            assert abs(a + b - (2 * n / x) * c) <= 1e-11 * max(1.0, abs(c)), (nu, x)


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for k in range(41):
        x = 0.1 * (150 / 0.1) ** (k / 40)
        r = bessel_j_ref(Order(0.5), x)
        ref = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        assert abs(r.value - ref) <= 1e-12 * max(abs(ref), 1e-10), x


def test_value_at_order_brackets():
    # 2^{1/3}/(3^{2/3} Gamma(2/3)) * nu^{-1/3} bounds J_nu(nu) from above,
    # and the same expression at nu + 0.09434980 from below
    alpha = 0.09434980
    c = 2 ** (1 / 3) / (3 ** (2 / 3) * gamma(2 / 3))
    for nu in (1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        v = bessel_j_ref(Order(nu), nu).value
        assert c / (nu + alpha) ** (1 / 3) < v <= c / nu ** (1 / 3), nu


def test_prime_matches_finite_difference():
    h = 1e-6
    fd = (bessel_j_ref(Order(2.0), 3.0 + h).value
          - bessel_j_ref(Order(2.0), 3.0 - h).value) / (2 * h)
    assert abs(bessel_j_prime_ref(Order(2.0), 3.0).value - fd) < 1e-9


def test_prime_half_order_closed_form():
    # d/dx [sqrt(2/(pi x)) sin x] at x = pi is -sqrt(2)/pi
    r = bessel_j_prime_ref(Order(0.5), math.pi)
    assert abs(r.value + math.sqrt(2) / math.pi) < 1e-14


def test_prime_small_x_limit():
    assert abs(bessel_j_prime_ref(Order(1.0), 1e-8).value - 0.5) < 1e-12


def test_prime_domain():
    with pytest.raises(DomainError):
        bessel_j_prime_ref(Order(0.4), 1.0)


@pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
def test_non_finite_orders_are_domain_errors(nu):
    with pytest.raises(DomainError):
        bessel_j_ref(Order(nu), 1.0)
    with pytest.raises(DomainError):
        bessel_j_prime_ref(Order(nu), 1.0)


def test_finite_order_messages():
    with pytest.raises(DomainError, match=r"^bessel_j_ref: nu must be >= -1/2$"):
        bessel_j_ref(Order(-0.6), 1.0)
    with pytest.raises(DomainError, match=r"^bessel_j_prime_ref: nu must be >= 1/2$"):
        bessel_j_prime_ref(Order(0.4), 1.0)


def test_airy_reference_values():
    for x, s in AI_REF.items():
        r = airy_ai_neg_ref(x)
        ref = float(s)
        assert abs(r.value - ref) <= r.abs_err_estimate + 2e-16 * abs(ref), x


def test_airy_at_zero_analytic():
    r = airy_ai_neg_ref(0.0)
    assert abs(r.value - 0.355028053887817239260063186004183176398) < 1e-16


def test_airy_is_bessel_reconstruction_bit_for_bit():
    for x in (0.5, 1.0, 2.0, 7.3, 13.0, 20.0, 31.0, 40.0, 44.0):
        zeta = 2 * x ** 1.5 / 3
        rec = math.sqrt(x) / 3 * (bessel_j_ref(Order(-1 / 3), zeta).value
                                  + bessel_j_ref(Order(1 / 3), zeta).value)
        assert airy_ai_neg_ref(x).value == rec, x


def _airy_maclaurin(x: Fraction) -> Fraction:
    # Ai(-x) = Ai(0) F(x) + Ai'(0) G(x) with the two homogeneous solutions
    # F = sum t_k, t_k = -t_{k-1} x^3/((3k)(3k-1)), t_0 = 1
    # G = -sum u_k, u_k = -u_{k-1} x^3/((3k+1)(3k)), u_0 = x
    ai0 = Fraction("0.355028053887817239260063186004183176398")
    aip0 = Fraction("-0.2588194037928067984051835601892039634791")
    x3 = x ** 3
    t, f = Fraction(1), Fraction(1)
    u, g = x, x
    k = 1
    while True:
        t = -t * x3 / ((3 * k) * (3 * k - 1))
        u = -u * x3 / ((3 * k + 1) * (3 * k))
        f += t
        g += u
        if max(abs(t), abs(u)) < Fraction(1, 10 ** 35):
            break
        k += 1
    return ai0 * f + aip0 * (-g)


def test_airy_matches_independent_maclaurin():
    for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
        ref = float(_airy_maclaurin(x))
        got = airy_ai_neg_ref(float(x)).value
        assert abs(got - ref) <= 1e-12 * abs(ref), x


def test_airy_below_the_normal_zeta_range():
    # zeta = 2x^(3/2)/3 is 0 or subnormal below x = 1.04e-205, where the
    # origin limits stand in; on both sides every estimate is finite and
    # bounds the true error
    with mpmath.workdps(40):
        for k in range(161):
            x = 10.0 ** (k / 2 - 230)
            t = -mpmath.mpf(x)
            for r, truth in ((airy_ai_neg_ref(x), mpmath.airyai(t)),
                             (airy_ai_neg_prime_ref(x), -mpmath.airyai(t, derivative=1))):
                assert math.isfinite(r.abs_err_estimate), x
                assert abs(r.value - truth) <= r.abs_err_estimate, x


def test_airy_first_zero():
    assert abs(airy_ai_neg_ref(AI_ZERO_1).value) < 1e-10


def test_airy_domain():
    with pytest.raises(DomainError):
        airy_ai_neg_ref(-0.1)
    with pytest.raises(DomainError):
        airy_ai_neg_ref(120.5)


def test_airy_prime_matches_finite_difference():
    for x in (1.0, 5.0, 17.0):
        h = 1e-6
        fd = (airy_ai_neg_ref(x + h).value - airy_ai_neg_ref(x - h).value) / (2 * h)
        assert abs(airy_ai_neg_prime_ref(x).value - fd) < 1e-8, x


def test_airy_prime_reference_value():
    r = airy_ai_neg_prime_ref(1.0)
    assert abs(r.value - 0.01016056711664520939504546984535756184189) < 1e-15


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-0.5, max_value=30.0),
       st.floats(min_value=0.01, max_value=200.0))
def test_eval_result_error_contract(nu, x):
    r = bessel_j_ref(Order(nu), x)
    assert r.abs_err_estimate <= 1e-12 * max(abs(r.value), 1e-10)
    assert math.isfinite(r.value)


@pytest.mark.parametrize("v", [1.0, -1.0, 1e-20])
def test_refusal_at_the_target_line(v):
    # _certified adds the float rounding charge to the series estimate, then
    # refuses anything above 1e-12 * max(|v|, 1e-10)
    room = 1e-12 * max(abs(v), 1e-10) - oracle._FLOAT_ULP * abs(v) - math.ulp(0.0)
    assert oracle._certified(v, room * (1 - 1e-9)).value == v
    with pytest.raises(PrecisionError):
        oracle._certified(v, room * (1 + 1e-9))


def test_digit_cap_refuses():
    with pytest.raises(PrecisionError):
        oracle._digits_for(1200.0)


# large orders at moderate x, where 1/Gamma(nu+1) is below 1e-43: the sum
# must keep its digits whatever the size of the prefactor
LARGE_ORDER_REF = {
    (45.1, 40.0): "0.01535417607664667354565161272015873267396",
    (55.5, 60.0): "0.1555221570034730336385841630962102691459",
    (37.3, 40.0): "0.1991024272193686134383896560311064878267",
}


def test_large_order_reproductions():
    for (nu, x), s in LARGE_ORDER_REF.items():
        r = bessel_j_ref(Order(nu), x)
        assert abs(Fraction(r.value) - Fraction(s)) <= Fraction(r.abs_err_estimate), (nu, x)
        assert r.abs_err_estimate <= 1e-12 * abs(r.value)


def test_extreme_arguments():
    # J_60(0.05) ~ 9e-179 lies far below the series' working scale 10^-60
    assert bessel_j_ref(Order(60.0), 0.05).value == 9.041098925071988e-179
    tiny = 1e-300
    r = bessel_j_ref(Order(60.0), tiny)  # ~1e-18080: underflows to 0
    assert r.value == 0.0 and 0 < r.abs_err_estimate < 1e-300
    assert bessel_j_ref(Order(0.0), tiny).value == 1.0
    r = bessel_j_ref(Order(-0.5), tiny)
    ref = math.sqrt(2 / (math.pi * tiny))  # times cos(tiny) = 1
    assert abs(r.value - ref) <= r.abs_err_estimate + 2e-16 * ref


@pytest.mark.parametrize("nu, x", [(1e9, 1e-300), (1e7, 200.0), (1e300, 5e-324), (1e5, 1.0)])
def test_huge_orders_underflow_at_once(nu, x):
    # P underflows every double long before its exp would need a 2^-n
    # denominator of |nu ln(x/2)| bits; the results are those of the
    # decimal-exp oracle, whose exp underflowed to 0
    zero = oracle.EvalResult(0.0, 5e-324)
    assert bessel_j_ref(Order(nu), x) == zero
    assert bessel_j_prime_ref(Order(nu), x) == zero
    assert oracle._prefactor(nu.as_integer_ratio(), x) == (0, 1)
    assert oracle._exp_ratio(-10 ** 5 * oracle._LN2) != (0, 1)


def test_seeded_mpmath_audit():
    # every value lies within its own estimate, or the call refuses
    rng = random.Random(7)
    cases = []
    for i in range(150):
        prime = i % 2
        nu = rng.uniform(0.5 if prime else -0.5, 60)
        x = 200 * (1 - rng.random())
        cases.append((bessel_j_prime_ref if prime else bessel_j_ref, (Order(nu), x),
                      lambda nu=nu, x=x, prime=prime: mpmath.besselj(nu, x, prime)))
    for _ in range(40):
        x = rng.uniform(0, 120)
        cases.append((airy_ai_neg_ref, (x,), lambda x=x: mpmath.airyai(-x)))
        cases.append((airy_ai_neg_prime_ref, (x,), lambda x=x: -mpmath.airyai(-x, 1)))
    refused = 0
    with mpmath.workdps(50):
        for f, args, truth in cases:
            try:
                r = f(*args)
            except PrecisionError:
                refused += 1
                continue
            assert abs(mpmath.mpf(r.value) - truth()) <= r.abs_err_estimate, (f.__name__, args)
    assert refused < len(cases) // 10


def test_j_prime_below_one_half_against_mpmath():
    # _j_prime_any's lower recurrence (nu/x) J_nu - J_{nu+1}, which
    # bound_log_derivative and sonin_eval("szego") read: within its estimate
    # wherever it is finite; where (nu/x) J_nu overflows, both callers refuse
    rng = random.Random(24)
    nus = [-0.5, -1 / 3, -0.25, 0.0, 0.25, 1 / 3, math.nextafter(0.5, 0)]
    nus += [rng.uniform(-0.5, 0.5) for _ in range(4)]
    xs = [5e-324, 1e-300, 1e-100, 1e-10, 0.5, 10.0, 150.0, 200.0]
    xs += [200 * (1 - rng.random()) for _ in range(25)]
    checked = refused = 0
    with mpmath.workdps(50):
        for nu in nus:
            order = Order(nu)
            for x in xs:
                try:
                    r = _j_prime_any(order, x)
                except PrecisionError:
                    refused += 1
                    continue
                if math.isfinite(r.value):
                    truth = mpmath.besselj(nu, x, 1)
                    assert abs(mpmath.mpf(r.value) - truth) <= r.abs_err_estimate, (nu, x)
                    checked += 1
                else:
                    with pytest.raises(DomainError):
                        bound_log_derivative(order, x)
                    with pytest.raises(DomainError):
                        sonin_eval("szego", order, x)
    assert checked > 0.9 * len(nus) * len(xs) and refused < len(nus) * len(xs) // 10


def test_refine_root_cos():
    assert abs(refine_root(math.cos, (1.0, 2.0), 1e-12) - math.pi / 2) < 1e-12


def test_refine_root_bessel_zero():
    r = refine_root(lambda t: bessel_j_ref(Order(0.0), t).value, (2.0, 3.0), 1e-12)
    assert abs(r - J_ZERO_0_1) < 1e-11


def test_refine_root_airy_zero():
    r = refine_root(lambda t: airy_ai_neg_ref(t).value, (2.0, 3.0), 1e-12)
    assert abs(r - AI_ZERO_1) < 1e-11


def test_refine_root_no_sign_change():
    with pytest.raises(ValueError):
        refine_root(lambda t: t * t + 1, (0.0, 1.0), 1e-10)


@pytest.mark.parametrize("root", [1.0, 3.0, 2.0, 2.5])
def test_refine_root_returns_an_exact_zero(root):
    # at lo, at hi, at the first midpoint and at the second
    assert refine_root(lambda t: t - root, (1.0, 3.0), 1e-12) == root


def test_refine_root_budget():
    # width 0 from (0, 1e300) takes about 1000 halvings, past the 200-step budget
    with pytest.raises(PrecisionError, match="^refine_root: iteration budget exhausted$"):
        refine_root(lambda t: t - 1.0, (0.0, 1e300), 0.0)


def test_refine_root_returns_plain_bisections_double_at_its_callers():
    # each caller's lemma gives one sign change per bracket, so the midpoints
    # refine_root decides without a call must not move a bit: seeded Bessel
    # zeros, the two in the last cell below the cap and the last admitted
    # index, the Airy envelope's crests to x = 14 and seeded leftmost maxima
    rng = random.Random(19)
    zero_args = [(rng.uniform(-0.5, 60), rng.randint(1, 30)) for _ in range(12)]
    zero_args += [(1.76, 63), (-0.25, 64), (-0.5, 64)]
    left_orders = [rng.uniform(5 / 3, 40) for _ in range(8)]

    def callers():
        return ([refine_bessel_zero(Order(nu), s).hex() for nu, s in zero_args]
                + [(r.lhs.hex(), r.rhs.hex()) for r in airy_envelope_maxima(14.0)]
                + [leftmost_max_check(Order(nu)).rhs.hex() for nu in left_orders])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(zeros, "refine_root", plain_bisection)
        m.setattr(bounds, "refine_root", plain_bisection)
        want = callers()
    assert callers() == want


@pytest.mark.parametrize("bracket", [(math.pi / 2 - 4e-13, math.pi / 2 + 4e-13),
                                     (math.pi / 2, math.nextafter(math.pi / 2, 2))],
                         ids=["narrower_than_tol", "adjacent_doubles"])
def test_refine_root_keeps_plain_bisections_result_on_degenerate_brackets(bracket):
    # no bisection step; a reversed bracket is refused (test_domains.py)
    assert refine_root(math.cos, bracket, 1e-12) == plain_bisection(math.cos, bracket, 1e-12)


def _recorded(f):
    """f, and the dict of every point it was evaluated at and its value."""
    calls = {}

    def g(t):
        calls[t] = f(t)
        return calls[t]
    return g, calls


def _random_sign(seed, lo, hi):
    """f and its bracket: -1 at lo, +1 at hi and a seeded coin at every other
    t, so no point's sign follows from its neighbours'."""
    def f(t):
        if t in (lo, hi):
            return 1.0 if t == hi else -1.0
        return random.Random(f"{seed} {t!r}").choice((-1.0, 1.0))
    return f, (lo, hi)


# (f, bracket, tol) where f changes sign more than once, so the result may be
# another sign change than plain bisection's
SIGN_CHANGES = [
    (math.sin, (0.5, 10.0), 1e-12),
    (lambda t: math.sin(1 / t), (0.01, 1.0), 1e-12),
    (lambda t: math.cos(40 * t) + 0.5, (0.0, 1.5), 1e-10),
    *((*_random_sign(seed, 0.0, 1.0), 1e-9) for seed in range(12)),
]
# and f with one sign change
ONE_SIGN_CHANGE = [
    (math.cos, (1.0, 2.0), 1e-12),
    (lambda t: bessel_j_ref(Order(0.0), t).value, (2.0, 3.0), 1e-12),
    (lambda t: airy_ai_neg_ref(t).value, (2.0, 3.0), 1e-12),
    (lambda t: t - 2.5, (1.0, 3.0), 1e-12),
    (lambda t: t - 1.3, (1.0, 3.0), 1e-12),
]


@pytest.mark.parametrize("f, bracket, tol", SIGN_CHANGES)
def test_refine_root_lands_on_a_sign_change_of_fs_values(f, bracket, tol):
    g, calls = _recorded(f)
    r = refine_root(g, bracket, tol)
    assert calls[r] == 0 or any(a <= r <= b and b - a <= tol and (calls[a] > 0) != (calls[b] > 0)
                                for a in calls for b in calls)


@pytest.mark.parametrize("f, bracket, tol", SIGN_CHANGES + ONE_SIGN_CHANGE)
def test_refine_root_returns_a_point_it_evaluated(f, bracket, tol):
    # airy_envelope_maxima reads both Ai values at the crest from the cache
    g, calls = _recorded(f)
    assert refine_root(g, bracket, tol) in calls


def test_import_loads_no_numpy():
    # the package is pure Python; numpy would add ~100 ms to every start
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import besselcert, sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "False"


def _clear_oracle_caches():
    for f in (oracle._ln_gamma, oracle._ln_small, oracle._exp_table, oracle._j_series_fixed,
              bounds._gauss_legendre):
        f.cache_clear()


def _oracle_outputs():
    return (bessel_j_ref(Order(2.5), 10.0), bessel_j_prime_ref(Order(7.25), 33.0),
            airy_ai_neg_ref(0.0), airy_ai_neg_prime_ref(0.0), airy_ai_neg_prime_ref(7.3),
            gamma(2 / 3), bounds.lemma_integral_check(3.0),
            bessel_j_ref(Order(60.0), 1e-300),
            # the exact fixed-point values behind the doubles
            oracle._HALF_LN_2PI, oracle._prefactor((5, 2), 10.0), oracle._ln_gamma(1, 3),
            oracle._ln_gamma(*(60.25).as_integer_ratio()), oracle._ln_int(10 ** 40 + 7),
            oracle._ln_half(0.7), oracle._exp_ratio(-3 << oracle._FB),
            # the Bernoulli table built at import, rebuilt here
            oracle._bernoulli_numbers(32))


def test_a_hostile_decimal_context_changes_no_oracle_output(monkeypatch):
    # no oracle path uses decimal: a coarse, floor-rounding, Inexact-trapping
    # global context (and DefaultContext) changes no output and sets no flag
    _clear_oracle_caches()
    expected = _oracle_outputs()
    _clear_oracle_caches()
    monkeypatch.setattr(decimal.DefaultContext, "prec", 3)
    monkeypatch.setattr(decimal.DefaultContext, "rounding", decimal.ROUND_FLOOR)
    hostile = decimal.Context(prec=3, rounding=decimal.ROUND_FLOOR,
                              traps=[decimal.Inexact, decimal.InvalidOperation])
    try:
        with decimal.localcontext(hostile) as ctx:
            assert _oracle_outputs() == expected
            assert not any(ctx.flags.values())
    finally:
        _clear_oracle_caches()


def test_bernoulli_table_against_mpmath():
    # B_0 to B_32 as reduced pairs, behind Stirling's and the trigamma
    # coefficients; mpmath takes B_1 = -1/2, as the recurrence does
    assert oracle._BERNOULLI == tuple(tuple(map(int, mpmath.bernfrac(m))) for m in range(33))


def test_half_ln_2pi_and_ln_gamma_against_mpmath():
    # ln(2 pi)/2 and the cached ln Gamma(z) to 10^(2-40) relative: from z = 30
    # on _ln_gamma is Stirling's ln Gamma(w) itself, below it passes through
    # the ln of the exact shift product prod_{i<k} (z+i)
    g = 40
    zs = [Fraction(1, 3), Fraction(2, 3), Fraction(7, 2), Fraction(61), Fraction(1001, 2)]
    zs += [Fraction(nu + 1) for nu in (1e3, 1e6, 1e9)]
    with mpmath.workdps(g + 30):
        scale = mpmath.mpf(2) ** oracle._FB
        truth = mpmath.log(2 * mpmath.pi) / 2
        assert abs(oracle._HALF_LN_2PI / scale / truth - 1) <= mpmath.mpf(10) ** (2 - g)
        for z in zs:
            truth = mpmath.loggamma(mpmath.mpf(z.numerator) / z.denominator)
            assert abs(oracle._ln_gamma(z.numerator, z.denominator) / scale / truth - 1) <= (
                mpmath.mpf(10) ** (2 - g)), z


def test_prefactor_against_mpmath():
    # (x/2)^nu / Gamma(nu+1) to 1e-34 relative, from x = 1e-300 to the Airy
    # paths' largest zeta, 2 * 120^(3/2) / 3 = 876
    rng = random.Random(11)
    points = [(60.0, 1e-300), (60.0, 876.0), (-0.5, 1e-300), (-1 / 3, 876.0), (0.0, 876.0)]
    for i in range(300):
        nu = rng.choice((0.0, 1 / 3, 2 / 3, 0.5, 2.5, 10.0)) if i % 5 == 0 else rng.uniform(-0.5, 60)
        x = 10 ** rng.uniform(-300, 0) if i % 4 == 0 else 876 * (1 - rng.random())
        points.append((nu, x))
    with mpmath.workdps(60):
        for nu, x in points:
            num, den = oracle._prefactor(nu.as_integer_ratio(), x)
            nu_mp = mpmath.mpf(nu)
            truth = mpmath.exp(nu_mp * mpmath.log(mpmath.mpf(x) / 2) - mpmath.loggamma(nu_mp + 1))
            assert abs(mpmath.mpf(num) / den / truth - 1) <= mpmath.mpf("1e-34"), (nu, x)


def test_ln_half_against_mpmath():
    # fixed-point ln(x/2) within 1e-36 absolute over the whole double range
    rng = random.Random(13)
    xs = [5e-324, 1e-320, 2.5e-312, 2.2250738585072014e-308, 876.0, 1023.0, 1024.0, 1025.0]
    xs += [2.0 ** k for k in range(-1074, 10, 61)] + [float(n) for n in range(1, 1024)]
    xs += [10 ** rng.uniform(-323, math.log10(876)) for _ in range(200)]
    with mpmath.workdps(70):
        scale = mpmath.mpf(2) ** oracle._FB
        for x in xs:
            truth = mpmath.log(mpmath.mpf(x) / 2)
            assert abs(oracle._ln_half(x) / scale - truth) <= mpmath.mpf("1e-36"), x


def test_exp_ratio_against_mpmath():
    # exp(y) within 1e-35 relative for y in [-5e4, 2e3], y in fixed point
    rng = random.Random(17)
    one = 1 << oracle._FB
    ys = [0, 1, -1, one, -one, 2000 * one, -50000 * one]
    ys += [rng.randrange(-50000 * one, 2000 * one) for _ in range(300)]
    ys += [rng.randrange(-one, one) for _ in range(100)]
    with mpmath.workdps(70):
        for y in ys:
            num, den = oracle._exp_ratio(y)
            truth = mpmath.exp(mpmath.mpf(y) / one)
            assert abs(mpmath.mpf(num) / den / truth - 1) <= mpmath.mpf("1e-35"), y


def test_tables_and_constants_against_mpmath():
    # every ln h and exp(i/256) table entry, ln 2 and ln(2 pi)/2, each from
    # the integer series, within 1e-45 absolute of 80-digit mpmath
    with mpmath.workdps(80):
        scale = mpmath.mpf(2) ** oracle._FB
        tol = mpmath.mpf("1e-45")

        def close(fixed, truth):
            return abs(fixed / scale - truth) <= tol

        assert close(oracle._LN2, mpmath.log(2))
        assert close(oracle._HALF_LN_2PI, mpmath.log(2 * mpmath.pi) / 2)
        for h in range(1, 1024):
            assert close(oracle._ln_small(h), mpmath.log(h)), h
        for i in range(178):
            assert close(oracle._exp_table(i), mpmath.exp(mpmath.mpf(i) / 256)), i


def test_series_cache_hits_build_no_fraction():
    # orders travel as integer pairs, so a repeated call is a pure cache
    # hit; J'_nu evaluates J_{nu+1}, whose exact order is then the key of
    # a later J_{nu+1} call.  The oracle names no Fraction at all (see
    # test_hygiene), so no cache hit can build one
    first = bessel_j_ref(Order(7.3), 12.5)
    bessel_j_prime_ref(Order(4.75), 9.125)
    misses = oracle._j_series_fixed.cache_info().misses
    assert bessel_j_ref(Order(7.3), 12.5) == first
    bessel_j_ref(Order(5.75), 9.125)
    assert oracle._j_series_fixed.cache_info().misses == misses


def test_a_cache_hit_returns_the_cached_result_itself():
    # the cache holds the finished EvalResult: a hit does no float
    # arithmetic and builds no object
    first = bessel_j_ref(Order(2.5), 10.0)
    assert bessel_j_ref(Order(2.5), 10.0) is first


def test_a_refusal_is_not_cached(monkeypatch):
    # the refusal raises inside the cached call, so a repeat reruns the
    # series and refuses again with the same message
    monkeypatch.setattr(oracle, "_TARGET_REL_ERR", 1e-40)
    messages = []
    for _ in range(2):
        misses = oracle._j_series_fixed.cache_info().misses
        with pytest.raises(PrecisionError) as info:
            bessel_j_ref(Order(3.171875), 17.4453125)
        assert oracle._j_series_fixed.cache_info().misses == misses + 1
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "series error estimate exceeds the 1e-12 target"


# Hankel's expansion, which answers for the Airy paths' orders past zeta = 200
AIRY_ORDERS = (oracle._NU_M13, oracle._NU_13, oracle._NU_23, oracle._NU_43)
_HANKEL_RNG = random.Random(22)
HANKEL_ZETAS = ([_HANKEL_RNG.uniform(200.0, 876.0) for _ in range(40)]
                + [math.nextafter(200.0, 876.0), 876.0])


def _series(nu, x):
    """The series' own certified result, the Hankel path off and the cache passed by."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_j_hankel", lambda nu, x: None)
        return oracle._j_series_fixed.__wrapped__(nu, x)


def _ziv(nu, x):
    """The double both ends of the Hankel enclosure round to, or None."""
    v, radius = oracle._j_hankel(nu, x)
    one = 1 << oracle._FB
    return (v - radius) / one if (v - radius) / one == (v + radius) / one else None


def test_hankel_gives_the_series_double_and_encloses_mpmath():
    with mpmath.workdps(60):
        for x in HANKEL_ZETAS:
            for p, r in AIRY_ORDERS:
                v, radius = oracle._j_hankel((p, r), x)
                truth = mpmath.besselj(mpmath.mpf(p) / r, x)
                assert abs(v - truth * 2 ** oracle._FB) <= radius, (p / r, x)
                value = _ziv((p, r), x)
                assert value == _series((p, r), x).value, (p / r, x)
                assert oracle._j_series_fixed((p, r), x) == oracle._certified(
                    value, radius / 2 ** oracle._FB)


@pytest.mark.parametrize("bits", [64, 100])
def test_hankel_radius_holds_at_fewer_bits(monkeypatch, bits):
    # the radius is derived per ulp, so it must enclose J at any width
    monkeypatch.setattr(oracle, "_FB", bits)
    with mpmath.workdps(60):
        for x in HANKEL_ZETAS[:10] + [100.0]:
            for p, r in AIRY_ORDERS:
                v, radius = oracle._j_hankel((p, r), x)
                truth = mpmath.besselj(mpmath.mpf(p) / r, x)
                assert abs(v - truth * 2 ** bits) <= radius, (p / r, x)


def test_hankel_gives_the_series_double_on_the_overlap():
    # below the public cap the series answers; the helper, called directly,
    # names the same doubles down to zeta = 100
    rng = random.Random(23)
    for x in [rng.uniform(100.0, 200.0) for _ in range(12)] + [100.0, 200.0]:
        for nu in AIRY_ORDERS:
            assert _ziv(nu, x) == oracle._j_series_fixed(nu, x).value, (nu, x)


def test_hankel_declines_where_its_terms_stop_halving():
    # near zeta = 60 the ratio k/(2 zeta) passes 1/2 before a term vanishes
    for nu in AIRY_ORDERS:
        assert oracle._j_hankel(nu, 60.0) is None
        assert oracle._j_hankel(nu, 100.0) is not None


def test_cos_sin_within_its_error():
    rng = random.Random(24)
    one = 1 << oracle._FB
    half_pi = mpmath.pi / 2
    with mpmath.workdps(60):
        for f in [0, 1, one // 4, one, int(half_pi * one) - 1] + [
                int(rng.random() * half_pi * one) for _ in range(40)]:
            c, s, err = oracle._cos_sin(f)
            t = mpmath.mpf(f) / one
            assert abs(c - mpmath.cos(t) * one) <= err and abs(s - mpmath.sin(t) * one) <= err
            assert err <= 100, f


def test_a_straddling_enclosure_falls_back_to_the_series(monkeypatch):
    # a radius of 2^150 ulp puts a rounding boundary inside the enclosure
    hankel = oracle._j_hankel
    monkeypatch.setattr(oracle, "_j_hankel", lambda nu, x: (hankel(nu, x)[0], 1 << 150))
    for x in HANKEL_ZETAS[:3]:
        for nu in AIRY_ORDERS:
            assert oracle._j_series_fixed.__wrapped__(nu, x) == _series(nu, x)


@pytest.mark.parametrize("airy", [airy_ai_neg_ref, airy_ai_neg_prime_ref])
def test_airy_past_zeta_200_runs_no_series(monkeypatch, airy):
    # zeta = 666.7 at x = 100: a fresh call is answered by Hankel's expansion
    def no_series(x):
        raise AssertionError(f"series run at x = {x}")

    oracle._j_series_fixed.cache_clear()
    monkeypatch.setattr(oracle, "_digits_for", no_series)
    assert math.isfinite(airy(100.0).value)


def _series_outcome(series, nu, x):
    """The series' EvalResult as float.hex strings, or its refusal's message."""
    try:
        result = series(nu, x)
    except PrecisionError as exc:
        return str(exc)
    return result.value.hex(), result.abs_err_estimate.hex()


# orders by (p, r): -1/2, the doubles nearest -+1/3, 0, 1/2, 2.5, 59.5, and
# 5e-324, whose r = 2^1074 dwarfs 4 b^2; x = 10 has b = 1, and the zetas reach
# the Airy paths' 876 at x = 120
SERIES_ORDERS = [(-1, 2), oracle._NU_M13, oracle._NU_13, (0, 1), (1, 2), (5, 2), (119, 2),
                 (5e-324).as_integer_ratio()]
_SERIES_RNG = random.Random(27)
SERIES_XS = ([5e-324, 1e-300, 10.0, 200.0, 876.0]
             + [_SERIES_RNG.uniform(200.0, 876.0) for _ in range(2)])


@pytest.mark.parametrize("raw", [False, True])
def test_series_split_returns_the_former_loops_result(monkeypatch, raw):
    # the split divisor and the two phases sum the same u_j to the same j
    # and tmax: the EvalResult is the former loop's bit for bit.  Its float
    # rounding charge swamps the series' own (3j + 20) tmax term, so raw
    # passes that term through _certified unchanged, and a j or tmax off shows
    monkeypatch.setattr(oracle, "_j_hankel", lambda nu, x: None)
    if raw:
        monkeypatch.setattr(oracle, "_certified", oracle.EvalResult)
    points = [(nu, x) for nu in SERIES_ORDERS for x in SERIES_XS]
    # a term at t = floor(a^2 r / 4 b^2) exactly, with the ratio above 1:
    # the last rising term, t = 25, 21 and 52
    points += [((0, 1), 10.1), ((1, 2), 6.5), ((5, 2), 10.2)]
    rng = random.Random(2011)
    points += [(rng.uniform(-0.5, 60.0).as_integer_ratio(),
                rng.choice((rng.uniform(0.0, 200.0), 10 ** rng.uniform(-300, 2))))
               for _ in range(300)]
    for nu, x in points:
        assert (_series_outcome(oracle._j_series_fixed.__wrapped__, nu, x)
                == _series_outcome(series_reference, nu, x)), (nu, x)


def test_series_split_refuses_at_the_same_term_cap(monkeypatch):
    # every cap from 1 to two past the first that sums: both refuse exactly
    # while the first 0 falls at j >= _TERM_CAP, whichever phase and parity
    # it falls in
    for nu, x in (((0, 1), 10.0), ((5, 2), 0.5), ((1, 2), 30.0), (oracle._NU_13, 3.7),
                  ((119, 2), 150.0), ((1, 2), 1e-300)):
        cap, summed = 1, 0
        while summed < 3:
            monkeypatch.setattr(oracle, "_TERM_CAP", cap)
            expected = _series_outcome(series_reference, nu, x)
            assert _series_outcome(oracle._j_series_fixed.__wrapped__, nu, x) == expected, (
                nu, x, cap)
            summed += isinstance(expected, tuple)
            cap += 1
        assert cap > 4, (nu, x)  # the first cap that sums is past 1


def test_prefactor_returns_its_references_doubles(monkeypatch):
    # P as one exponential of nu ln(x/2) - ln Gamma(nu+1) against the former
    # (ln Gamma(w), num, den) prefactor: _j_series_fixed composes each series
    # with either prefactor, and every double and refusal is the same.  The
    # Hankel path is off, so zeta up to 876 runs the series
    monkeypatch.setattr(oracle, "_j_hankel", lambda nu, x: None)
    rng = random.Random(3811)
    orders = [(k, 1) for k in range(61)] + [(k, 2) for k in range(-1, 120, 2)] + list(AIRY_ORDERS)
    # x log-spaced from 1e-300, or uniform in (0, 200] (a third: their long
    # series set the test's time)
    points = [(rng.choice(orders) if i % 3 == 0 else rng.uniform(-0.5, 60.0).as_integer_ratio(),
               200 * (1 - rng.random()) if i % 2 and rng.random() < 2 / 3
               else 10 ** rng.uniform(-300, math.log10(200)))
              for i in range(5000)]
    points += [(nu, x) for nu in AIRY_ORDERS for x in (rng.uniform(200.0, 876.0), 876.0)]
    series = oracle._j_series_fixed.__wrapped__
    got = [_series_outcome(series, *point) for point in points]
    monkeypatch.setattr(oracle, "_prefactor", prefactor_reference)
    for point, outcome in zip(points, got):
        assert outcome == _series_outcome(series, *point), point
    # Gamma(z) = exp(ln Gamma(z)) against the former exp(ln Gamma(w)) den/num
    zs = [rng.uniform(0.0, 64.0) for _ in range(307)] + [10 ** rng.uniform(-308, 1.8)
                                                         for _ in range(170)]
    zs += [k / 3 for k in range(1, 11)] + [k / 2 for k in range(1, 21, 2)] + [1.0, 2.0, 63.0]
    for z in zs:
        assert oracle.gamma(z) == gamma_reference(z), z
