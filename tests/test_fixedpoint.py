from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from besselcert import fixedpoint as fx

PI_40 = "3.141592653589793238462643383279502884197"
LN10_40 = "2.302585092994045684017991454684364207601"
E_40 = "2.718281828459045235360287471352662497757"


def rel_err(fixed_val, d, ref_str):
    return abs(Fraction(fixed_val, 10 ** d) / Fraction(ref_str) - 1)


def test_rdiv_rounds_half_away_from_zero():
    assert fx.rdiv(5, 2) == 3
    assert fx.rdiv(-5, 2) == -3
    assert fx.rdiv(7, 2) == 4
    assert fx.rdiv(1, 3) == 0
    assert fx.rdiv(2, 3) == 1


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 15))
def test_rdiv_is_nearest_integer(num, den):
    q = fx.rdiv(num, den)
    assert abs(Fraction(num, den) - q) <= Fraction(1, 2)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(25, 60))
def test_float_roundtrip(v, d):
    assert fx.to_float(fx.fix_from(v, d), d) == v


@given(st.fractions(min_value=-1000, max_value=1000), st.integers(20, 50))
def test_fix_from_rounds_to_half_ulp(q, d):
    f = fx.fix_from(q, d)
    assert abs(Fraction(f, 10 ** d) - q) <= Fraction(1, 2 * 10 ** d)


def test_pi_forty_digits():
    assert rel_err(fx.pi_fixed(40), 40, PI_40) < Fraction(1, 10 ** 39)


def test_ln10_forty_digits():
    assert rel_err(fx.ln10_fixed(40), 40, LN10_40) < Fraction(1, 10 ** 39)


def test_e_via_fexp():
    v = fx.fexp(fx.fix_from(1, 40), 40)
    assert rel_err(v, 40, E_40) < Fraction(1, 10 ** 39)


@given(st.integers(0, 10 ** 40))
def test_fsqrt_floor_property(a):
    d = 30
    r = fx.fsqrt(a, d)
    assert r * r <= a * 10 ** d < (r + 1) * (r + 1)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-20, max_value=20))
def test_ln_inverts_exp(a):
    # fln's 25 sqrt reductions amplify last-digit noise by 2^25, so the
    # round trip is good to ~10*2^25 units, 3.4e-37 absolute at d=45
    d = 45
    af = fx.fix_from(a, d)
    back = fx.fln(fx.fexp(af, d), d)
    assert abs(back - af) <= 10 * 2 ** 25


def test_rescale_both_directions():
    v = fx.fix_from(Fraction(1, 3), 30)
    up = fx.rescale(v, 30, 40)
    down = fx.rescale(up, 40, 30)
    assert down == v
    assert abs(Fraction(up, 10 ** 40) - Fraction(1, 3)) < Fraction(1, 10 ** 29)


def test_fmul_fdiv_inverse():
    d = 35
    a = fx.fix_from(Fraction(355, 113), d)
    b = fx.fix_from(Fraction(7, 40), d)
    prod = fx.fmul(a, b, d)
    back = fx.fdiv(prod, b, d)
    assert abs(back - a) <= 2
