"""The Sonin lemmas behind bounds.sonin_eval, as exact rational identities.

Each variant's S = y^2 + W y'^2 takes y from a second-order equation y'' +
p y' + q y = 0 (Bessel's or Airy's, after y = g(x) times the classical
solution).  Then

    dS/dx = 2 y y' (1 - W q) + y'^2 (W' - 2 p W),

so S is monotone once W q = 1 and W' - 2 p W is the factored form the table
gives, each factor of a stated sign on the variant's domain.  Both are
identities of rational functions of x and a parameter m (mu for the Bessel
variants, the offset c for the Airy one); cleared of denominators they are
polynomials of at most the degrees the table states, so vanishing on a grid
one point wider than those degrees in each variable makes them identities.
The identities' arithmetic is fractions.Fraction; sympy decides each
factor's sign exactly.  The Airy identities hold for every c; only its sign
step uses 16 c^3 = 15, with c exact in sympy and x a nonnegative symbol.  S's limit 2/pi at infinity (DLMF 10.17.3) is
cited, not checked.

A row holds: the equation's p and q, the weight W and its derivative (by
the quotient rule), the factors of W' - 2 p W with their signs, the degree
bounds, points inside the domain, and the order and x at which the
package's S is compared with the row's, so a row cannot describe some
other S.  sympy, called with the row's own functions on symbols, checks
the hand derivations: W' and the p, q that y = g(x) y0 gives, for y0'' +
P y0' + Q y0 = 0, as p = P - 2 g'/g and q = Q - P g'/g - g''/g + 2 (g'/g)^2.
"""

from fractions import Fraction as F
import math
import random

import pytest
import sympy

from besselcert import Order, airy_ai_neg_prime_ref, airy_ai_neg_ref, bessel_j_ref
from besselcert import bounds as bounds_module
from besselcert.oracle import _j_prime_any


def _envelope(x, m):
    # H = s^(1/4) J_nu, s = x^2 - mu, mu = nu^2 - 1/4: from Bessel's J'' + J'/x
    # + (1 - nu^2/x^2) J = 0 with g'/g = x/(2s) and g''/g = (2s - 3x^2)/(4s^2)
    s = x * x - m
    n, n1 = 4 * x * x * s * s, 8 * x * s * s + 16 * x ** 3 * s
    d, d1 = 4 * s ** 3 + (6 * x * x - m) * m, 24 * x * s * s + 12 * m * x
    return {"p": -m / (x * s),
            "q": 1 - (m + F(1, 4)) / (x * x) - 1 / s + 5 * x * x / (4 * s * s),
            "W": n / d, "dW": (n1 * d - n * d1) / (d * d),
            "factors": [F(24), m, x ** 3, s, m + 4 * x * x, 1 / (d * d)]}


def _szego(x, m):
    # w = sqrt(x) J_nu, mu = 1/4 - nu^2: w'' + (1 + mu/x^2) w = 0
    t = x * x + m
    return {"p": F(0), "q": 1 + m / (x * x), "W": x * x / t,
            "dW": (2 * x * t - 2 * x ** 3) / (t * t),
            "factors": [F(2), m, x, 1 / (t * t)]}


def _airy(x, m):
    # f = (x + c)^(1/4) Ai(-x), c = m: from Airy's y'' + x y = 0 for y = Ai(-x)
    # with g'/g = 1/(4u) and g''/g = -3/(16u^2), u = x + c
    u = x + m
    n, n1 = 16 * u * u, 32 * u
    d, d1 = 16 * x * u * u + 5, 16 * u * u + 32 * x * u
    return {"p": -1 / (2 * u), "q": x + 5 / (16 * u * u),
            "W": n / d, "dW": (n1 * d - n * d1) / (d * d),
            "factors": [F(-16), u, 16 * m * u * u - 15, 1 / (d * d)]}


_rng = random.Random(37)


def _envelope_points():
    # mu > 0 and x > sqrt(mu): x^2 = mu (1 + r), r > 0
    for _ in range(40):
        m = F(_rng.randint(1, 10 ** 6), _rng.randint(1, 10 ** 3))
        near = _rng.random() < 0.3  # some points just past sqrt(mu)
        r = F(1, _rng.randint(1, 10 ** 6)) if near else F(_rng.randint(1, 10 ** 4), 100)
        yield F(math.sqrt(m * (1 + r))), m


def _szego_points():
    # mu = 1/4 - nu^2 in [0, 1/4], x > 0
    for _ in range(40):
        yield F(_rng.randint(1, 10 ** 6), 10 ** _rng.randint(0, 6)), F(_rng.randint(0, 1000), 4000)


# the Airy domain x >= 0 as one symbolic point: c exact, 16 c^3 = 15, so the
# factor 16 c u^2 - 15 expands to 32 c^2 x + 16 c x^2 and vanishes at x = 0
_AIRY_POINTS = [(sympy.Symbol("x", nonnegative=True), sympy.Rational(15, 16) ** sympy.Rational(1, 3))]

# variant -> (row, degree bounds in x and m of the cleared identities, points
# in the domain, the factors' signs (1 positive, 0 nonnegative, -1 negative),
# an order and x to compare S with the package's, and (g, P, Q) on sympy
# symbols: y = g y0 with y0 solving Bessel's equation, or Airy's for y0 = Ai(-x))
LEMMAS = {
    "envelope": (_envelope, (16, 8), list(_envelope_points()), (1, 1, 1, 1, 1, 1), (7.3, 11.0),
                 lambda x, m: ((x * x - m) ** F(1, 4), 1 / x, 1 - (m + F(1, 4)) / (x * x))),
    "szego": (_szego, (6, 4), list(_szego_points()), (1, 0, 1, 1), (0.3, 2.5),
              lambda x, m: (sympy.sqrt(x), 1 / x, 1 - (F(1, 4) - m) / (x * x))),
    "airy": (_airy, (5, 5), _AIRY_POINTS, (-1, 1, 0, 1), (0.0, 3.7),
             lambda x, m: ((x + m) ** F(1, 4), F(0), x)),
}


def test_every_sonin_variant_has_a_row_or_is_pending():
    assert set(LEMMAS) == set(bounds_module._SONIN)


def _grid(degrees):
    dx, dm = degrees
    # away from every row's poles: x >= 2 > sqrt(m) and x + m > 0, m > 0
    return [(F(2) + F(k, 3), F(j + 1, 7)) for k in range(dx + 1) for j in range(dm + 1)]


@pytest.mark.parametrize("variant", LEMMAS)
def test_the_weight_is_one_over_q(variant):
    row, degrees, *_ = LEMMAS[variant]
    for x, m in _grid(degrees):
        r = row(x, m)
        assert r["W"] * r["q"] == 1, (x, m)


@pytest.mark.parametrize("variant", LEMMAS)
def test_ds_dx_is_the_factored_form(variant):
    row, degrees, *_ = LEMMAS[variant]
    for x, m in _grid(degrees):
        r = row(x, m)
        assert r["dW"] - 2 * r["p"] * r["W"] == math.prod(r["factors"]), (x, m)


@pytest.mark.parametrize("variant", LEMMAS)
def test_each_factor_has_its_sign_on_the_domain(variant):
    # sympy decides each sign exactly, for a Fraction as for the Airy
    # symbolic point; S falls (bounds._SONIN's flag True) exactly when an
    # odd number of factors is negative
    row, _, points, signs, *_ = LEMMAS[variant]
    assert bounds_module._SONIN[variant][1] is (signs.count(-1) % 2 == 1)
    for x, m in points:
        for k, (f, sign) in enumerate(zip(row(x, m)["factors"], signs)):
            f = sympy.expand(f)
            holds = {1: f.is_positive, 0: f.is_nonnegative, -1: f.is_negative}[sign]
            assert holds is True, (variant, k, x, m)


@pytest.mark.parametrize("variant", LEMMAS)
def test_the_row_is_the_packages_s(variant):
    # S = y^2 + W y'^2 from the oracle's J and J' (Ai(-x) and its derivative
    # for the Airy row) and the row's W, against the package's S, at one
    # order and x of the domain
    row, *_, (nu, x), _ = LEMMAS[variant]
    order = Order(nu)
    if variant == "airy":  # Ai(-x) and its x-derivative, and m = c
        m = bounds_module.AIRY_C
        a, ap = airy_ai_neg_ref(x).value, airy_ai_neg_prime_ref(x).value
        y, dy = (x + m) ** 0.25 * a, 0.25 * (x + m) ** -0.75 * a + (x + m) ** 0.25 * ap
    else:
        m = order.mu
        j, jp = bessel_j_ref(order, x).value, _j_prime_any(order, x).value
        if variant == "envelope":
            s = x * x - m
            y, dy = s ** 0.25 * j, 0.5 * x * s ** -0.75 * j + s ** 0.25 * jp
        else:
            y, dy = math.sqrt(x) * j, j / (2 * math.sqrt(x)) + math.sqrt(x) * jp
    w = float(row(F(x), F(m))["W"])
    package_s = bounds_module._SONIN[variant][0](order, x)
    assert y * y + w * dy * dy == pytest.approx(package_s, rel=1e-13)


@pytest.mark.parametrize("variant", LEMMAS)
def test_the_rows_derivations_are_sympys(variant):
    row, *_, equation = LEMMAS[variant]
    x, m = sympy.symbols("x m", positive=True)
    r = row(x, m)
    g, p_0, q_0 = equation(x, m)
    gl = sympy.diff(g, x) / g
    gll = sympy.diff(g, x, 2) / g
    assert sympy.simplify(r["dW"] - sympy.diff(r["W"], x)) == 0
    assert sympy.simplify(r["p"] - (p_0 - 2 * gl)) == 0
    assert sympy.simplify(r["q"] - (q_0 - p_0 * gl - gll + 2 * gl ** 2)) == 0
