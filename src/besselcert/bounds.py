"""Rigorous inequalities for J_nu and Ai(-x) as checkable reports.

Every check compares reference-evaluator values, never approximations, and
"holds" only with margin beyond the evaluator's own error estimate: strict
inequalities need margin > slack, non-strict ones margin >= -slack.  A false
report on any acceptance grid is a build-failing event.
"""

from dataclasses import dataclass
from functools import lru_cache
import itertools
import math

from .oracle import (
    BoundReport,
    DomainError,
    EvalResult,
    Order,
    PrecisionError,
    _AIRY_X,
    _AIRY_X_CAP,
    _BERNOULLI,
    _FB,
    _FINITE_NU,
    _FLOAT_ULP,
    _J_X,
    _NU_FLOOR,
    _PUBLIC_X_CAP,
    _certified_sign,
    _is_double,
    _j_prime_any,
    _j_series_fixed,
    _make,
    airy_ai_neg_prime_ref,
    airy_ai_neg_ref,
    bessel_j_prime_ref,
    bessel_j_ref,
    check_domain,
    gamma,
    refine_root,
)
from .zeros import _airy_bracket

# envelope damping offset for the Airy inequalities
AIRY_C = 15 ** (1 / 3) * 2 ** (-4 / 3)
# math.log(gamma(2 / 3)), bound_monotonic's constant (math.lgamma is an ulp off)
_LN_GAMMA_2_3 = 0.30315027514752363
# a_1, the first zero of Ai(-x): refine_airy_zero(1)'s double, correctly rounded
_A1 = 2.338107410459767


@dataclass(frozen=True)
class SoninSample:
    """Value of a Sonin-type envelope function S at x.

    S is a square plus a positively weighted square of a derivative, so
    S >= 0; its monotonicity in x is what turns local oscillation into a
    global envelope bound.
    """

    x: float
    S: float
    variant: str


def bound_watson(order: Order, x: float) -> BoundReport:
    """J_nu(x) <= (x/2)^nu / Gamma(nu+1), the power-law cap near the origin."""
    check_domain(_DOMAINS, "bound_watson", order, x)
    r = bessel_j_ref(order, x)
    g = gamma(order.nu + 1)
    rhs = (x / 2) ** order.nu / g
    return _make("watson", r.value, rhs, strict=False, slack=r.abs_err_estimate)


def bound_envelope(order: Order, x: float) -> BoundReport:
    """Amplitude cap on J_nu: the oscillation never exceeds its envelope.

    |nu| <= 1/2: sqrt(pi x/2) |J_nu(x)| <= 1 (equality at the extrema of
    J_{1/2}); nu > 1/2: |x^2-mu|^(1/4) |J_nu(x)| sqrt(pi/2) < 1 strictly,
    and the constant is best possible.
    """
    check_domain(_DOMAINS, "bound_envelope", order, x)
    r = bessel_j_ref(order, x)
    scale, strict = ((math.sqrt(math.pi * x / 2), False) if abs(order.nu) <= 0.5
                     else (abs(x * x - order.mu) ** 0.25 * math.sqrt(math.pi / 2), True))
    return _make("envelope", scale * abs(r.value), 1.0, strict=strict,
                 slack=scale * r.abs_err_estimate)


_DERIV_SHIFT = (math.sqrt(7) - 1) / 2 ** (2 / 3)


def bound_derivative(order: Order, x: float) -> BoundReport:
    """Envelope cap on J'_nu beyond the transition region.

    For x >= nu + ((sqrt7-1)/2^(2/3)) nu^(1/3),
      x psi(x)^(1/4)/(x^2-nu^2) |J'_nu(x)| < 2/sqrt(pi)
    with psi = 4(x^2-nu^2)^3 - 3x^4 - 10x^2 nu^2 + nu^4, positive there.
    """
    check_domain(_DOMAINS, "bound_derivative", order, x)
    nu = order.nu
    r = bessel_j_prime_ref(order, x)
    scale = x * _psi(nu, x) ** 0.25 / (x * x - nu * nu)
    return _make("derivative", scale * abs(r.value), 2 / math.sqrt(math.pi),
                 strict=True, slack=scale * r.abs_err_estimate)


def bound_monotonic(order: Order, t: float) -> tuple[BoundReport, BoundReport]:
    """J_nu(t nu) against its value at the order, then in closed form.

    For 0 < t <= 1:
      J_nu(t nu) <= J_nu(nu) t^nu exp(nu^2(1-t^2)/(2 nu+1))           (equality at t=1)
      J_nu(t nu) <  2^(1/3)(t nu)^nu/(3^(2/3) Gamma(2/3) nu^(nu+1/3))
                    * exp(nu^2(1-t^2)/(2 nu+1))
    Both right-hand sides carry the same exponential factor.
    """
    check_domain(_DOMAINS, "bound_monotonic", order, t)
    nu = order.nu
    x = t * nu
    r = bessel_j_ref(order, x)
    at_nu = bessel_j_ref(order, nu)
    grow = nu * nu * (1 - t * t) / (2 * nu + 1)
    rhs1 = at_nu.value * t ** nu * math.exp(grow)
    # evaluated in logs: nu^(nu+1/3) overflows well before nu does
    log_rhs2 = (math.log(2) / 3 + nu * math.log(x) - 2 * math.log(3) / 3
                - _LN_GAMMA_2_3 - (nu + 1 / 3) * math.log(nu) + grow)
    rhs2 = math.exp(log_rhs2)
    slack1 = r.abs_err_estimate + at_nu.abs_err_estimate * t ** nu * math.exp(grow)
    first = _make("monotonic_at_order", r.value, rhs1, strict=False, slack=slack1)
    second = _make("monotonic_closed_form", r.value, rhs2,
                   strict=True, slack=r.abs_err_estimate + 4e-16 * rhs2)
    return first, second


def bound_log_derivative(order: Order, x: float) -> tuple[BoundReport, BoundReport]:
    """Lower bounds on the logarithmic derivative of x^(-nu) J_nu(x).

    With script-J = x^(-nu) J_nu, on 0 < x <= nu + 1/2:
      script-J'/script-J >= (sqrt((2nu+1)^2 - 4x^2) - (2nu+1))/(2x) >= -2x/(2nu+1).
    The ratio comes from the evaluator via J'/J - nu/x; x stays below the
    first zero of J_nu, so the quotient is well defined.
    """
    check_domain(_DOMAINS, "bound_log_derivative", order, x)
    nu = order.nu
    j = bessel_j_ref(order, x)
    if j.value <= 0:
        raise DomainError("bound_log_derivative: J_nu vanishes on (0, x]")
    jp = _j_prime_any(order, x)
    ratio = jp.value / j.value - nu / x
    if not math.isfinite(ratio):
        # nu/x or (nu/x) J_nu overflows, for x within a few hundred decades of 0
        raise DomainError("bound_log_derivative: J'/J - nu/x leaves the doubles")
    # divided by J once: J^2 leaves the normal doubles below J = 1.5e-154
    ratio_err = (jp.abs_err_estimate + abs(jp.value / j.value) * j.abs_err_estimate) / j.value
    w = 2 * nu + 1
    mid = (math.sqrt(w * w - 4 * x * x) - w) / (2 * x)
    low = -2 * x / w
    first = _make("log_derivative", mid, ratio, strict=False, slack=ratio_err)
    second = _make("log_derivative_chain", low, mid, strict=False,
                   slack=1e-14 * max(1.0, abs(low)))
    return first, second


def bound_airy_envelope(x: float) -> BoundReport:
    """(x + c)^(1/4) Ai(-x) < 9/14 with c = 15^(1/3) 2^(-4/3), x >= 0."""
    check_domain(_DOMAINS, "bound_airy_envelope", x)
    r = airy_ai_neg_ref(x)
    scale = (x + AIRY_C) ** 0.25
    return _make("airy_envelope", scale * r.value, 9 / 14,
                 strict=True, slack=scale * r.abs_err_estimate)


def _airy_envelope(x: float) -> tuple[float, float]:
    """(f, f') for f = (x+c)^(1/4) Ai(-x), f' by the product rule from the two evaluators."""
    a = airy_ai_neg_ref(x).value
    ap = airy_ai_neg_prime_ref(x).value
    return (x + AIRY_C) ** 0.25 * a, 0.25 * (x + AIRY_C) ** -0.75 * a + (x + AIRY_C) ** 0.25 * ap


def airy_envelope_maxima(x_hi: float = 60.0) -> list[BoundReport]:
    """Each local maximum of f = (x+c)^(1/4) Ai(-x) on [0, x_hi] vs its corridor.

    The damped envelope rises to each crest inside (1/sqrt(pi), 9/14): two
    reports per located maximum, airy_envelope_max_lower for the floor and
    airy_envelope_max_upper for the cap.  x_hi lies in (0, 120], the
    evaluator's Ai domain.

    Hump lemma: with y = Ai(-x), y'' = -x y, and g = (x+c)^(1/4), at any
    critical point of f = g y, f''/f = -x - 5/(16(x+c)^2) < 0 for x >= 0.
    So each positive hump of y, (a_2k, a_2k+1) with a_0 = -inf, holds
    exactly one critical point of f, a strict maximum xi_k, where f' turns
    from positive to negative.  The hump's ends come from the certified
    brackets of airy_zero_estimate: 1e-3 for k = 0, else a_2k's upper end,
    and a_2k+1's lower end cut at x_hi.  f' must read > 0 at the first and
    <= 0 at the second, else PrecisionError, and refine_root takes xi_k
    from there, plain bisection's double on the hump.  A hump whose f' is
    still positive at x_hi holds no crest on [0, x_hi].
    """
    check_domain(_DOMAINS, "airy_envelope_maxima", x_hi)

    def slope(t: float) -> float:
        return _airy_envelope(t)[1]

    reports = []
    for k in itertools.count():
        lo = 1e-3 if k == 0 else _airy_bracket(2 * k)[1]
        if lo >= x_hi:
            break
        hi = min(x_hi, _airy_bracket(2 * k + 1)[0])
        d_lo, d_hi = slope(lo), slope(hi)
        if d_hi > 0 and hi == x_hi:
            break
        if not d_lo > 0 >= d_hi:
            raise PrecisionError(f"airy_envelope_maxima: f' breaks the hump lemma in hump {k}")
        xi = refine_root(slope, (lo, hi), 1e-9)
        # refine_root returns a point it evaluated, so both Ai values are cached
        val = _airy_envelope(xi)[0]
        reports.append(_make("airy_envelope_max_lower",
                             1 / math.sqrt(math.pi), val, strict=True, slack=1e-12))
        reports.append(_make("airy_envelope_max_upper",
                             val, 9 / 14, strict=True, slack=1e-12))
    return reports


def bound_wronskian_kernel(nu: float, x1: float, x2: float) -> BoundReport:
    """Cross-point cancellation bound for orders nu and -nu, 0 <= nu <= 1/2.

    sqrt(x1 x2) |J_{-nu}(x1) J_nu(x2) - J_{-nu}(x2) J_nu(x1)| <= (2/pi) sin(pi nu);
    the kernel is antisymmetric in (x1, x2) and vanishes identically at nu = 0.
    """
    check_domain(_DOMAINS, "bound_wronskian_kernel", nu, x1, x2)
    # the rules above imply bessel_j_ref's for both orders: read the series directly
    p, r = nu.as_integer_ratio()
    x1, x2 = float(x1), float(x2)
    m1, m2 = _j_series_fixed((-p, r), x1), _j_series_fixed((-p, r), x2)
    p1, p2 = _j_series_fixed((p, r), x1), _j_series_fixed((p, r), x2)
    scale = math.sqrt(x1 * x2)
    lhs = scale * abs(m1.value * p2.value - m2.value * p1.value)
    slack = scale * (m1.abs_err_estimate * abs(p2.value) + m2.abs_err_estimate * abs(p1.value)
                     + p1.abs_err_estimate * abs(m2.value) + p2.abs_err_estimate * abs(m1.value)
                     + 1e-15)
    return _make("wronskian_kernel", lhs, 2 / math.pi * math.sin(math.pi * nu),
                 strict=False, slack=slack)


def bound_near_first_zero(order: Order) -> BoundReport:
    """0 < J_nu(nu + gamma nu^(1/3)) < 7/(6 nu), gamma = 2^(-1/3) a1 = 1.855757...

    The evaluation point sits just before the first zero j_{nu,1}, where J
    is still positive but already of size O(nu^(-2/3)).
    """
    check_domain(_DOMAINS, "bound_near_first_zero", order)
    r = bessel_j_ref(order, _near_first_zero_x(order.nu))
    if not r.value > 0:
        raise DomainError("bound_near_first_zero: J_nu must be positive before its first zero")
    return _make("near_first_zero", r.value, 7 / (6 * order.nu),
                 strict=True, slack=r.abs_err_estimate)


def _near_first_zero_x(nu: float) -> float:
    return nu + 2 ** (-1 / 3) * _A1 * nu ** (1 / 3)


def _szego_s(order: Order, x: float) -> float:
    y = bessel_j_ref(order, x).value
    yp = _j_prime_any(order, x).value
    w_prime = y / (2 * math.sqrt(x)) + math.sqrt(x) * yp
    return x * y * y + x * x / (x * x + order.mu) * w_prime * w_prime


def _envelope_s(order: Order, x: float) -> float:
    mu = order.mu
    j, jp = bessel_j_ref(order, x).value, bessel_j_prime_ref(order, x).value
    s2 = x * x - mu
    h, hp = s2 ** 0.25 * j, 0.5 * x * s2 ** -0.75 * j + s2 ** 0.25 * jp
    weight = 4 * x * x * s2 * s2 / (4 * s2 ** 3 + (6 * x * x - mu) * mu)
    return h * h + weight * hp * hp


def _airy_s(order: Order, x: float) -> float:
    f, fp = _airy_envelope(x)
    return f * f + fp * fp / (x + 5 / (16 * (AIRY_C + x) ** 2))


def sonin_eval(variant: str, order: Order, x: float) -> SoninSample:
    """Sonin-type envelope function S(x), per variant.

    szego (|nu| <= 1/2, x > 0, where S is a double):
        S = x J^2 + x^2/(x^2 + mu) (d/dx sqrt(x) J)^2, nondecreasing.
        The weight uses x^2 + mu = x^2 + 1/4 - nu^2: dS/dx is a positive
        multiple of the squared derivative only with this sign of mu.
    envelope (nu > 1/2, x > sqrt(mu)): with H = (x^2-mu)^(1/4) J,
        S = H^2 + 4x^2(x^2-mu)^2/(4(x^2-mu)^3 + (6x^2-mu)mu) H'^2, nondecreasing.
    airy (x >= 0): with f = (x+c)^(1/4) Ai(-x),
        S = f^2 + f'^2/(x + 5/(16(c+x)^2)), nonincreasing from its maximum at 0.

    Each monotonicity is a checked identity (tests/test_sonin_lemmas.py):
    y'' + p y' + q y = 0 for the variant's y (sqrt(x) J, H or f), W = 1/q
    exactly, and dS/dx = (W' - 2 p W) y'^2 with W' - 2 p W a product of
    factors of checked sign, 2 mu x/(x^2 + mu)^2 for szego,
    24 mu x^3 (x^2 - mu)(mu + 4x^2)/D^2 for envelope (D the weight's
    denominator) and -16 (c + x)(16 c (c + x)^2 - 15)/(16 x (c + x)^2 + 5)^2
    for airy.  The identities hold for every mu and c; only airy's sign
    step uses 16 c^3 = 15.  The limit S -> 2/pi at infinity of the Bessel
    variants (DLMF 10.17.3) is cited, not checked.
    """
    check_domain(_DOMAINS, "sonin_eval", variant)
    check_domain(_DOMAINS, f"sonin {variant}", order, x)
    return SoninSample(x, _SONIN[variant][0](order, x), variant)


def _leftmost_slope(order: Order, x: float) -> EvalResult:
    """hp = A + B, the x-derivative of (mu - x^2)^(1/4) J_nu at 0 < x < sqrt(mu),
    A = -x s^(-3/4) J_nu/2 and B = s^(1/4) J'_nu with s = mu - x^2, and its charge."""
    mu = order.mu
    s = mu - x * x
    j, jp = bessel_j_ref(order, x), bessel_j_prime_ref(order, x)
    a, b = -0.5 * x * s ** -0.75, s ** 0.25
    big_a, big_b = a * j.value, b * jp.value
    rounding = (abs(big_a) + abs(big_b)) * _FLOAT_ULP * (4 + 2 * mu / s)  # see leftmost_max_check
    return EvalResult(big_a + big_b, abs(a) * j.abs_err_estimate + b * jp.abs_err_estimate
                      + rounding)


def leftmost_max_check(order: Order) -> BoundReport:
    """First positive maximum xi of (mu - x^2)^(1/4) J_nu exceeds its floor.

    For nu >= 5/3, xi > floor = nu sqrt(1 - (2 nu)^(-2/3)).  On 0 < x <
    sqrt(mu) < nu < j_{nu,1}, J_nu and J'_nu are positive and x J'_nu/J_nu =
    nu - sum_k 2x^2/(j_{nu,k}^2 - x^2) strictly decreases, so the envelope's
    log-derivative J'_nu/J_nu - x/(2(mu - x^2)) strictly decreases from +inf
    at 0+ to -inf at sqrt(mu)-.  Its derivative hp thus changes sign exactly
    once, from + to - at xi, and as floor < sqrt(mu) ((2 nu)^(-2/3) >
    (2 nu)^(-2)), the claim xi > floor holds exactly when hp(floor) > 0.

    hp = A + B is read with a charge: the estimates of J_nu and J'_nu carried
    through A = -x s^(-3/4) J_nu/2 and B = s^(1/4) J'_nu, s = mu - x^2, plus
    (|A| + |B|)(4 + 2 mu/s) _FLOAT_ULP for hp's own rounding, where
    _FLOAT_ULP = 2.3e-16 exceeds 2u, u = 2^-53.  mu = |nu^2 - 1/4| and x^2
    put up to about 3u mu into s, relative 3u mu/s, which s's powers carry
    at most in full, and the powers, products and sum add under 5u.

    Two certificates decide: hp(floor) must clear its charge positive, else
    PrecisionError, and then the claim holds; hp(hi) must clear it negative
    at hi = nu sqrt(1 - (2 nu)^(-2/3)/2), below sqrt(mu) for nu >= 5/3, else
    the PrecisionError of a maximum not found.  refine_root takes xi on
    [floor, hi], plain bisection's double there.  nu is capped where
    sqrt(mu) - 1e-6 leaves the oracle's x <= 200 (nu ~ 200.0006); hi is
    below 199.1 there.
    """
    check_domain(_DOMAINS, "leftmost_max_check", order)
    nu = order.nu
    floor = nu * math.sqrt(1 - (2 * nu) ** (-2 / 3))
    hi = nu * math.sqrt(1 - 0.5 * (2 * nu) ** (-2 / 3))
    if _certified_sign(_leftmost_slope(order, floor)) != 1:
        raise PrecisionError("leftmost_max_check: hp is not certified positive at the floor")
    if _certified_sign(_leftmost_slope(order, hi)) != -1:
        raise PrecisionError("leftmost_max_check: no maximum found below sqrt(mu)")
    xi = refine_root(lambda x: _leftmost_slope(order, x).value, (floor, hi), 1e-10)
    # the certificate at the floor decided the claim
    return BoundReport("leftmost_max", floor, xi, xi - floor, True)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the 20-point Gauss-Legendre rule on [-1, 1].

    Newton on P_20 in the oracle's 160-bit fixed point, weights 2(1-z^2)/(20 P_19(z))^2,
    each rounded to double once by an integer true division: a float recurrence loses
    ~1e-13 in the outer weights, where P_19 is small against the rounding of P_k ~ 1.
    """
    n, one = 20, 1 << _FB
    rule = []
    for i in range(1, n // 2 + 1):
        z, step = int(math.ldexp(math.cos(math.pi * (i - 0.25) / (n + 0.5)), _FB)), one
        while abs(step) > one >> 100:  # then p0 is P_19 at the node to ~1e-29
            p0, p1 = one, z
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * (z * p1 >> _FB) - (k - 1) * p0) // k
            step = p1 * ((z * z >> _FB) - one) // (n * ((z * p1 >> _FB) - p0))
            z -= step
        w = 2 * (one - z) * (one + z) / (n * n * p0 * p0)
        rule += [(-z / one, w), (z / one, w)]
    return tuple(rule)


# B_16, B_14, ..., B_2: the coefficients of _trigamma's tail, highest first
_TRIGAMMA = tuple(num / den for num, den in _BERNOULLI[16:0:-2])


def _trigamma(z: float) -> float:
    """psi_1(z) = sum_{k>=0} 1/(z+k)^2 for z > 0, to a few ulp.

    Shifts by psi_1(z) = 1/z^2 + psi_1(z+1) to w >= 12, then sums
    1/w + 1/(2w^2) + sum_{k<=8} B_2k/w^(2k+1) (DLMF 5.15.8), whose remainder
    for real w > 0 is below the first omitted term, < 1e-17 relative.
    """
    acc = 0.0
    while z < 12:
        acc += 1 / (z * z)
        z += 1
    inv = 1 / z
    tail = 0.0
    for b in _TRIGAMMA:
        tail = (tail + b) * inv * inv
    return acc + inv * (1 + 0.5 * inv + tail)


# relative charge that lifts each computed integral to an upper bound: a few
# ulp each from psi_1, sin, nodes, weights and products (all terms are
# nonnegative, and fsum rounds once); the rule error is below 1e-17
_LEMMA_CHARGE = 1e-14


def lemma_integral_check(x: float) -> tuple[BoundReport, BoundReport]:
    """The two oscillatory integral caps used by the transition-region proofs.

    int_0^inf sin^2 t/(t+x)^2 dt < 1/(2x) and int_0^inf |sin t|/(t+x)^2 dt < 2/(pi x).
    The weights sin^2 t and |sin t| have period pi, and sum_k 1/(u+k pi+x)^2
    = psi_1((u+x)/pi)/pi^2 (DLMF 5.15.1), so each integral folds onto one
    period: (1/pi^2) int_0^pi w(u) psi_1((u+x)/pi) du, w = sin^2 u or sin u,
    with no truncation and no tail.  The k = 0 term 1/(u+x)^2, peaked at
    scale x, is peeled off as psi_1((u+x)/pi) = pi^2/(u+x)^2 + psi_1((u+x)/pi + 1),
    and the 20-point Gauss-Legendre rule runs on panels [0, x, 4x, 16x, ..., pi].
    Each lhs is the computed value plus a relative charge for rounding and
    rule error, an upper bound on the true integral, so the only slack left
    is the rounding of the float rhs.  The caps' relative gaps fall like
    1/(2x^2) and 0.36/x^2; x ends at 4e6, where abs_sin's gap is twice the charge.
    """
    check_domain(_DOMAINS, "lemma_integral_check", x)
    edges = [0.0]
    while edges[-1] < math.pi:
        edges.append(min(math.pi, max(x, 4 * edges[-1])))
    sin2, abs_sin = [], []
    for a, b in zip(edges, edges[1:]):
        m, h = (a + b) / 2, (b - a) / 2
        for t, w in _gauss_legendre():
            u = m + h * t
            s = math.sin(u)
            # peeled term ordered so that 1/(u+x)^2 neither over- nor underflows
            f = (s / (u + x) * (h * w / (u + x))
                 + s * h * w * _trigamma((u + x) / math.pi + 1) / math.pi ** 2)
            sin2.append(f * s)
            abs_sin.append(f)
    return tuple(_make(name, value * (1 + _LEMMA_CHARGE), rhs, strict=True,
                       slack=_FLOAT_ULP * rhs)
                 for name, value, rhs in (
                     ("lemma_integral_sin2", math.fsum(sin2), 1 / (2 * x)),
                     ("lemma_integral_abs_sin", math.fsum(abs_sin), 2 / (math.pi * x))))


def _psi(nu: float, x: float) -> float:
    return 4 * (x * x - nu * nu) ** 3 - 3 * x ** 4 - 10 * x * x * nu * nu + nu ** 4


# Sonin variant -> (S(order, x), whether S is nonincreasing rather than nondecreasing)
_SONIN = {"szego": (_szego_s, False), "envelope": (_envelope_s, False), "airy": (_airy_s, True)}
# Each check's domain: ordered (predicate, message) rules that check_domain
# tries in turn, its own first, then the evaluators' it calls, so that a
# refusal names the check.  A predicate negates the condition its rule
# rejects, so a NaN argument meets the rule it met before.
_DOMAINS = {
    # for nu < 0, (x/2)^nu divides by x/2, which is 0 at x = 5e-324
    "bound_watson": ((lambda o, x: not o.nu < 0 or x / 2 > 0, "(x/2)^nu leaves the doubles"),
                     # Gamma(nu + 1)'s domain, before (x/2)^nu can overflow at x <= 200
                     (lambda o, x: not o.nu >= 63, "nu must be < 63"), _NU_FLOOR, _FINITE_NU, _J_X),
    # past nu ~ 1.34e154, mu = |nu^2 - 1/4| is inf and the scale times J is inf * 0
    "bound_envelope": (_NU_FLOOR, _FINITE_NU, _J_X,
                       (lambda o, x: o.mu < math.inf, "mu = |nu^2 - 1/4| leaves the doubles")),
    "bound_derivative": (
        (lambda o, x: not o.nu < 0.5, "nu must be >= 1/2"),
        (lambda o, x: not x < o.nu + _DERIV_SHIFT * o.nu ** (1 / 3),
         "x below nu + ((sqrt7-1)/2^(2/3)) nu^(1/3)"),
        (lambda o, x: _is_double(_psi, o.nu, x), "psi's x^4, (x^2-nu^2)^3 leave the doubles"),
        (lambda o, x: _psi(o.nu, x) > 0, "psi must be positive on the stated domain"),
        _FINITE_NU, _J_X),
    "bound_monotonic": ((lambda o, t: not o.nu <= 0, "nu must be positive"),
                        (lambda o, t: 0 < t <= 1, "t must lie in (0, 1]"),
                        (lambda o, t: not o.nu > _PUBLIC_X_CAP,
                         f"nu must be <= {_PUBLIC_X_CAP:g}"),
                        _FINITE_NU, (lambda o, t: t * o.nu > 0, "t nu must be positive")),
    "bound_log_derivative": (_NU_FLOOR,
                             (lambda o, x: 0 < x <= o.nu + 0.5, "x must lie in (0, nu + 1/2]"),
                             _FINITE_NU, _J_X),
    "bound_airy_envelope": ((lambda x: not x < 0, "x must be >= 0"), *_AIRY_X),
    "airy_envelope_maxima": ((lambda x_hi: 0 < x_hi <= _AIRY_X_CAP,
                              f"x_hi must lie in (0, {_AIRY_X_CAP:g}]"),),
    "bound_wronskian_kernel": ((lambda nu, x1, x2: 0 <= nu <= 0.5, "nu must lie in [0, 1/2]"),
                               (lambda nu, x1, x2: (0 < x1 <= _PUBLIC_X_CAP
                                                    and 0 < x2 <= _PUBLIC_X_CAP),
                                f"x1 and x2 must lie in (0, {_PUBLIC_X_CAP:g}]")),
    "bound_near_first_zero": ((lambda o: not o.nu < 0.5, "nu must be >= 1/2"),
                              (lambda o: not _near_first_zero_x(o.nu) > _PUBLIC_X_CAP,
                               f"nu + 2^(-1/3) a1 nu^(1/3) must be <= {_PUBLIC_X_CAP:g}"),
                              _FINITE_NU),
    # a tuple's "in" refuses an unhashable variant as unknown
    "sonin_eval": ((lambda variant: variant in tuple(_SONIN), "unknown variant {0!r}"),),
    # below x ~ 1e-162 the weight's x^2 is 0: at |nu| = 1/2 so is x^2 + mu,
    # and at 0 < |nu| < 1/2 the (nu/x) J of J' can overflow, making S 0 * inf.
    # The oracle caches J and J', so the body's S after the rule's is cache hits.
    "sonin szego": ((lambda o, x: not abs(o.nu) > 0.5, "|nu| must be <= 1/2"),
                    (lambda o, x: not x <= 0, "x must be positive"), _FINITE_NU, _J_X,
                    (lambda o, x: _is_double(_szego_s, o, x), "S leaves the doubles")),
    "sonin envelope": ((lambda o, x: not o.nu <= 0.5, "nu must be > 1/2"),
                       (lambda o, x: not x <= math.sqrt(o.mu), "x must exceed sqrt(mu)"),
                       _FINITE_NU, _J_X),
    "sonin airy": ((lambda o, x: not x < 0, "x must be >= 0"),
                   (lambda o, x: x <= _AIRY_X_CAP, f"x must lie in [0, {_AIRY_X_CAP:g}]")),
    "leftmost_max_check": ((lambda o: not o.nu < 5 / 3, "nu must be >= 5/3"),
                           _FINITE_NU,
                           (lambda o: math.sqrt(o.mu) - 1e-6 <= _PUBLIC_X_CAP,
                            f"sqrt(mu) - 1e-6 must be <= {_PUBLIC_X_CAP:g}")),
    # 1/(2x) and 2/(pi x) are doubles from x = 3.54e-309 up
    "lemma_integral_check": ((lambda x: x > 0, "x must be positive"), (lambda x: 2 / (
        math.pi * x) < math.inf, "the caps 1/(2x), 2/(pi x) leave the doubles"),
        # past it the caps' relative gaps fall toward the 1e-14 charge
        (lambda x: not x > 4e6, "x must be <= 4e6")),
}
