"""Closed-form approximations of J_nu(x) and Ai(-x) with certified error widths.

Each routine returns an ApproxValue whose half_width is an explicit bound on
|truth - value|, valid on the stated domain with no asymptotic caveats.  The
widths come from the inequalities the package exists to check; the scan module
verifies every one of them against the series evaluator on dense grids.
No approximation calls that evaluator: each is computed in floats, and
where a formula needs Ai (transition) its float value carries its own bound.
"""

from dataclasses import dataclass
import math
import sys

from .oracle import DomainError, Order, check_domain
from .oracle import _AIRY_X_CAP, _FINITE_NU, _NU_FLOOR, _airy_origin, _is_double

SQRT_2_OVER_PI = math.sqrt(2 / math.pi)
_U = 2 ** -53  # unit roundoff: one rounding's largest relative error

# largest z the transition form accepts.  Its float Ai factor has no such
# limit; the cap stays where 2^(1/3) z reaches the reference evaluator's Ai
# domain, _AIRY_X_CAP, because lifting it would change the points of every
# transition sweep and best_approx's candidates, and far below it the width
# already exceeds |J_nu| <= 1.  One ulp below the rounded quotient, since
# 2^(1/3) times the quotient rounds above the cap.
_TRANSITION_Z_CAP = math.nextafter(_AIRY_X_CAP / 2 ** (1 / 3), 0)
# Ai(0) and -Ai'(0), each the double nearest the true constant
_AI_0, _AI_PRIME_0 = _airy_origin(2).value, _airy_origin(1).value
# Ai(-t) is summed as a Maclaurin series up to t = _AIRY_SERIES_T, where its
# rounding bound reaches 7.4e-13; above, airy_approx's sharp width is < 7.3e-5
_AIRY_SERIES_T = 5.0


@dataclass(frozen=True)
class ApproxValue:
    """An approximate value with a certified symmetric error bound.

    |truth - value| <= half_width holds on the method's whole domain.
    method names the formula; region is oscillatory or transition,
    the regime the formula targets.
    """

    value: float
    half_width: float
    method: str
    region: str


@dataclass(frozen=True)
class PhaseValue:
    """Phase B(x) and local frequency b(x) = dB/dx of the oscillatory regime.

    b(x) = sqrt(x^2 - nu^2 + 1/4)/x, so cos(B(x) - omega) oscillates at the
    true local frequency of J_nu rather than at the free-space rate 1.
    """

    B: float
    b: float


def classic_oscillatory(order: Order, x: float) -> ApproxValue:
    """J_nu(x) ~ sqrt(2/(pi x)) cos(x - omega) with error c mu x^(-3/2).

    The constant c depends on where x sits relative to sqrt(mu):
    c = (2/pi)^(3/2) for |nu| <= 1/2, else sqrt(2)/2 when x >= sqrt(mu)
    and 5/4 when x < sqrt(mu).  At |nu| = 1/2 the width vanishes and the
    main term is J_nu itself.
    """
    check_domain(_DOMAINS, "classic_oscillatory", order, x)
    value = SQRT_2_OVER_PI / math.sqrt(x) * math.cos(x - order.omega)
    return ApproxValue(value, _classic_width(order, x), "classic", "oscillatory")


def _classic_width(order: Order, x: float) -> float:
    if abs(order.nu) <= 0.5:
        c = (2 / math.pi) ** 1.5
    elif x >= math.sqrt(order.mu):
        c = math.sqrt(2) / 2
    else:
        c = 1.25
    return c * order.mu * x ** -1.5


# the first i at which olver_coefficient's divisor 2^i i! exceeds the largest double
_OLVER_I_CAP = next(i for i in range(sys.float_info.max_exp)
                    if 2 ** i * math.factorial(i) > sys.float_info.max)


def olver_coefficient(nu: float, i: int) -> float:
    """a_i(nu) = (1/2-nu)_i (1/2+nu)_i / (2^i i!), the expansion coefficients.

    a_0 = 1; all a_i with i >= 1 vanish at nu = 1/2 where the expansion
    terminates exactly.  Raises OverflowError from i = 151 on, where the
    divisor 2^i i! leaves the doubles, before a loop of i steps.
    """
    if i >= _OLVER_I_CAP:
        raise OverflowError("olver_coefficient: 2^i i! leaves the doubles")
    acc = 1.0
    for k in range(i):
        acc *= (0.5 - nu + k) * (0.5 + nu + k)
    return acc / (2 ** i * math.factorial(i))


def olver_expansion(order: Order, x: float, l1: int, l2: int) -> ApproxValue:
    """Truncated large-x expansion of J_nu with both trailing terms as width.

    value = sqrt(2/(pi x)) [cos(x-omega) sum_{i<l1} (-1)^i a_{2i} x^{-2i}
                          + sin(x-omega) sum_{i<l2} (-1)^i a_{2i+1} x^{-2i-1}]
    and half_width = sqrt(2/(pi x)) (|a_{2 l1}| x^{-2 l1} + |a_{2 l2+1}| x^{-2 l2-1}).
    The sign pattern was calibrated once against the series evaluator at
    nu = 0, x = 20, l1 = l2 = 3.
    """
    check_domain(_DOMAINS, "olver_expansion", order, x, l1, l2)
    cos_sum = sum((-1) ** i * olver_coefficient(order.nu, 2 * i) * x ** (-2 * i)
                  for i in range(l1))
    sin_sum = sum((-1) ** i * olver_coefficient(order.nu, 2 * i + 1) * x ** (-2 * i - 1)
                  for i in range(l2))
    value = SQRT_2_OVER_PI / math.sqrt(x) * (math.cos(x - order.omega) * cos_sum
                                             + math.sin(x - order.omega) * sin_sum)
    return ApproxValue(value, _olver_width(order, x, l1, l2), "olver", "oscillatory")


def _olver_width(order: Order, x: float, l1: int, l2: int) -> float:
    return SQRT_2_OVER_PI / math.sqrt(x) * (
        abs(olver_coefficient(order.nu, 2 * l1)) * x ** (-2 * l1)
        + abs(olver_coefficient(order.nu, 2 * l2 + 1)) * x ** (-2 * l2 - 1))


def phase_B(order: Order, x: float) -> PhaseValue:
    """Antiderivative B of the local frequency b(x) = sqrt(x^2 - nu^2 + 1/4)/x.

    For |nu| <= 1/2 (where mu = 1/4 - nu^2 enters with a plus sign)
    B = sqrt(x^2+mu) + sqrt(mu) ln(x/(sqrt(mu)+sqrt(mu+x^2))), any x > 0;
    for nu > 1/2, B = sqrt(x^2-mu) + sqrt(mu) arcsin(sqrt(mu)/x), x > sqrt(mu).
    """
    check_domain(_DOMAINS, "phase_B", order, x)
    return _phase(order, x)


def _phase(order: Order, x: float) -> PhaseValue:
    mu = order.mu
    if abs(order.nu) <= 0.5:
        root = math.sqrt(x * x + mu)
        if mu == 0:
            return PhaseValue(x, 1.0)
        B = root + math.sqrt(mu) * math.log(x / (math.sqrt(mu) + root))
        return PhaseValue(B, root / x)
    root = math.sqrt(x * x - mu)
    B = root + math.sqrt(mu) * math.asin(math.sqrt(mu) / x)
    return PhaseValue(B, root / x)


def sharper_oscillatory(order: Order, x: float) -> ApproxValue:
    """Phase-corrected amplitude form of J_nu with x^(-5/2)-or-better width.

    Low branch (|nu| <= 1/2, x > 0):
      sqrt(2/pi) (x^2+mu)^(-1/4) cos(B - omega), width mu/(sqrt(2 pi x)(x^2+mu)^(3/2)).
    High branch (|nu| > 1/2, x > max(mu, sqrt(mu))):
      same with x^2-mu, width 13 mu/(12 sqrt(2 pi) (x^2-mu)^(7/4)).
    """
    check_domain(_DOMAINS, "sharper_oscillatory", order, x)
    low = abs(order.nu) <= 0.5
    s2 = x * x + order.mu if low else x * x - order.mu
    value = SQRT_2_OVER_PI * s2 ** -0.25 * math.cos(_phase(order, x).B - order.omega)
    return ApproxValue(value, _sharp_width(order, x), "sharp_low" if low else "sharp_high",
                       "oscillatory")


def _sharp_width(order: Order, x: float) -> float:
    mu = order.mu
    if abs(order.nu) <= 0.5:
        return mu / (math.sqrt(2 * math.pi * x) * (x * x + mu) ** 1.5)
    return 13 * mu / (12 * math.sqrt(2 * math.pi) * (x * x - mu) ** 1.75)


def simplified_oscillatory(order: Order, x: float) -> ApproxValue:
    """Low-order phase expansion: cos(x - mu/(2x) - omega) over (x^2+mu)^(1/4).

    Valid for |nu| <= 1/2 with width 25 mu/(24 sqrt(2 pi) x^3 (x^2+mu)^(1/4));
    replaces the exact phase B by its two-term expansion at large x.
    """
    check_domain(_DOMAINS, "simplified_oscillatory", order, x)
    mu = order.mu
    value = (SQRT_2_OVER_PI * math.cos(x - mu / (2 * x) - order.omega)
             / (x * x + mu) ** 0.25)
    return ApproxValue(value, _simplified_width(order, x), "simplified", "oscillatory")


def _simplified_width(order: Order, x: float) -> float:
    mu = order.mu
    return 25 * mu / (24 * math.sqrt(2 * math.pi) * x ** 3 * (x * x + mu) ** 0.25)


def transition_x(order: Order, z: float) -> float:
    """Evaluation point x = nu + nu^(1/3) z of the transition-region variable z."""
    return order.nu + order.nu ** (1 / 3) * z


def transition(order: Order, z: float) -> ApproxValue:
    """Airy-type approximation of J_nu near x = nu, in the variable z >= 0.

    At x = nu + nu^(1/3) z,
      J_nu(x) ~ 2^(1/3) Ai(-2^(1/3) z)/sqrt(nu^(2/3)+z),
    with width 23 max(1, z^(9/4))/(2 nu^(2/3) sqrt(nu^(2/3)+z)).  The Ai
    factor is evaluated in floats by _airy_neg, and the width adds its
    bound times 2^(1/3)/sqrt(nu^(2/3)+z), with the rounding of t = 2^(1/3) z,
    at most 3u t, through |Ai'(-t)| <= (1 + t)^(1/4) (checked against
    mpmath to t = 200), and the value's own rounding: 7u from its six
    operations and |ln nu| u/6 from nu^(2/3)'s rounded exponent, u the unit
    roundoff, each with some margin.  z < 0 (x below nu) is rejected, and z
    ends at _TRANSITION_Z_CAP (z ~ 95.2); far earlier than that the width
    has already grown past any oscillatory alternative.
    """
    check_domain(_DOMAINS, "transition", order, z)
    pow23 = order.nu ** (2 / 3)
    root = math.sqrt(pow23 + z)
    t = 2 ** (1 / 3) * z
    ai, ai_bound = _airy_neg(t)
    value = 2 ** (1 / 3) * ai / root
    formula = 23 * max(1.0, z ** 2.25) / (2 * pow23 * root)
    ai_bound += 4 * _U * t * (1 + t) ** 0.25
    rounding = (8 + abs(math.log(order.nu)) / 5) * _U * abs(value)
    return ApproxValue(value, formula + 2 ** (1 / 3) / root * ai_bound + rounding,
                       "transition", "transition")


def _airy_neg(t: float) -> tuple[float, float]:
    """(value, bound) with |Ai(-t) - value| <= bound, t >= 0, in floats.

    Up to _AIRY_SERIES_T, the Maclaurin series (DLMF 9.4.1)
      Ai(-t) = sum_k (-1)^k (Ai(0) u_k - Ai'(0) v_k),
      u_k/u_(k-1) = t^3/((3k-1) 3k), v_k/v_(k-1) = t^3/(3k (3k+1)),
    u_0 = 1, v_0 = t, with a running rounding bound: term k carries at most
    4k + 3 roundings and each partial sum one more, and n roundings err by
    at most 1.01 n u (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3).  Terms below 1e-20 are falling, by ratios below r,
    so the tail is at most the next term over 1 - r, doubled for its own
    rounding.  Above, airy_approx's sharp form with its width, plus the
    rounding of the phase phi < (2/3) t^(3/2) + 1/100, about 4u t^(3/2) +
    6u, and 6u of the value, doubled, times the prefactor's bound
    1/(sqrt(pi) t^(1/4)).
    """
    if t > _AIRY_SERIES_T:
        sharp = airy_approx(t, "sharp")
        rounding = 8 * _U * (t ** 1.5 + 3) / (math.sqrt(math.pi) * t ** 0.25)
        return sharp.value, sharp.half_width + rounding
    t3 = t * t * t
    u, v = _AI_0, _AI_PRIME_0 * t
    value = run = 0.0
    k = 0
    while True:
        term = u + v
        value = value + term if k % 2 == 0 else value - term
        run += abs(value) + (4 * k + 3) * term
        k += 1
        u *= t3 / ((3 * k - 1) * 3 * k)
        v *= t3 / (3 * k * (3 * k + 1))
        if u + v < 1e-20:
            break
    r = t3 / ((3 * k + 2) * (3 * k + 3))
    return value, 1.01 * _U * run + 2 * (u + v) / (1 - r)


def airy_approx(x: float, mode: str = "sharp") -> ApproxValue:
    """Certified oscillatory approximations of Ai(-x), x > 0.

    classic:    cos(zeta - pi/4)/(sqrt(pi) x^(1/4)), zeta = 2x^(3/2)/3,
                width 5/(6 sqrt(3) pi^(3/2) x^(7/4));
    sharp:      2 sqrt(x) cos(phi)/(sqrt(pi)(16x^3+5)^(1/4)) with the exact
                phase phi = sqrt(16x^3+5)/6
                          - (sqrt5/6) ln((sqrt(16x^3+5)+sqrt5)/(4x^(3/2))) - pi/4,
                width 10 sqrt(3)/(sqrt(pi) x^(1/4) (16x^3+5)^(3/2));
    simplified: same prefactor with phase (2/3)x^(3/2) - (5/48)x^(-3/2) - pi/4,
                width 5/(9 sqrt(pi) x^4 (16x^3+5)^(1/4)).
    """
    check_domain(_DOMAINS, "airy_approx", x, mode)
    return ApproxValue(*_AIRY_MODES[mode][2](x), f"airy_{mode}", "oscillatory")


def _airy_classic(x: float) -> tuple[float, float]:
    return (math.cos(2 * x ** 1.5 / 3 - math.pi / 4) / (math.sqrt(math.pi) * x ** 0.25),
            5 / (6 * math.sqrt(3) * math.pi ** 1.5 * x ** 1.75))


def _airy_sharp(x: float) -> tuple[float, float]:
    q = 16 * x ** 3 + 5
    r = math.sqrt(q)
    phi = r / 6 - math.sqrt(5) / 6 * math.log((r + math.sqrt(5)) / (4 * x ** 1.5)) - math.pi / 4
    return (2 * math.sqrt(x) / (math.sqrt(math.pi) * q ** 0.25) * math.cos(phi),
            10 * math.sqrt(3) / (math.sqrt(math.pi) * x ** 0.25 * q ** 1.5))


def _airy_simplified(x: float) -> tuple[float, float]:
    q = 16 * x ** 3 + 5
    phi = 2 / 3 * x ** 1.5 - 5 / 48 * x ** -1.5 - math.pi / 4
    return (2 * math.sqrt(x) / (math.sqrt(math.pi) * q ** 0.25) * math.cos(phi),
            5 / (9 * math.sqrt(math.pi) * x ** 4 * q ** 0.25))


# Each entry point's domain: ordered (predicate, message) rules that
# check_domain tries in turn.  A predicate negates the condition its rule
# rejects, so a NaN x meets the finiteness rule; the last rules are where
# the formula's powers leave the doubles.
_POSITIVE_X = (lambda order, x, *_: not x <= 0, "x must be positive")
_FINITE_X = (lambda order, x, *_: x < math.inf, "x must be finite")
_SQUARE = (lambda order, x: order.mu == 0 or x * x < math.inf, "x^2 leaves the doubles")
# classic's first rules, which every best_approx candidate must also pass
_BEST_BASE = (_POSITIVE_X, _NU_FLOOR)
# airy_approx's modes: mode -> (lo, hi, form), form(x) = (value, half_width) on
# (lo, hi].  lo: the last double at which a power of the form underflows; hi:
# the last before one overflows (both found by bisection over the doubles)
_AIRY_MODES = {"classic": (1.7650337102539322e-177, 1.3981435017174463e+176, _airy_classic),
               "sharp": (3.3818911954118815e-206, 1.2579824277061824e+68, _airy_sharp),
               "simplified": (5.8435077503248184e-78, 1.1579208923731618e+77, _airy_simplified)}
_DOMAINS = {
    "classic_oscillatory": (
        *_BEST_BASE, _FINITE_X,
        (lambda *args: _is_double(_classic_width, *args), "the width leaves the doubles")),
    "olver_expansion": (
        (lambda order, x, l1, l2: not order.nu < 0, "nu must be >= 0"),
        _POSITIVE_X,
        (lambda order, x, l1, l2: not l1 < max(order.nu / 2 - 0.25, 1),
         "l1 below max(nu/2 - 1/4, 1)"),
        (lambda order, x, l1, l2: not l2 < max(order.nu / 2 - 0.75, 1),
         "l2 below max(nu/2 - 3/4, 1)"),
        (lambda order, x, l1, l2: isinstance(l1, int) and isinstance(l2, int),
         "l1 and l2 must be integers"),
        _FINITE_X,
        (lambda *args: _is_double(_olver_width, *args), "the width leaves the doubles")),
    "phase_B": (
        _POSITIVE_X,
        (lambda order, x: abs(order.nu) <= 0.5 or not x <= math.sqrt(order.mu),
         "high branch needs x > sqrt(mu)"),
        _FINITE_X, _SQUARE,
        (lambda order, x: order.mu == 0 or math.sqrt(x * x + order.mu) / x < math.inf,
         "b = sqrt(x^2 + mu)/x leaves the doubles")),
    # x > mu keeps the width constant honest; x > sqrt(mu) keeps the phase real
    "sharper_oscillatory": (
        _POSITIVE_X,
        (lambda order, x: abs(order.nu) <= 0.5 or not x <= max(order.mu, math.sqrt(order.mu)),
         "high branch needs x > max(mu, sqrt(mu))"),
        _FINITE_X, _SQUARE,
        (lambda *args: _is_double(_sharp_width, *args), "the width leaves the doubles")),
    "simplified_oscillatory": (
        (lambda order, x: not abs(order.nu) > 0.5, "|nu| must be <= 1/2"),
        _POSITIVE_X, _FINITE_X,
        (lambda *args: _is_double(_simplified_width, *args), "the width leaves the doubles")),
    "transition": (
        (lambda order, z: not order.nu < 0.5, "nu must be >= 1/2"),
        (lambda order, z: 0 <= z <= _TRANSITION_Z_CAP,
         f"z must lie in [0, {_TRANSITION_Z_CAP:.1f}]"),
        _FINITE_NU),
    "airy_approx": (
        (lambda x, mode: not x <= 0, "x must be positive"),
        *((lambda x, mode, k=k, lo=lo, hi=hi: mode != k or lo < x <= hi,
           f"{k} needs x in ({lo:.4g}, {hi:.4g}]") for k, (lo, hi, _) in _AIRY_MODES.items()),
        # a tuple's "in" refuses an unhashable mode as unknown
        (lambda x, mode: mode in tuple(_AIRY_MODES), "unknown mode {1!r}")),
}
# best_approx's candidates in its tie-break order: (function, arguments from
# (order, x)); the function is looked up here when it runs
_CANDIDATES = (
    ("sharper_oscillatory", lambda order, x: (order, x)),
    ("simplified_oscillatory", lambda order, x: (order, x)),
    ("olver_expansion", lambda order, x: (order, x, 1, 1)),
    ("classic_oscillatory", lambda order, x: (order, x)),
    # z = (x - nu)/nu^(1/3); nu <= 0 has no such z and fails transition's first rule
    ("transition", lambda order, x: (
        order, (x - order.nu) / order.nu ** (1 / 3) if order.nu > 0 else math.nan)),
)


def best_approx(order: Order, x: float) -> ApproxValue:
    """The applicable Bessel approximation with the smallest certified width.

    Every method whose declared domain admits (nu, x) is a candidate; none
    is extrapolated outside its domain.  Each candidate is called, one that
    refuses is dropped, and the narrowest result is returned; no
    approximation calls the series evaluator, so a losing candidate costs a
    few float operations.  Ties (e.g. all widths 0 at |nu| = 1/2) go to the
    earlier entry of: sharp (either branch), simplified, olver, classic,
    transition.  Where none is admitted, classic's rules name the reason; for
    nu >= -1/2 and finite x > 0 that happens only near 0, for |nu| >= 1/2.
    """
    admitted = []  # min keeps the first of equal widths: the table's order
    if all(ok(order, x) for ok, _ in _BEST_BASE):
        for function, args_of in _CANDIDATES:
            try:
                admitted.append(globals()[function](*args_of(order, x)))
            except DomainError:
                pass
    if not admitted:
        check_domain(_DOMAINS, "classic_oscillatory", order, x)
    return min(admitted, key=lambda a: a.half_width)
