"""Zero locations of Ai(-x) and J_nu(x): explicit brackets plus refinement.

The closed-form estimates carry certified half-widths; the refinement
routines produce the truth the brackets are tested against, from a sign
change of the reference evaluator followed by bisection: for J_nu in the
s-th Sturm cell (a step just below the Sturm gap) whose ends differ in
sign, for Ai(-x) in a_s's certified bracket itself.
"""

from dataclasses import dataclass
import math

from .oracle import (
    BoundReport,
    Order,
    PrecisionError,
    _FINITE_NU,
    _NU_FLOOR,
    _PUBLIC_X_CAP,
    _certified_sign,
    _is_double,
    _make,
    airy_ai_neg_ref,
    bessel_j_ref,
    check_domain,
    refine_root,
)

_AIRY_S_CAP = 50
_GAP_S_CAP = 10 ** 6
# j_{nu,s} >= j_{-1/2,s} = (s - 1/2) pi, as the zeros grow with nu: no later s is below the x cap
_BESSEL_S_CAP = math.floor(_PUBLIC_X_CAP / math.pi + 0.5)


@dataclass(frozen=True)
class ZeroEstimate:
    """A zero estimate with its certified bracket.

    Two-sided: the zero lies in [center - half_width, center + half_width].
    One-sided (from a squared error term): [center, center + half_width].
    """

    family: str
    s: int
    nu: float | None
    center: float
    half_width: float
    one_sided: bool

    def bracket(self) -> tuple[float, float]:
        lo = self.center if self.one_sided else self.center - self.half_width
        return lo, self.center + self.half_width


def _m_of(s: int) -> float:
    return (12 * s - 3) * math.pi


def airy_zero_estimate(s: int, mode: str = "full") -> ZeroEstimate:
    """Closed-form estimate of the s-th zero a_s of Ai(-x).

    With m = (12s-3)pi:
      full:       center = 16^(-2/3)(m + sqrt(m^2+40))^(2/3),
                  half_width = 1280 pi/(9 m^3 (m^2+40)^(1/6));
      simplified: center = (1/4)(m^2+20)^(1/3),
                  half_width = 456/(m^3 (m^2+40)^(1/6)).
    Already at s = 1 the full center is within 0.00122 of the true zero.
    """
    check_domain(_DOMAINS, "airy_zero_estimate", mode, s)
    center, hw = (f(_m_of(s)) for f in _ZERO_MODES[mode])
    return ZeroEstimate("airy", s, None, center, hw, one_sided=False)


def bessel_first_zeros_estimate(order: Order, s: int) -> ZeroEstimate:
    """One-sided bracket for j_{nu,s} built from the refined Airy zero a_s.

    j_{nu,s} lies in [nu + 2^(-1/3) a_s nu^(1/3), same + (3 2^(-2/3) a_s^2/10) nu^(-1/3)].
    The a_s fed in is the refined zero, not the closed-form estimate, so the
    bracket tests only this expansion's own error; a_s is refined for s <= 50.
    """
    check_domain(_DOMAINS, "bessel_first_zeros_estimate", order, s)
    a_s = refine_airy_zero(s)
    nu = order.nu
    center = nu + 2 ** (-1 / 3) * a_s * nu ** (1 / 3)
    hw = 3 * 2 ** (-2 / 3) * a_s * a_s / 10 * nu ** (-1 / 3)
    return ZeroEstimate("bessel", s, nu, center, hw, one_sided=True)


def _airy_bracket(s: int) -> tuple[float, float]:
    """a_s's certified full-mode bracket, widened by 4 ulp of its center for
    the rounding of center -/+ half_width."""
    est = airy_zero_estimate(s)
    lo, hi = est.bracket()
    pad = 4 * math.ulp(est.center)
    return lo - pad, hi + pad


def _ai(t: float) -> float:
    return airy_ai_neg_ref(t).value


def refine_airy_zero(s: int) -> float:
    """The s-th positive zero a_s of Ai(-x) to ~1e-11, s <= 50.

    refine_root works directly inside airy_zero_estimate's certified
    bracket for a_s.  Ai(-x) is evaluated at the bracket's two ends first,
    and they must show a certified sign change: opposite signs, each |Ai|
    past its error estimate, else PrecisionError.  A zero then lies inside,
    and it is the only one, as the bracket is narrower than the Sturm gap
    pi/sqrt(120) = 0.287 between zeros of y'' + x y = 0 on the evaluator's
    domain [0, 120].  The result is plain bisection's double on the
    bracket, from 7 to 9 evaluations of Ai(-x).
    """
    check_domain(_DOMAINS, "refine_airy_zero", s)
    bracket = _airy_bracket(s)
    if {_certified_sign(airy_ai_neg_ref(x)) for x in bracket} != {1, -1}:
        raise PrecisionError(f"refine_airy_zero: Ai(-x) shows no certified sign change "
                             f"over a_{s}'s bracket")
    return refine_root(_ai, bracket, 1e-11)


def refine_bessel_zero(order: Order, s: int) -> float:
    """The s-th positive zero j_{nu,s} of J_nu to ~1e-11, s <= 64.

    sqrt(x) J_nu solves y'' + (1 + (1/4 - nu^2)/x^2) y = 0, so by Sturm
    comparison its zeros past any a are at least gap(a) apart: pi for
    |nu| >= 1/2 and pi/sqrt(1 + mu/a^2) >= 0.31 below.  The search steps
    through Sturm cells [a, b] from a = max(nu, 0.05), b = min(a + gap(a) -
    1e-9, 200), reading J_nu at each b.  A cell shorter than the gap holds
    at most one zero, so its sign changes count the zeros.  The s-th sign
    change's cell is halved once, at its midpoint, and refine_root refines
    the half that holds the sign change: plain bisection's first step, so
    the result is plain bisection's double on the cell (on every cell wider
    than 1e-11; only one starting within 1e-11 of the cap is not).
    Fewer than s sign changes up to x = 200 raise PrecisionError.
    """
    check_domain(_DOMAINS, "refine_bessel_zero", order, s)

    def f(t: float) -> float:
        return bessel_j_ref(order, t).value

    a = max(order.nu, 0.05)
    f_a = f(a)
    while a < _PUBLIC_X_CAP:
        gap = math.pi / math.sqrt(1 + (order.mu / a ** 2 if abs(order.nu) < 0.5 else 0))
        b = min(a + gap - 1e-9, _PUBLIC_X_CAP)
        f_b = f(b)
        if f_a * f_b < 0:
            s -= 1
            if s == 0:
                # refine_root on the whole cell returns the same double, but the
                # secant leaves it wide brackets: 22.6 calls a root, not 9.05
                m = 0.5 * (a + b)
                return refine_root(f, (a, m) if (f(m) > 0) == (f_b > 0) else (m, b), 1e-11)
        a, f_a = b, f_b
    raise PrecisionError("refine_bessel_zero: bessel zero scan exceeded the x cap")


def center_gap_check(s: int) -> tuple[BoundReport, BoundReport]:
    """The simplified center exceeds the full one by less than 25/(3 m^3 (m^2+40)^(1/6)).

    The difference is evaluated through the exact difference-of-cubes identity
      simplified^3 - full^3 = 25/(8(m^2 + 20 + m sqrt(m^2+40))),
    because the naive float subtraction of two nearly equal cube roots loses
    all significance by s ~ 50.  s <= 10^6: the claim's relative margin,
    1.88e-2/s^2 against mpmath, must clear the ~2e-15 float rounding.
    """
    check_domain(_DOMAINS, "center_gap_check", s)
    m = _m_of(s)
    q = math.sqrt(m * m + 40)
    full_c = _ZERO_MODES["full"][0](m)
    simp_c = _ZERO_MODES["simplified"][0](m)
    gap = 25 / (8 * (m * m + 20 + m * q)
                * (simp_c * simp_c + simp_c * full_c + full_c * full_c))
    cap = 25 / (3 * m ** 3 * (m * m + 40) ** (1 / 6))
    positive = _make("center_gap_positive", 0.0, gap, strict=True, slack=0.0)
    below = _make("center_gap_cap", gap, cap, strict=True, slack=0.0)
    return positive, below


def conjecture_check(s: int) -> BoundReport:
    """Is the refined a_s strictly below the full closed-form center?

    Informational only: the claim is a conjecture, so a false report here is
    recorded but is not a build failure.
    """
    check_domain(_DOMAINS, "conjecture_check", s)
    refined = refine_airy_zero(s)
    closed = airy_zero_estimate(s, "full").center
    return _make("conjecture_zero_cap", refined, closed, strict=True, slack=1e-9)


# each mode's (center, half_width) of a_s as functions of m = (12s - 3) pi
_ZERO_MODES = {"full": (lambda m: 16 ** (-2 / 3) * (m + math.sqrt(m * m + 40)) ** (2 / 3),
                        lambda m: 1280 * math.pi / (9 * m ** 3 * (m * m + 40) ** (1 / 6))),
               "simplified": (lambda m: 0.25 * (m * m + 20) ** (1 / 3),
                              lambda m: 456 / (m ** 3 * (m * m + 40) ** (1 / 6)))}
# each zero family's flags besides s, and f(*flags, s) -> (estimate, refined zero);
# the CLI's zeros rows read them, nu as its Order
_FAMILIES = {"airy": (("mode",), lambda mode, s: (airy_zero_estimate(s, mode),
                                                  refine_airy_zero(s))),
             "bessel": (("nu",), lambda order, s: (bessel_first_zeros_estimate(order, s),
                                                   refine_bessel_zero(order, s)))}
_S_POSITIVE = (lambda *args: not args[-1] < 1, "s must be >= 1")
_S_AIRY = (lambda s: 1 <= s <= _AIRY_S_CAP, f"s must lie in [1, {_AIRY_S_CAP}]")
# s comes last; a NaN or infinite s is no integer either
_S_INTEGER = (lambda *args: args[-1] % 1 == 0, "s must be an integer")
_DOMAINS = {  # the entry points' domains, as check_domain reads them
    # (mode, s); a tuple's "in" refuses an unhashable mode as unknown
    "airy_zero_estimate": (_S_POSITIVE, _S_INTEGER,
                           (lambda mode, s: _is_double(lambda: _m_of(s) ** 3),
                            "m^3 = ((12s - 3) pi)^3 leaves the doubles"),
                           (lambda mode, s: mode in tuple(_ZERO_MODES), "unknown mode {0!r}")),
    "bessel_first_zeros_estimate": ((lambda o, s: not o.nu <= 0, "nu must be positive"),
                                    _S_POSITIVE, _S_INTEGER, _FINITE_NU,
                                    (lambda o, s: s <= _AIRY_S_CAP, f"s must be <= {_AIRY_S_CAP}")),
    "refine_airy_zero": (_S_AIRY, _S_INTEGER),
    # from nu = 200 on, j_{nu,1} > nu lies past the x cap
    "refine_bessel_zero": (_S_POSITIVE, _S_INTEGER, _FINITE_NU, _NU_FLOOR,
                           (lambda o, s: o.nu < _PUBLIC_X_CAP, f"nu must be < {_PUBLIC_X_CAP:g}"),
                           (lambda o, s: s <= _BESSEL_S_CAP, f"s must be <= {_BESSEL_S_CAP}")),
    "center_gap_check": (_S_POSITIVE, _S_INTEGER,
                         (lambda s: s <= _GAP_S_CAP, f"s must be <= {_GAP_S_CAP}")),
    "conjecture_check": (_S_AIRY, _S_INTEGER),
}
