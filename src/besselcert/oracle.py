"""Ground-truth evaluation of J_nu(x), J'_nu(x), Ai(-x), and Gamma.

Everything else in the package is tested against these routines, so they
are built on exact scaled-integer arithmetic (see fixedpoint) rather than
doubles: the defining power series of J_nu alternates and cancels up to
about 0.45*x decimal digits at argument x, which is fatal in binary64
beyond x of a few tens.  Working precision adapts to x so that at least
12 significant digits always survive the cancellation, and every result
carries its own absolute error estimate.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
import math

from . import fixedpoint as fx

_PUBLIC_X_CAP = 200.0
_AIRY_X_CAP = 120.0
_DIGIT_CAP = 500
_TERM_CAP = 5000
# float conversion plus a couple of float ops, per rounding step
_FLOAT_ULP = 2.3e-16


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class PrecisionError(RuntimeError):
    """Requested accuracy is not reachable within the configured caps."""


@dataclass(frozen=True)
class Order:
    """Bessel order nu together with the derived quantities every formula reuses.

    mu = |nu^2 - 1/4| is the combination controlling all error terms; it
    vanishes exactly at |nu| = 1/2 where J_nu is elementary.  omega is the
    phase shift nu*pi/2 + pi/4 of the oscillatory main terms.
    """

    nu: float
    mu: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", abs(self.nu * self.nu - 0.25))
        object.__setattr__(self, "omega", math.pi * self.nu / 2 + math.pi / 4)


@dataclass(frozen=True)
class PrecisionCtx:
    """Requested working precision and accuracy for oracle calls."""

    working_digits: int = 40
    target_rel_err: float = 1e-12

    def __post_init__(self):
        if self.working_digits < 20:
            raise ValueError("working_digits must be at least 20")
        if self.target_rel_err < 1e-14:
            raise ValueError("target_rel_err must be at least 1e-14")


DEFAULT_CTX = PrecisionCtx()


@dataclass(frozen=True)
class EvalResult:
    """A value together with the oracle's own absolute error estimate."""

    value: float
    abs_err_estimate: float


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    # B_0 = 1 and sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * _bernoulli(j)
    return -acc / (m + 1)


@lru_cache(maxsize=4096)
def _gamma_fixed(z: Fraction, g: int) -> int:
    """Gamma(z) at g fixed digits via Stirling's series with argument shift.

    The argument is raised to w = z + k large enough that the asymptotic
    series bottoms out below 10^(3-g); the factor prod (z+i) is exact
    rational arithmetic, so the only approximation lives in ln/exp and in
    the truncated Bernoulli sum.
    """
    if z <= 0:
        raise DomainError("gamma: argument must be positive")
    w_min = max(30, 367 * (g + 8) // 1000 + 1)
    k = max(0, math.ceil(w_min - z))
    w = z + k
    one = 10 ** g
    wf = fx.fix_from(w, g)
    lnw = fx.fln(wf, g)
    acc = fx.fmul(wf - one // 2, lnw, g) - wf
    acc += fx.rdiv(fx.fln(2 * fx.pi_fixed(g), g), 2)
    inv_w = fx.fdiv(one, wf, g)
    inv_w2 = fx.fmul(inv_w, inv_w, g)
    pw = inv_w
    n = 1
    prev_mag = None
    while True:
        coeff = _bernoulli(2 * n) / ((2 * n) * (2 * n - 1))
        term = fx.rdiv(coeff.numerator * pw, coeff.denominator)
        acc += term
        mag = abs(term)
        if mag < 1000:  # remainder below first omitted term, ~10^(3-g)
            break
        if prev_mag is not None and mag >= prev_mag:
            raise PrecisionError("Stirling series diverged before target accuracy")
        prev_mag = mag
        pw = fx.fmul(pw, inv_w2, g)
        n += 1
    expw = fx.fexp(acc, g)
    poch = Fraction(1)
    for i in range(k):
        poch *= z + i
    if k == 0:
        return expw
    return fx.fdiv(expw, fx.fix_from(poch, g), g)


def gamma(z: float) -> float:
    """Gamma(z) for 0 < z < 64, relative error well below 1e-25.

    Serves as the base case Gamma(nu+1) of the series recurrence
    Gamma(j+nu+1) = (j+nu)...(nu+1)Gamma(nu+1).
    """
    if not 0 < z < 64:
        raise DomainError("gamma: z must lie in (0, 64)")
    return fx.to_float(_gamma_fixed(Fraction(z), 40), 40)


def _digits_for(x: float, ctx: PrecisionCtx) -> int:
    # at least ceil(0.45 x) + 40 digits so cancellation never eats the result;
    # rounded up to a multiple of 20 so caches hit across neighboring x
    rule = 40 + 20 * math.ceil(0.45 * x / 20)
    d = max(ctx.working_digits, rule)
    if d > _DIGIT_CAP:
        raise PrecisionError(f"x={x} needs {d} working digits (cap {_DIGIT_CAP})")
    return d


@lru_cache(maxsize=200000)
def _j_series_fixed(nu: Fraction, x: Fraction, d: int) -> tuple[int, int]:
    """(value, abs_err) of J_nu(x) as fixed-point integers at d digits.

    J_nu(x) = (x/2)^nu * sum_j (-1)^j (x^2/4)^j / (j! Gamma(j+nu+1)), run
    as the term recurrence t_j = -t_{j-1} (x^2/4)/(j (j+nu)).  The error
    estimate charges 3 ulp per term against the largest intermediate
    magnitude, which is what cancellation actually exposes.
    """
    one = 10 ** d
    xf = fx.fix_from(x, d)
    q = fx.rdiv(xf * xf, 4 * one)
    g1 = _gamma_fixed(nu + 1, d + 15)
    t = fx.rdiv(one * 10 ** (d + 15), g1)
    if t == 0:
        raise PrecisionError("leading series term underflows working precision")
    nuf = fx.fix_from(nu, d)
    s = t
    tmax = abs(t)
    xsq4 = float(x) * float(x) / 4
    j = 1
    while j < _TERM_CAP:
        t = -fx.rdiv(t * q, j * (j * one + nuf))
        s += t
        if abs(t) > tmax:
            tmax = abs(t)
        if t == 0 and j * (j + float(nu)) > xsq4:
            break
        j += 1
    else:
        raise PrecisionError("series did not terminate within the term cap")
    pf = fx.fpow(fx.fix_from(x / 2, d), nu, d)
    value = fx.fmul(pf, s, d)
    spread = max(fx.fmul(pf, tmax, d), one)
    err = fx.rdiv((3 * j + 20) * spread, one) + 1
    return value, err


def _j_eval(nu: Fraction, x: Fraction, ctx: PrecisionCtx) -> EvalResult:
    d = _digits_for(float(x), ctx)
    v, e = _j_series_fixed(nu, x, d)
    value = fx.to_float(v, d)
    err = fx.to_float(e, d) + _FLOAT_ULP * abs(value)
    if err > ctx.target_rel_err * max(abs(value), 1e-10):
        raise PrecisionError("series error estimate exceeds the requested target")
    return EvalResult(value, err)


def bessel_j_ref(order: Order, x: float, ctx: PrecisionCtx = DEFAULT_CTX) -> EvalResult:
    """J_nu(x) from the defining power series at adaptive precision.

    Relative error <= 1e-12 wherever |J| > 1e-10 and absolute error
    <= 1e-22 elsewhere; the returned estimate is typically many orders
    smaller.  nu >= -1/2 and 0 < x <= 200.
    """
    if order.nu < -0.5:
        raise DomainError("bessel_j_ref: nu must be >= -1/2")
    if not 0 < x <= _PUBLIC_X_CAP:
        raise DomainError(f"bessel_j_ref: x must lie in (0, {_PUBLIC_X_CAP:g}]")
    return _j_eval(Fraction(order.nu), Fraction(x), ctx)


def bessel_j_prime_ref(order: Order, x: float, ctx: PrecisionCtx = DEFAULT_CTX) -> EvalResult:
    """J'_nu(x) = (J_{nu-1}(x) - J_{nu+1}(x))/2 for nu >= 1/2.

    The order floor keeps nu-1 inside the series domain; errors of the
    two series calls add.
    """
    if order.nu < 0.5:
        raise DomainError("bessel_j_prime_ref: nu must be >= 1/2")
    if not 0 < x <= _PUBLIC_X_CAP:
        raise DomainError(f"bessel_j_prime_ref: x must lie in (0, {_PUBLIC_X_CAP:g}]")
    jm = _j_eval(Fraction(order.nu) - 1, Fraction(x), ctx)
    jp = _j_eval(Fraction(order.nu) + 1, Fraction(x), ctx)
    value = (jm.value - jp.value) / 2
    err = (jm.abs_err_estimate + jp.abs_err_estimate) / 2 + _FLOAT_ULP * abs(value)
    return EvalResult(value, err)


def _j_prime_any(order: Order, x: float, ctx: PrecisionCtx = DEFAULT_CTX) -> EvalResult:
    # J'_nu = (nu/x) J_nu - J_{nu+1} extends the derivative below nu = 1/2
    if order.nu >= 0.5:
        return bessel_j_prime_ref(order, x, ctx)
    j0 = _j_eval(Fraction(order.nu), Fraction(x), ctx)
    j1 = _j_eval(Fraction(order.nu) + 1, Fraction(x), ctx)
    value = (order.nu / x) * j0.value - j1.value
    err = (abs(order.nu / x) * j0.abs_err_estimate + j1.abs_err_estimate
           + _FLOAT_ULP * abs(value))
    return EvalResult(value, err)


def _order_round_charge(zeta: float) -> float:
    # the Airy path uses the doubles nearest to the thirds as orders, each
    # off by <= 2.8e-17; |dJ_nu/dnu| at fixed argument is within a small
    # factor of (|ln(zeta/2)| + 2) * max(1, (zeta/2)^(-1/3))
    return 6e-17 * (abs(math.log(zeta / 2)) + 2) * max(1.0, (2.0 / zeta) ** (1.0 / 3.0))


_AI0 = None  # Ai(0) = 3^(-2/3)/Gamma(2/3), computed once at high precision


def _ai_zero() -> float:
    global _AI0
    if _AI0 is None:
        g = 60
        v = fx.fdiv(fx.fpow(fx.fix_from(3, g), Fraction(-2, 3), g),
                    _gamma_fixed(Fraction(2, 3), g), g)
        _AI0 = fx.to_float(v, g)
    return _AI0


def airy_ai_neg_ref(x: float, ctx: PrecisionCtx = DEFAULT_CTX) -> EvalResult:
    """Ai(-x) = (sqrt(x)/3)(J_{-1/3}(zeta) + J_{1/3}(zeta)), zeta = 2x^(3/2)/3.

    The value is assembled in floats from the two series results at the
    rounded double zeta, so it is bit-for-bit the reconstruction from
    bessel_j_ref outputs; x = 0 returns the analytic limit
    Ai(0) = 3^(-2/3)/Gamma(2/3).
    """
    if not 0 <= x <= _AIRY_X_CAP:
        raise DomainError(f"airy_ai_neg_ref: x must lie in [0, {_AIRY_X_CAP:g}]")
    if x == 0:
        v = _ai_zero()
        return EvalResult(v, _FLOAT_ULP * abs(v))
    zeta = 2 * x ** 1.5 / 3
    jm = _j_eval(Fraction(-1 / 3), Fraction(zeta), ctx)
    jp = _j_eval(Fraction(1 / 3), Fraction(zeta), ctx)
    root = math.sqrt(x)
    value = root / 3 * (jm.value + jp.value)
    # the rounded zeta (3 float ops) enters through |J'| <= sqrt(2/(pi zeta))
    zeta_err = 1.5 * _FLOAT_ULP * zeta * math.sqrt(2 / (math.pi * zeta))
    err = (root / 3 * (jm.abs_err_estimate + jp.abs_err_estimate
                       + 2 * zeta_err + 2 * _order_round_charge(zeta))
           + 2 * _FLOAT_ULP * (abs(jm.value) + abs(jp.value)) * root / 3)
    return EvalResult(value, err)


def airy_ai_neg_prime_ref(x: float, ctx: PrecisionCtx = DEFAULT_CTX) -> EvalResult:
    """d/dx Ai(-x) = J_{1/3}(zeta)/(3 sqrt(x)) - (x/3)(J_{2/3}(zeta) + J_{4/3}(zeta)).

    Obtained by differentiating the Bessel representation and eliminating
    the nu = -4/3 order through the standard recurrences; the x -> 0 limit
    is -Ai'(0) = 3^(-1/3)/Gamma(1/3).
    """
    if not 0 <= x <= _AIRY_X_CAP:
        raise DomainError(f"airy_ai_neg_prime_ref: x must lie in [0, {_AIRY_X_CAP:g}]")
    if x == 0:
        g = 60
        v = fx.fdiv(fx.fpow(fx.fix_from(3, g), Fraction(-1, 3), g),
                    _gamma_fixed(Fraction(1, 3), g), g)
        val = fx.to_float(v, g)
        return EvalResult(val, _FLOAT_ULP * abs(val))
    zeta = 2 * x ** 1.5 / 3
    j13 = _j_eval(Fraction(1 / 3), Fraction(zeta), ctx)
    j23 = _j_eval(Fraction(2 / 3), Fraction(zeta), ctx)
    j43 = _j_eval(Fraction(4 / 3), Fraction(zeta), ctx)
    root = math.sqrt(x)
    value = j13.value / (3 * root) - x / 3 * (j23.value + j43.value)
    zeta_err = 1.5 * _FLOAT_ULP * zeta * math.sqrt(2 / (math.pi * zeta))
    slop = zeta_err + _order_round_charge(zeta)
    err = (j13.abs_err_estimate / (3 * root)
           + x / 3 * (j23.abs_err_estimate + j43.abs_err_estimate)
           + (1 / (3 * root) + 2 * x / 3) * slop
           + 3 * _FLOAT_ULP * (abs(j13.value) + abs(j23.value) + abs(j43.value)) * max(1.0, x))
    return EvalResult(value, err)


def refine_root(f, bracket, tol: float = 1e-12) -> float:
    """Locate a sign change of f inside bracket to width <= tol.

    Deterministic: plain bisection down to the tolerance, then a few
    secant steps clamped to the final bracket.  Raises ValueError when
    the endpoints do not straddle a root and PrecisionError if the
    iteration budget is exhausted.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("refine_root: no sign change over the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    else:
        raise PrecisionError("refine_root: iteration budget exhausted")
    # secant polish inside the converged bracket
    a, fa, b, fb = lo, flo, hi, fhi
    for _ in range(3):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not lo <= c <= hi:
            break
        fc = f(c)
        a, fa, b, fb = b, fb, c, fc
        if fc == 0:
            break
    return b
