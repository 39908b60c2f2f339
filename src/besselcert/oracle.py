"""Ground-truth evaluation of J_nu(x), J'_nu(x), Ai(-x), and Gamma.

Everything else in the package is tested against these routines, so they
are not built on doubles: the defining power series of J_nu alternates and
cancels up to about 0.45*x decimal digits at argument x, which is fatal in
binary64 beyond x of a few tens.

The series is split as J_nu(x) = P * S.  S = sum_j (-1)^j u_j starts at
u_0 = 1 and is summed on integers scaled by 10^d, d = 40 + ceil(0.45x) digits,
with the exact rational term ratio of x and nu, so every term keeps its
digits at any order.  The prefactor P = (x/2)^nu / Gamma(nu+1) has no
cancellation but spans hundreds of decades.  It is one exponential of
nu ln(x/2) - ln Gamma(nu+1) over a power of two, on 160-bit fixed-point
integers, with ln Gamma(nu+1) cached per order as Stirling's series less
the ln of its exact shift product.  The ln and the exp reduce their
argument by one table each; the tables and constants come from the same
integer atanh and exp series.  P is within about 1e-35 relative and is
applied once, in the conversion to a double.

Every result carries an absolute error estimate and is cached finished.
The series' own bound, 3 ulp per term plus 20 against P times the largest
term, and P's error give an enclosure of J.  Where both its ends round to
the returned double (Ziv's test: A. Ziv, ACM TOMS 17(3), 1991), that double
is J correctly rounded and the estimate is one ulp; elsewhere it is the
bound plus the float rounding.  The accuracy target is fixed: relative
error 1e-12 (absolute 1e-22 where |J| < 1e-10); where cancellation leaves
less than that, the call raises PrecisionError instead.

Past x = 100 Hankel's expansion is tried first, at every order, on the same
160-bit integers: P and Q from their exact term ratios, the phase reduced
mod pi/2 on guard bits, its cos and sin by Taylor's series and sqrt(2/(pi
x)) by isqrt.  Before the turning point 2k - 1 = 2 nu its terms may grow, up
to 2^64, with each one's truncation error carried as an integer bound; past
it they must halve.  Its radius R, in ulps, adds those bounds, the first
neglected terms (DLMF 10.17(iii), which asks for enough terms at large
orders), the reduction's and pi's errors and the cos/sin tails, scaled by
the computed |P| + |Q|.  It takes a sixth to four fifths of the series' time
(the most as nu nears 60 and x nears 100), and at x > 100 it admits every
order up to about 100.  Wherever it admits (nu, x) the enclosure answers
alone: where it passes Ziv's test, that double, the series' own, with one
ulp; where it straddles, the double nearest its midpoint, with R plus the
float rounding as its error.  Elsewhere the series answers.  Past x = 200
only the Airy paths call J: orders -1/3, 1/3, 2/3 and 4/3 at zeta =
2x^(3/2)/3 up to 876, where the series needs up to 435 digits.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import math
import sys

_PUBLIC_X_CAP = 200.0
# past it _j_series_fixed tries Hankel's expansion before the series
_HANKEL_X = 100.0
_AIRY_X_CAP = 120.0
_DIGIT_CAP = 500
# Hankel's terms may grow before the turning point, to 2^64 at most: R then
# stays below 2^66 ulps, 2^-94, 2^38 below the ulp of |J| = 1/16.  At x > 100
# the cap admits nu up to about 101 (x = 101) to 140 (x = 199), well past
# nu = 60, and a huge order passes it within a few steps
_HANKEL_TERM_BITS = 64
_TERM_CAP = 5000
# float conversion plus a couple of float ops, per rounding step
_FLOAT_ULP = 2.3e-16
# relative accuracy every J evaluation must reach (absolute below |J| = 1e-10)
_TARGET_REL_ERR = 1e-12


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


def check_domain(domains: dict, name: str, *args) -> None:
    """Raise DomainError(f"{name}: {message}") for the first (predicate, message)
    rule of domains[name], a module's table of ordered rules, failing on args.
    Unknown names are rules too: message.format(*args) lets one quote the name."""
    for ok, message in domains[name]:
        if not ok(*args):
            raise DomainError(f"{name}: {message.format(*args)}")


def _is_double(f, *args) -> bool:
    """Whether f(*args) is finite: no power overflowed, no divisor underflowed to 0."""
    try:
        return math.isfinite(f(*args))
    except (OverflowError, ZeroDivisionError):
        return False


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
class EvalResult:
    """A value together with the oracle's own absolute error estimate."""

    value: float
    abs_err_estimate: float


def _certified_sign(result: EvalResult) -> int | None:
    """+1 or -1, the sign of result.value where |value| clears its estimate, else None."""
    if abs(result.value) > result.abs_err_estimate:
        return 1 if result.value > 0 else -1
    return None


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: holds iff margin = rhs - lhs clears the slack."""

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool


def _make(name: str, lhs: float, rhs: float, strict: bool, slack: float) -> BoundReport:
    margin = rhs - lhs
    holds = margin > slack if strict else margin >= -slack
    return BoundReport(name, lhs, rhs, margin, holds)


def _bernoulli_numbers(m: int) -> tuple[tuple[int, int], ...]:
    """B_0, ..., B_m as reduced integer pairs (num, den), den > 0.

    B_0 = 1 and sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1, each B_k summed
    exactly over the common denominator of the earlier B_j.
    """
    b = [(1, 1)]
    for k in range(1, m + 1):
        num, den = 0, 1
        for j, (b_num, b_den) in enumerate(b):
            num, den = num * b_den + math.comb(k + 1, j) * b_num * den, den * b_den
        num, den = -num, den * (k + 1)
        g = math.gcd(num, den)
        b.append((num // g, den // g))
    return tuple(b)


# The prefactor and ln Gamma run in binary fixed point: an int y stands for y/2^_FB.
_FB = 160
_BERNOULLI = _bernoulli_numbers(32)
# Stirling's coefficients B_2n / (2n (2n-1)) for n = 1, ..., 16, in fixed point, rounded down
_STIRLING = tuple((num << _FB) // (den * (2 * n) * (2 * n - 1))
                  for n, (num, den) in enumerate(_BERNOULLI[2::2], 1))


def _atanh(s: int) -> int:
    """atanh(s) = s + s^3/3 + ... for fixed-point 0 <= s <= 1/3, until s^n truncates
    to 0; each step truncates down, so it is within 2 ulp (2^-160) per term."""
    s2 = s * s >> _FB
    term = acc = s
    n = 3
    while term:
        term = term * s2 >> _FB
        acc += term // n
        n += 2
    return acc


def _taylor(f: int) -> list[int]:
    """f^k/k! for fixed-point f, k = 0, 1, ..., through the first term that truncates
    to 0; each truncates down once, by less than 2 ulp with the error it inherits."""
    term = 1 << _FB
    terms = [term]
    k = 1
    while term:
        term = (term * f >> _FB) // k
        terms.append(term)
        k += 1
    return terms


def _exp_series(f: int) -> int:
    """exp(f) for fixed-point 0 <= f < 1 from _taylor: within 2 ulp a term plus 2 for the tail."""
    return sum(_taylor(f))


def _cos_sin(f: int) -> tuple[int, int, int]:
    """(cos f, sin f, err) for fixed-point 0 <= f <= 1.6 from _taylor's terms, whose
    signs run + + - - from k = 0.  The tail left is below 4 ulp, so err = 2 ulp per
    term bounds either result's error."""
    t = _taylor(f)
    return sum(t[0::4]) - sum(t[2::4]), sum(t[1::4]) - sum(t[3::4]), 2 * len(t)


_LN2 = 2 * _atanh((1 << _FB) // 3)  # ln 2 = 2 atanh(1/3), 50 terms: within 1.4e-46


@lru_cache(maxsize=None)
def _ln_small(h: int) -> int:
    """ln h for 1 <= h < 1024: the table behind _ln_int, filled on demand."""
    k = h.bit_length() - 1
    return k * _LN2 + 2 * _atanh(((h - (1 << k)) << _FB) // (h + (1 << k)))


def _ln_int(a: int) -> int:
    """ln a for an integer a >= 1, within (e + 11) 1.4e-46 for a of e + 10 bits.

    a = h 2^e (1 + t), h the top 10 bits of a, 0 <= t < 2^-9: ln a =
    ln h + e ln 2 + 2 atanh(s), s = t/(2+t) < 2^-10.  The table's ln h is
    within 1.4e-45 (k ln 2, k <= 9), and 2 atanh(s), 8 terms at most, within 2.3e-47.
    """
    e = max(0, a.bit_length() - 10)
    h = a >> e
    ln = _ln_small(h) + e * _LN2
    rem = a - (h << e)
    if rem:
        ln += 2 * _atanh((rem << _FB) // ((h << (e + 1)) + rem))
    return ln


def _ln_half(x: float) -> int:
    """ln(x/2) = ln a - ln(2b) for a positive double x = a/b, 2b = 2^b.bit_length()."""
    a, b = x.as_integer_ratio()
    return _ln_int(a) - b.bit_length() * _LN2


_PI_62 = 314159265358979323846264338327950288419716939937510582097494459  # pi 10^62, within 1
_HALF_LN_2PI = (_ln_int((_PI_62 << _FB) // 10 ** 62) - 159 * _LN2) // 2  # (ln(pi 2^160) - 159 ln 2)/2


@lru_cache(maxsize=4096)
def _ln_gamma(p: int, r: int) -> int:
    """ln Gamma(z) for z = p/r > 0 in fixed point, cached per exact z: ln Gamma(w)
    less the ln of the exact shift product num/den = prod_{i<k} (z+i), w = z + k >= 30.

    ln Gamma(w) is Stirling's series in fixed point,
    (w - 1/2) ln w - w + ln(2 pi)/2 + sum_{n>=1} B_2n / (2n (2n-1) w^(2n-1)),
    with ln w = ln(p + kr) - ln r from _ln_int, which serves the Airy
    thirds (r = 3) as it serves the dyadic orders.  The powers w^(1-2n)
    step by the fixed-point 1/w^2, each product truncating by 1 ulp.  The
    sum stops where the fixed-point w^(1-2n) is 0, by n = 17, so it reads at
    most _STIRLING's 16 entries, and leaves out less than its first omitted
    term, 7e-41 at w = 30.  It cannot diverge first: for w >= 30 the terms
    shrink until n ~ pi w ~ 94 but fall below 2^-160 by n = 23.  The shift
    product, 1000 to 2000 bits below z = 30, enters only through the two
    _ln_int of num and den, which add below 3e-43 together, under
    Stirling's omitted term.
    """
    k = max(0, -((p - 30 * r) // r))
    num = 1
    for i in range(k):
        num *= p + i * r
    q = p + k * r  # w = q/r
    ln_w = _ln_int(q) - _ln_int(r)
    acc = (2 * q - r) * ln_w // (2 * r) - (q << _FB) // r + _HALF_LN_2PI
    pw, inv_w2 = (r << _FB) // q, (r * r << _FB) // (q * q)
    n = 0
    while pw:
        acc += _STIRLING[n] * pw >> _FB
        pw = pw * inv_w2 >> _FB
        n += 1
    return acc - _ln_int(num) + _ln_int(r ** k)


@lru_cache(maxsize=None)
def _exp_table(i: int) -> int:
    """exp(i/256) in fixed point for 0 <= i < 178."""
    return _exp_series(i << (_FB - 8))


def _exp_ratio(y: int) -> tuple[int, int]:
    """(num, den) with exp(y/2^_FB) = num/den within (|n| + 1) 1.4e-46 relative.

    y = n ln 2 + i/256 + f, 0 <= f < 1/256: 2^n goes in exactly, the table
    gives exp(i/256) within 4e-47 relative and Taylor exp(f) within 2.5e-47,
    and ln 2's error moves the reduction by |n| 1.4e-46.  Below n = -10^5 it
    is (0, 1), as every double made from such a P is 0.
    """
    n, r = divmod(y, _LN2)
    if n < -10 ** 5:
        return 0, 1
    i = r >> (_FB - 8)
    num, shift = _exp_table(i) * _exp_series(r - (i << (_FB - 8))), 2 * _FB - n
    return (num, 1 << shift) if shift >= 0 else (num << -shift, 1)


def gamma(z: float) -> float:
    """Gamma(z) for 0 < z < 64, relative error well below 1e-25; z >= 5.6e-309,
    where Gamma(z) ~ 1/z is a double."""
    check_domain(_DOMAINS, "gamma", z)
    m_num, m_den = _exp_ratio(_ln_gamma(*z.as_integer_ratio()))
    return m_num / m_den


def _digits_for(x: float) -> int:
    # cancellation eats up to 0.45 x digits of the largest term; 40 remain
    d = 40 + math.ceil(0.45 * x)
    if d > _DIGIT_CAP:
        raise PrecisionError(f"x={x} needs {d} working digits (cap {_DIGIT_CAP})")
    return d


def _prefactor(nu: tuple[int, int], x: float) -> tuple[int, int]:
    """(num, den) with (x/2)^nu / Gamma(nu+1) = num / den to ~1e-35 relative, den
    a power of two.

    nu = p/r.  The prefactor has no cancellation, so it is computed at a
    fixed precision whatever the series needs: one _exp_ratio of
    nu ln(x/2) - ln Gamma(nu+1), ln Gamma(nu+1) cached per order.  The
    exponent's absolute error, below about 1e-40 + 1e-42 |nu|, is P's
    relative one.
    """
    p, r = nu
    ln_gamma = _ln_gamma(p + r, r)
    return _exp_ratio(p * _ln_half(x) // r - ln_gamma if p else -ln_gamma)


def _j_hankel(nu: tuple[int, int], x: float) -> tuple[int, int] | None:
    """(V, R) with |J_nu(x) 2^_FB - V| <= R by Hankel's expansion, for x > 100, or
    None where a term grows past 2^_HANKEL_TERM_BITS, where the terms stop
    halving past the turning point, or where they are too few for DLMF
    10.17(iii).

    J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (nu/2 + 1/4) pi,
    with P = t_0 - t_2 + t_4 - ... and Q = t_1 - t_3 + ... (DLMF 10.17.3).
    t_0 = 1 and t_k/t_(k-1) is the exact (4p^2 - (2k-1)^2 r^2) b / (8k a r^2) for
    nu = p/r and x = a/b, of size rho_k.  The terms run on _FB-bit integers,
    each truncating down, until one truncates to 0.  Before the turning
    point 2k - 1 = 2|nu| rho_k falls as k grows, so the terms may grow only
    at first, while rho_k > 1; past it rho_k rises, and each must stay
    within 1/2, so the terms reach 0.  A computed term's error stays below
    the integer E_k = ceil(rho_k E_(k-1)) + 1, E_0 = 0, in ulps: the loop
    carries it while rho_k > 1 and bounds it by E_(k-1) + 1 from then on.
    At the zero term t_(k-1) the true term is below E_(k-1) and t_k below
    ceil(rho_k E_(k-1)) < E_k, so the sum D of E_1, ..., E_k bounds the
    computed terms' errors and both neglected terms.  P and Q depend on
    nu^2 alone, and by DLMF 10.17(iii) each sum's remainder is below its
    first neglected term once P holds l >= |nu|/2 - 1/4 terms and Q l >=
    |nu|/2 - 3/4, both at least one, whatever the terms did before.
    Counting the zero term as neglected, P holds k//2 terms and Q (k-1)//2
    at the loop's end; Q holds none only where t_1 = 0 exactly, at |nu| =
    1/2, where P = 1 and Q = 0.  Where a count falls short the path
    declines, so the computed P~ and Q~ are within D together.  chi is
    reduced mod pi/2 on 32 guard bits from _PI_62, within 2 ulp once
    shifted back, and _cos_sin gives cos and sin within dcos; with the
    reduction's dchi, each is within dcs = dcos + dchi.  sqrt(2/(pi x)) is
    one isqrt, below 1 and within 2 ulp.

    R adds these.  P cos chi - Q sin chi is within D + A dcs 2^-_FB of
    P~ cos~ - Q~ sin~, as |cos|, |sin| <= 1, with the amplitude A = |P~| +
    |Q~| (at most the sum of the |t_k|), plus 1 where that product
    truncates.  The root's 2 ulp against |P cos chi - Q sin chi| <= A + D
    add 2 (A + D) 2^-_FB, and the last product truncates by 1 more:
    R = D + (A (dcs + 2) + 2D) 2^-_FB + 3, rounded up.
    """
    a, b = x.as_integer_ratio()
    p, r = nu
    one = 1 << _FB
    p4, r2, den8 = 4 * p * p, r * r, 8 * a * r * r
    pq, term, neg, k, m = [one, 0], one, False, 1, 1
    e = err = 0
    while True:
        num, den = (p4 - (2 * k - 1) ** 2 * r2) * b, k * den8
        if 2 * num < -den:  # past the turning point each term must halve
            return None
        if not term:  # t_(k-1) is the zero term
            break
        term = term * abs(num) // den
        if num > den:  # rho_k > 1, before the turning point: t_k and E_k may grow
            if term >> (_FB + _HANKEL_TERM_BITS):
                return None
            e = -(-num * e // den) + 1
            err += e
            m = k + 1  # from t_m on rho_k <= 1, so E_k <= E_(k-1) + 1
        neg ^= num < 0
        pq[k & 1] += -term if neg ^ bool(k & 2) else term  # (-1)^(k//2) t_k
        k += 1
    # E_m + ... + E_k <= j e + j (j + 1)/2, j = k - m + 1: the errors of t_m,
    # ..., t_(k-2) and the bounds of the neglected t_(k-1) and t_k
    j = k - m + 1
    err += j * e + j * (j + 1) // 2
    if 4 * r * (k // 2) < 2 * abs(p) - r or 4 * r * ((k - 1) // 2) < 2 * abs(p) - 3 * r:
        return None  # DLMF 10.17(iii)'s term counts
    big_p, big_q = pq
    w = _FB + 32
    half_pi = (_PI_62 << (w - 1)) // 10 ** 62  # pi/2 2^w, within 1.01
    # chi 2^w within 2 + 1.01 |nu + 1/2|, and n pi/2 off by 1.01 |n| more
    n, f = divmod((a << w) // b - (2 * p + r) * half_pi // (2 * r), half_pi)
    dchi = 2 + ((3 + abs(2 * p + r) // r + 2 * abs(n)) >> (w - _FB))
    c, s, dcos = _cos_sin(f >> (w - _FB))
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n % 4]
    root = math.isqrt((b << (2 * _FB + w)) // (a * half_pi))
    amp = abs(big_p) + abs(big_q)
    radius = err + ((amp * (dcos + dchi + 2) + 2 * err) >> _FB) + 3
    return root * ((big_p * c - big_q * s) >> _FB) >> _FB, radius


def _on_target(value: float, err: float) -> EvalResult:
    """EvalResult(value, err), or PrecisionError where err passes the 1e-12 target."""
    if err > _TARGET_REL_ERR * max(abs(value), 1e-10):
        raise PrecisionError("series error estimate exceeds the 1e-12 target")
    return EvalResult(value, err)


def _certified(value: float, err: float) -> EvalResult:
    """_on_target(value, err + the float rounding)."""
    # below the normal range a double's rounding error is absolute
    return _on_target(value, err + _FLOAT_ULP * abs(value) + math.ulp(0.0))


def _ziv(lo: int, hi: int, den: int) -> EvalResult | None:
    """_on_target(v, ulp(v)) where both ends of J's enclosure [lo, hi]/den round to
    one double v other than 0, else None.

    This is Ziv's test: rounding to nearest is monotone, so J rounds to v
    too, and v is J correctly rounded.  Its error is then at most half an
    ulp of v, also in the subnormals; the estimate states one ulp.  A 0 is
    left to the caller, whose own division gives it J's sign."""
    v = lo / den
    if v and v == hi / den:
        return _on_target(v, math.ulp(v))
    return None


@lru_cache(maxsize=200000)
def _j_series_fixed(nu: tuple[int, int], x: float) -> EvalResult:
    """J_nu(x) for a double x as its certified EvalResult: J correctly rounded, with
    one ulp as its estimate, wherever Ziv's test passes (see _ziv).

    Past x = 100, at every order, _j_hankel's enclosure [V - R, V + R] 2^-_FB
    is tried first, and wherever it admits (nu, x), which is every order up
    to about 100 there, it answers alone: the double both ends round to
    where they pass Ziv's test, else the double nearest V 2^-_FB, with R
    2^-_FB as its error, to which _certified adds the half ulp that
    rounding V costs.  Everywhere else the series answers, summed at d =
    _digits_for(x) digits: below x = 100, and past it at orders whose
    Hankel terms grow past 2^64.

    J_nu(x) = P sum_j (-1)^j u_j, P = (x/2)^nu / Gamma(nu+1) (see _prefactor).
    The u_j = (x^2/4)^j / (j! (nu+1)_j) run on integers from u_0 = 10^d,
    through the exact ratio a^2 r / (4 b^2 t), t = j (j r + p), for x = a/b
    and nu = p/r: each step rounds once, by half an ulp at most.  x is a
    double, so 4 b^2 = 2^m and the rounded step
    floor((u a^2 r + 2^(m-1) t) / (2^m t)) equals
    floor(((u a^2 r >> (m-1)) + t) / (2t)): the power of two leaves the
    divisor as a shift, for any r.  While 2^m t <= a^2 r the ratio is at
    least 1, so the rounded terms do not fall and the largest is the last
    of them; then they do not rise, and the sum runs two terms a pass, its
    even and odd sums apart, to the first 0; a first 0 at j >= _TERM_CAP
    raises PrecisionError.  On the scale of u_0 the sum s is within E =
    (3j + 20) tmax 10^-d (3 ulp per term, plus 20, against the largest term
    tmax, with no floor), and P within 1e-35 relative, so J lies in [s - e,
    s + e] P 10^-d for any e >= E + (|s| + E) 1e-35; e divides by powers of
    two instead, so it is at most about twice that.  Where both ends of
    that enclosure round to one double other than 0, it answers with one
    ulp; elsewhere s P 10^-d answers, with E P 10^-d plus the float rounding
    as its error.  Each double comes from one correctly rounded integer
    division (as Fraction's float() does, less its gcd).  Every exit
    finishes through _on_target, so a hit returns the cached object with no
    arithmetic, and a sum that cancels below the 1e-12 target raises inside
    the call: a refusal is not cached, and a repeated refused call reruns
    its series.
    """
    if x > _HANKEL_X and (enclosure := _j_hankel(nu, x)):
        v, radius = enclosure
        return (_ziv(v - radius, v + radius, 1 << _FB)
                or _certified(v / (1 << _FB), radius / (1 << _FB)))
    a, b = x.as_integer_ratio()
    p, r = nu
    one = 10 ** _digits_for(x)
    # u_j = ((u_(j-1) mul >> shift) + t) // (2t), t = j (j r + p) advanced by its differences
    mul, shift, r2 = a * a * r, 2 * b.bit_length() - 1, 2 * r
    t, dt, lim = r + p, 3 * r + p, mul >> (shift + 1)
    u = last = one  # last: the sum of the terms of the last index's parity, nxt the other's
    nxt = j = 0
    while t <= lim:  # ratio >= 1: the terms do not fall
        u = ((u * mul >> shift) + t) // (t + t)
        nxt, last = last, nxt + u
        j, t, dt = j + 1, t + dt, dt + r2
    tmax = u
    while u:  # ratio < 1: two terms a pass, to the first 0
        w = ((u * mul >> shift) + t) // (t + t)
        t, dt = t + dt, dt + r2
        u = ((w * mul >> shift) + t) // (t + t)
        nxt, last = nxt + w, last + u
        j, t, dt = j + 2, t + dt, dt + r2
    s = nxt - last if j & 1 else last - nxt
    if not w:  # the pass's first term was the first 0
        j -= 1
    if j >= _TERM_CAP:
        raise PrecisionError("series did not terminate within the term cap")
    num, den = _prefactor(nu, x)
    den *= one
    # E over the power of two below 10^d, then 2^-116 > 1e-35 of P's error
    e = ((3 * j + 20) * tmax >> one.bit_length() - 1) + 1
    e += (abs(s) + e >> 116) + 1
    return (_ziv((s - e) * num, (s + e) * num, den)
            or _certified(s * num / den, (3 * j + 20) * tmax * num / (den * one)))


def bessel_j_ref(order: Order, x: float) -> EvalResult:
    """J_nu(x), correctly rounded with one ulp as its estimate wherever Ziv's test
    passes on the series' or Hankel's enclosure (see _j_series_fixed).

    The target is fixed: relative error <= 1e-12 wherever |J| > 1e-10 and
    absolute error <= 1e-22 elsewhere, else PrecisionError; the returned
    estimate is typically many orders smaller.  nu >= -1/2 and 0 < x <= 200.
    """
    check_domain(_DOMAINS, "bessel_j_ref", order, x)
    return _j_series_fixed(order.nu.as_integer_ratio(), float(x))  # a dyadic x for _ln_half


def bessel_j_prime_ref(order: Order, x: float) -> EvalResult:
    """J'_nu(x) = (J_{nu-1}(x) - J_{nu+1}(x))/2 for nu >= 1/2.

    The order floor keeps nu-1 inside the series domain; errors of the
    two series calls add.
    """
    check_domain(_DOMAINS, "bessel_j_prime_ref", order, x)
    return _j_prime_any(order, x)


def _j_prime_any(order: Order, x: float) -> EvalResult:
    # J'_nu = (J_{nu-1} - J_{nu+1})/2 for nu >= 1/2; below, (nu/x) J_nu - J_{nu+1}
    p, r = order.nu.as_integer_ratio()
    x = float(x)
    if order.nu >= 0.5:
        j0, j1 = _j_series_fixed((p - r, r), x), _j_series_fixed((p + r, r), x)
        value = (j0.value - j1.value) / 2
        err = (j0.abs_err_estimate + j1.abs_err_estimate) / 2
    else:
        j0, j1 = _j_series_fixed((p, r), x), _j_series_fixed((p + r, r), x)
        value = (order.nu / x) * j0.value - j1.value
        err = abs(order.nu / x) * j0.abs_err_estimate + j1.abs_err_estimate
    return EvalResult(value, err + _FLOAT_ULP * abs(value))


# the Airy paths' orders: the doubles nearest -1/3, 1/3, 2/3 and 4/3
_NU_M13, _NU_13, _NU_23, _NU_43 = ((k / 3).as_integer_ratio() for k in (-1, 1, 2, 4))


def _airy_origin(k: int) -> EvalResult:
    """3^(-k/3)/Gamma(k/3), within a double's rounding: Ai(0) for k = 2, -Ai'(0) for k = 1."""
    m_num, m_den = _exp_ratio(-k * _ln_small(3) // 3 - _ln_gamma(k, 3))
    v = m_num / m_den
    return EvalResult(v, _FLOAT_ULP * abs(v))


def _airy_js(x: float, orders: tuple[tuple[int, int], ...]) -> tuple | None:
    """sqrt(x), zeta's two rounding charges and J at zeta = 2x^(3/2)/3 for each of orders.

    The result is (sqrt(x), zeta_err, order_err, J...), or None where zeta
    is 0 or subnormal.  The rounded zeta (3 float ops) enters through |J'|
    <= sqrt(2/(pi zeta)).  The orders are the doubles nearest to the
    thirds, each off by <= 2.8e-17; |dJ_nu/dnu| at fixed argument is within
    a small factor of (|ln(zeta/2)| + 2) * max(1, (zeta/2)^(-1/3)).
    """
    zeta = 2 * x ** 1.5 / 3
    if zeta < sys.float_info.min:
        return None
    zeta_err = 1.5 * _FLOAT_ULP * zeta * math.sqrt(2 / (math.pi * zeta))
    order_err = 6e-17 * (abs(math.log(zeta / 2)) + 2) * max(1.0, (2.0 / zeta) ** (1.0 / 3.0))
    return (math.sqrt(x), zeta_err, order_err, *(_j_series_fixed(nu, zeta) for nu in orders))


def airy_ai_neg_ref(x: float) -> EvalResult:
    """Ai(-x) = (sqrt(x)/3)(J_{-1/3}(zeta) + J_{1/3}(zeta)), zeta = 2x^(3/2)/3.

    The value is assembled in floats from the two series results at the
    rounded double zeta, so it is bit-for-bit the reconstruction from
    bessel_j_ref outputs.  Where zeta is 0 or subnormal (x below 1.04e-205)
    it returns the analytic limit Ai(0) = 3^(-2/3)/Gamma(2/3), which is off
    by at most |Ai'(0)| x < 0.26x < 3e-206 there.
    """
    check_domain(_DOMAINS, "airy_ai_neg_ref", x)
    if (js := _airy_js(x, (_NU_M13, _NU_13))) is None:
        return _airy_origin(2)
    root, zeta_err, order_err, jm, jp = js
    value = root / 3 * (jm.value + jp.value)
    err = (root / 3 * (jm.abs_err_estimate + jp.abs_err_estimate
                       + 2 * zeta_err + 2 * order_err)
           + 2 * _FLOAT_ULP * (abs(jm.value) + abs(jp.value)) * root / 3)
    return EvalResult(value, err)


def airy_ai_neg_prime_ref(x: float) -> EvalResult:
    """d/dx Ai(-x) = J_{1/3}(zeta)/(3 sqrt(x)) - (x/3)(J_{2/3}(zeta) + J_{4/3}(zeta)).

    Obtained by differentiating the Bessel representation and eliminating
    the nu = -4/3 order through the standard recurrences.  Where zeta is 0
    or subnormal it returns the x -> 0 limit -Ai'(0) = 3^(-1/3)/Gamma(1/3),
    which is off by at most Ai(0) x^2/2 < 1e-410 there.
    """
    check_domain(_DOMAINS, "airy_ai_neg_prime_ref", x)
    if (js := _airy_js(x, (_NU_13, _NU_23, _NU_43))) is None:
        return _airy_origin(1)
    root, zeta_err, order_err, j13, j23, j43 = js
    value = j13.value / (3 * root) - x / 3 * (j23.value + j43.value)
    slop = zeta_err + order_err
    err = (j13.abs_err_estimate / (3 * root)
           + x / 3 * (j23.abs_err_estimate + j43.abs_err_estimate)
           + (1 / (3 * root) + 2 * x / 3) * slop
           + 3 * _FLOAT_ULP * (abs(j13.value) + abs(j23.value) + abs(j43.value)) * max(1.0, x))
    return EvalResult(value, err)


_J_X = (lambda order, x: 0 < x <= _PUBLIC_X_CAP, f"x must lie in (0, {_PUBLIC_X_CAP:g}]")
_AIRY_X = ((lambda x: 0 <= x <= _AIRY_X_CAP, f"x must lie in [0, {_AIRY_X_CAP:g}]"),)
# the order rules take the order first, whatever follows it
_NU_FLOOR = (lambda order, *_: not order.nu < -0.5, "nu must be >= -1/2")
_FINITE_NU = (lambda order, *_: math.isfinite(order.nu), "nu must be finite")
_DOMAINS = {  # the entry points' domains, as check_domain reads them
    "gamma": ((lambda z: 0 < z < 64, "z must lie in (0, 64)"),
              (lambda z: 1 / z < math.inf, "Gamma(z) ~ 1/z leaves the doubles")),
    "bessel_j_ref": (_NU_FLOOR, _FINITE_NU, _J_X),
    "bessel_j_prime_ref": ((lambda order, x: not order.nu < 0.5, "nu must be >= 1/2"), _FINITE_NU,
                           _J_X),
    "airy_ai_neg_ref": _AIRY_X,
    "airy_ai_neg_prime_ref": _AIRY_X,
    "refine_root": ((lambda lo, hi: math.isfinite(lo) and math.isfinite(hi) and lo <= hi,
                     "bracket must be a finite interval with lo <= hi"),),
}


def _secant(value, a, fa, b, fb, steps: int, tol: float = 0.0) -> float:
    """The last of up to steps secant iterates from a < b, each kept in [a, b];
    it stops after a step of at most tol."""
    lo, hi = a, b
    for _ in range(steps):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not lo <= c <= hi:
            break
        a, fa, b, fb = b, fb, c, value(c)
        if fb == 0 or abs(b - a) <= tol:
            break
    return b


def _cell(value, lo, hi, tol: float, p: float, q: float, up: bool) -> tuple[float, float]:
    """The cell bisection of [lo, hi] ends in, of width <= tol or no longer
    split by its midpoint.  A midpoint inside [p, q] takes the side of
    value's sign there, hi's where it is up's, and an exact 0 ends the
    descent at [mid, mid]; a midpoint outside [p, q] takes q's side when it
    lies past q, lo's otherwise, without a call.  Raises PrecisionError if
    the 200-step budget is exhausted."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            return lo, hi
        if p <= mid <= q:
            fm = value(mid)
            if fm == 0:
                return mid, mid
            right = (fm > 0) == up
        else:
            right = mid > q
        lo, hi = (lo, mid) if right else (mid, hi)
    raise PrecisionError("refine_root: iteration budget exhausted")


def refine_root(f, bracket, tol: float = 1e-12) -> float:
    """Locate a sign change of f inside bracket to width <= tol.

    Deterministic: bisection down to the tolerance, then up to three secant
    steps clamped to the final bracket; an exact 0 at a midpoint is
    returned as it is.  f is called only where that bisection cannot tell
    the branch.  Up to seven secant steps inside the bracket, ending after
    one of at most tol, reach an iterate b.  The bisection descent is run
    twice.  It runs as it would with every midpoint evaluated, except that
    a midpoint outside [p, q] takes the branch of its side without a call.
    Run first with [p, q] = [b, b], it reads no value but b's own and ends
    in the cell bisection would end in were the sign change at b; f is
    evaluated at both its ends.  Those points give the evaluated p < q
    that enclose every sign change f's values show: all points evaluated
    up to p read as lo's side, all from q on as hi's.  [p, q] is then
    usually that final cell, so the second run evaluates no midpoint
    strictly inside it; where the cell misses, its ends are two more
    evaluated points.  f is evaluated at the final ends before the polish,
    so the polish reads f's own values.

    The result is plain bisection's double whenever f changes sign once on
    the bracket and its computed sign is right outside [p, q], as each
    caller's lemma (Sturm gaps, the hump lemma, a monotone log-derivative)
    provides.  For any f it is a point at which f was evaluated, and it
    lies within tol of a sign change of f's values: an evaluated 0, or two
    evaluated points of opposite sign inside the final bracket, which
    always holds p or q when an end was skipped.  Raises DomainError
    unless the bracket is finite with lo <= hi, ValueError when the
    endpoints do not straddle a root and PrecisionError if the 200-step
    budget is exhausted.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    check_domain(_DOMAINS, "refine_root", lo, hi)
    seen = {}

    def value(t):
        if t not in seen:
            seen[t] = f(t)
        return seen[t]

    flo, fhi = value(lo), value(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    up = fhi > 0
    if (flo > 0) == up:
        raise ValueError("refine_root: no sign change over the bracket")
    p, q = lo, hi
    if hi - lo > tol:  # else the descent below stops at once
        # at most 7 steps: with 6 the secant stops short of the final cell at
        # some leftmost maxima near nu = 2.4, 7 to 40 cost the same calls
        # there, and on a multiple root, where the secant converges linearly,
        # each step past 7 costs a call
        b = _secant(value, lo, flo, hi, fhi, 7, tol)
        # the ends of the cell bisection would end in were the sign change at b
        a, c = _cell(value, lo, hi, tol, b, b, up)
        value(a), value(c)
        # the last point before the first on hi's side, the first after the last on lo's
        xs = sorted(seen)
        side = [(seen[x] > 0) == up for x in xs]
        p, q = xs[side.index(True) - 1], xs[len(side) - side[::-1].index(False)]
    lo, hi = _cell(value, lo, hi, tol, p, q, up)
    # secant polish inside the converged bracket
    return _secant(value, lo, value(lo), hi, value(hi), 3)
