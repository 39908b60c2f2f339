"""Fixed-point decimal arithmetic on plain Python integers.

A value v at d working digits represents the real number v / 10**d.
Everything here is exact integer arithmetic plus explicit rounding, so
the error of every operation is at most one unit in the last place.
This is the substrate for the series oracle: no floats participate
until the final conversion, which is correctly rounded via Fraction.

Transcendental helpers (ln, exp, pi) carry 15-20 guard digits
internally and return results accurate to well under 10**(3-d), which
the callers budget for explicitly.
"""

from fractions import Fraction
from functools import lru_cache
import math

# sqrt-halving steps used by _ln_mantissa; ln(m) <= ln 10 shrinks below
# 3.5e-8 after 25 halvings, putting the atanh series deep in its fast zone
_LN_REDUCTIONS = 25
_EXP_HALVINGS = 11


def rdiv(num: int, den: int) -> int:
    """Round num/den to the nearest integer, ties away from zero."""
    if den < 0:
        num, den = -num, -den
    if num >= 0:
        return (num + den // 2) // den
    return -((-num + den // 2) // den)


def fix_from(value, d: int) -> int:
    """Convert int/float/Fraction/str to fixed point exactly, then round once."""
    f = Fraction(value)
    return rdiv(f.numerator * 10 ** d, f.denominator)


def to_float(v: int, d: int) -> float:
    """Correctly rounded double of the represented value."""
    return float(Fraction(v, 10 ** d))


def rescale(v: int, d_from: int, d_to: int) -> int:
    if d_to >= d_from:
        return v * 10 ** (d_to - d_from)
    return rdiv(v, 10 ** (d_from - d_to))


def fmul(a: int, b: int, d: int) -> int:
    return rdiv(a * b, 10 ** d)


def fdiv(a: int, b: int, d: int) -> int:
    if b == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    return rdiv(a * 10 ** d, b)


def fsqrt(a: int, d: int) -> int:
    """Floor square root in fixed point; error below one ulp."""
    if a < 0:
        raise ValueError("fsqrt of negative value")
    return math.isqrt(a * 10 ** d)


@lru_cache(maxsize=None)
def pi_fixed(d: int) -> int:
    """pi via Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    g = d + 10

    def atan_inv(n: int) -> int:
        # atan(1/n) = sum (-1)^j / ((2j+1) n^(2j+1))
        total = 0
        power = 10 ** g // n
        j = 0
        nsq = n * n
        while power:
            term = power // (2 * j + 1)
            total += -term if j & 1 else term
            power //= nsq
            j += 1
        return total

    v = 16 * atan_inv(5) - 4 * atan_inv(239)
    return rescale(v, g, d)


def _ln_mantissa(m: int, g: int) -> int:
    """ln of a fixed-point value in [1, 10), at g digits."""
    one = 10 ** g
    for _ in range(_LN_REDUCTIONS):
        m = fsqrt(m, g)
    u = fdiv(m - one, m + one, g)
    total = u
    usq = fmul(u, u, g)
    term = u
    j = 3
    while term:
        term = fmul(term, usq, g)
        total += rdiv(term, j)
        j += 2
    # undo the sqrt halvings: ln m = 2^k * (2 atanh u)
    return total << (_LN_REDUCTIONS + 1)


@lru_cache(maxsize=None)
def ln10_fixed(d: int) -> int:
    g = d + 10
    return rescale(_ln_mantissa(10 * 10 ** g, g), g, d)


def fln(a: int, d: int) -> int:
    """Natural log of a positive fixed-point value."""
    if a <= 0:
        raise ValueError("fln of non-positive value")
    g = d + 20
    av = rescale(a, d, g)
    if av <= 0:
        raise ValueError("fln argument underflows working precision")
    # split av = m * 10^e with m in [1, 10) (both at scale 10^g)
    e = len(str(av)) - 1 - g
    if e > 0:
        m = rdiv(av, 10 ** e)
    else:
        m = av * 10 ** (-e)
    v = _ln_mantissa(m, g) + e * ln10_fixed(g)
    return rescale(v, g, d)


def fexp(a: int, d: int) -> int:
    """exp of a fixed-point value; exact power-of-ten shift for the decade part."""
    g = d + 20
    av = rescale(a, d, g)
    ln10 = ln10_fixed(g)
    q = av // ln10
    r = av - q * ln10  # in [0, ln 10)
    one = 10 ** g
    r2 = rdiv(r, 1 << _EXP_HALVINGS)
    total = one + r2
    term = r2
    j = 2
    while term:
        term = rdiv(term * r2, j * one)
        total += term
        j += 1
    for _ in range(_EXP_HALVINGS):
        total = fmul(total, total, g)
    shift = q + d - g
    if shift >= 0:
        return total * 10 ** shift
    return rdiv(total, 10 ** (-shift))

