"""The oracle's prefactor as it was before ln Gamma(nu+1) became one cached
fixed-point number: ln Gamma split as (ln Gamma(w), num, den), Stirling's
powers stepped by a division by w^2, and the exact num/den multiplied into
P.  The reference whose doubles _j_series_fixed and gamma must return bit
for bit."""

from functools import lru_cache

from besselcert.oracle import _FB, _HALF_LN_2PI, _LN2, _STIRLING, _exp_ratio, _ln_int


@lru_cache(maxsize=None)
def gamma_parts(p, r):
    """(ln Gamma(w), num, den): Gamma(p/r) = Gamma(w) den/num, w = p/r + k >= 30."""
    k = max(0, -((p - 30 * r) // r))
    num = 1
    for i in range(k):
        num *= p + i * r
    q = p + k * r
    ln_w = _ln_int(q) - _ln_int(r)
    acc = (2 * q - r) * ln_w // (2 * r) - (q << _FB) // r + _HALF_LN_2PI
    pw, r2, q2 = (r << _FB) // q, r * r, q * q
    n = 1
    while pw:
        acc += _STIRLING[n - 1] * pw >> _FB
        pw = pw * r2 // q2
        n += 1
    return acc, num, r ** k


def prefactor_reference(nu, x):
    """(x/2)^nu / Gamma(nu+1) = num/den: one exp of nu ln(x/2) - ln Gamma(w) times
    the exact num/den of gamma_parts."""
    p, r = nu
    ln_gamma, num, den = gamma_parts(p + r, r)
    if p:
        a, b = x.as_integer_ratio()
        m_num, m_den = _exp_ratio(p * (_ln_int(a) - b.bit_length() * _LN2) // r - ln_gamma)
    else:
        m_num, m_den = _exp_ratio(-ln_gamma)
    return m_num * num, m_den * den


def gamma_reference(z):
    """Gamma(z) = exp(ln Gamma(w)) den/num as one correctly rounded division."""
    ln_gamma, num, den = gamma_parts(*z.as_integer_ratio())
    m_num, m_den = _exp_ratio(ln_gamma)
    return m_num * den / (m_den * num)
