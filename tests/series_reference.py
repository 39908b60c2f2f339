"""The oracle's J series loop as it was before it split the power of two out
of its divisor and ran in two phases: the reference whose EvalResult
_j_series_fixed's series path must return bit for bit."""

from besselcert import PrecisionError, oracle


def series_reference(nu, x):
    """_j_series_fixed's former series path: one loop over the terms, the
    divisor 4 b^2 j (j r + p) advanced by its differences."""
    a, b = x.as_integer_ratio()
    p, r = nu
    one = 10 ** oracle._digits_for(x)
    ratio_num, ratio_den = a * a * r, 4 * b * b
    # step = ratio_den j (j r + p), advanced by its first and second differences
    step, inc, inc2 = ratio_den * (r + p), ratio_den * (3 * r + p), 2 * ratio_den * r
    u = s = tmax = one
    j = 1
    while j < oracle._TERM_CAP:
        u = (u * ratio_num + (step >> 1)) // step
        if j & 1:
            s -= u
        else:
            s += u
        if u > tmax:
            tmax = u
        elif u == 0 and step > ratio_num:  # ratio below 1 from here on
            break
        j += 1
        step += inc
        inc += inc2
    else:
        raise PrecisionError("series did not terminate within the term cap")
    num, den = oracle._prefactor(nu, x)
    den *= one
    return oracle._certified(s * num / den, (3 * j + 20) * tmax * num / (den * one))
