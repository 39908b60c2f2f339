"""refine_bessel_zero's search as it was before it extended the walk's grid
lazily: the whole grid to x = 200 is built first, and the s-th coarse sign
change's grid indices are bisected.  The reference whose double (or
refusal) the search on Sturm cells must return."""

import math

from besselcert import PrecisionError, bessel_j_ref, refine_root


def full_walk_zero(order, s):
    """The s-th zero from the grid x_0 = max(nu, 0.05), x_k+1 = x_k + 0.25,
    built to its first point past 200 and that point set to 200."""
    def f(t):
        return bessel_j_ref(order, t).value

    xs = [max(order.nu, 0.05)]
    while not xs[-1] > 200.0:
        xs.append(xs[-1] + 0.25)
    xs[-1] = 200.0
    lo, v_lo = 0, f(xs[0])
    while lo < len(xs) - 1:
        gap = math.pi / math.sqrt(1 + (order.mu / xs[lo] ** 2 if abs(order.nu) < 0.5 else 0))
        hi = min(lo + math.ceil((gap - 1e-9) / 0.25) - 1, len(xs) - 1)
        v_hi = f(xs[hi])
        if v_lo * v_hi < 0:
            s -= 1
            if s == 0:
                while hi - lo > 1:  # the walk's cell, by bisecting its indices
                    mid = (lo + hi) // 2
                    if f(xs[mid]) * v_lo > 0:
                        lo = mid
                    else:
                        hi = mid
                return refine_root(f, (xs[lo], xs[hi]), 1e-11)
        lo, v_lo = hi, v_hi
    raise PrecisionError("bessel zero scan exceeded the x cap")
