"""Plain bisection, as refine_root computed it before it skipped decided
midpoints: the reference whose double refine_root must return."""

from besselcert import PrecisionError


def plain_bisection(f, bracket, tol):
    """refine_root's former body: f at every midpoint, then a secant polish."""
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
