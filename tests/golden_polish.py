"""olenko_sup as it was before Brent's search polished its crests: 45
golden-section steps on each of the five best coarse peaks.  The reference
whose sup values olenko_sup must stay within 1e-12 of."""

import math

from besselcert.scan import _signed_gap

GOLDEN = (math.sqrt(5) - 1) / 2


def _oscillation_gap(order, x):
    """R(x) = x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)| as olenko_sup reads it."""
    return abs(_signed_gap(order, x)[0])


def golden_max(f, a, b):
    """The former polish: 45 golden-section steps on (a, b), then the
    better of the two interior points."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(45):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def golden_sup(order, x_max, coarse_points):
    """olenko_sup's former body, as (sup_value, argmax_x): the same coarse
    scan and top-five rule, each peak polished by golden_max."""
    xs = [x_max * k / coarse_points for k in range(1, coarse_points + 1)]
    vals = [_oscillation_gap(order, x) for x in xs]
    peaks = [i for i in range(1, len(xs) - 1)
             if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    peaks.sort(key=lambda i: vals[i], reverse=True)
    best_x, best_v = max(zip(xs, vals), key=lambda p: p[1])
    for i in peaks[:5]:
        x, v = golden_max(lambda t: _oscillation_gap(order, t), xs[i - 1], xs[i + 1])
        if v > best_v:
            best_x, best_v = x, v
    return best_v, best_x
