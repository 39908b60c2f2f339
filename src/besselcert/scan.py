"""Grid verification of every certified approximation and bound.

Each subject is one table entry, name -> (coordinates it reads,
f(*coordinates) -> reports); a scan feeds it every combination of its
coordinates on a deterministic grid.  A report is a violation when an
approximation's half-width (plus the evaluator's error estimate) fails to
cover its distance from the oracle, or when a bound does not hold.  Points
outside a subject's domain are skipped and counted, never extrapolated.
"""

from dataclasses import dataclass
import heapq
import itertools
import math

from .oracle import (
    BoundReport,
    DomainError,
    Order,
    _FINITE_NU,
    _FLOAT_ULP,
    _NU_FLOOR,
    _PUBLIC_X_CAP,
    _make,
    airy_ai_neg_ref,
    bessel_j_prime_ref,
    bessel_j_ref,
    check_domain,
)
from . import approx as _approx
from . import bounds as _bounds

# floor on the oracle-error slack so exact cases (half_width = 0) divide cleanly
_MIN_SLACK = 1e-11
_NU_X = ("nu", "x")


def _j(name: str, branch: str = ""):
    # approx.<name>(order, x) against J_nu(x); a branch of sharp admits the
    # points where sharp took it, before the oracle is called
    def f(order: Order, x: float):
        a = getattr(_approx, name)(order, x)
        if branch:
            check_domain(_DOMAINS, branch, a.method)
        return ((a, bessel_j_ref(order, x)),)
    return _NU_X, f


def _ai(mode: str):
    return ("x",), lambda x: ((_approx.airy_approx(x, mode), airy_ai_neg_ref(x)),)


# The subjects, in CLI choice order, with nu passed as its Order.  Each f looks
# its function up on the approx or bounds module when called, so a wrapper
# rebound there sees every call.  An approximation's one report pairs its
# ApproxValue with the oracle where it approximates: J_nu(x), Ai(-x) (airy_*,
# no order) or J_nu(nu + nu^(1/3) z) (transition, whose x is z).
_APPROXIMATIONS = {
    "classic": _j("classic_oscillatory"),
    "sharp": _j("sharper_oscillatory"),
    "sharp_low": _j("sharper_oscillatory", "sharp_low"),
    "sharp_high": _j("sharper_oscillatory", "sharp_high"),
    "simplified": _j("simplified_oscillatory"),
    "olver": (("nu", "x", "l1", "l2"), lambda order, x, l1, l2: (
        (_approx.olver_expansion(order, x, l1, l2), bessel_j_ref(order, x)),)),
    "transition": (_NU_X, lambda order, z: (
        (_approx.transition(order, z), bessel_j_ref(order, _approx.transition_x(order, z))),)),
    "best": _j("best_approx"),
    **{f"airy_{mode}": _ai(mode) for mode in _approx._AIRY_MODES},
}
# sonin_* name -> (variant, whether S is nonincreasing rather than nondecreasing);
# each gives one SoninSample per point, which the scan compares with the next
_SONIN = {f"sonin_{v}": (v, down) for v, (_, down) in _bounds._SONIN.items()}
_BOUNDS = {
    "watson": (_NU_X, lambda order, x: (_bounds.bound_watson(order, x),)),
    "envelope": (_NU_X, lambda order, x: (_bounds.bound_envelope(order, x),)),
    "derivative": (_NU_X, lambda order, x: (_bounds.bound_derivative(order, x),)),
    "monotonic": (("nu", "t"), lambda order, t: _bounds.bound_monotonic(order, t)),
    "log_derivative": (_NU_X, lambda order, x: _bounds.bound_log_derivative(order, x)),
    "airy_envelope": (("x",), lambda x: (_bounds.bound_airy_envelope(x),)),
    "wronskian_kernel": (("nu", "x", "x2"), lambda order, x, x2:
                         (_bounds.bound_wronskian_kernel(order.nu, x, x2),)),
    "near_first_zero": (("nu",), lambda order: (_bounds.bound_near_first_zero(order),)),
    "leftmost_max": (("nu",), lambda order: (_bounds.leftmost_max_check(order),)),
    **{name: (_NU_X, lambda order, x, v=variant: _bounds.sonin_eval(v, order, x))
       for name, (variant, _) in _SONIN.items()},
    "lemma_integral": (("x",), lambda x: _bounds.lemma_integral_check(x)),
    "airy_envelope_maxima": (("x_hi",),
                             lambda x_hi: _bounds.airy_envelope_maxima(x_hi)),
}
# airy_envelope_maxima searches [0, x_hi] itself; a grid has no x_hi axis
_SCAN_BOUNDS = tuple(name for name, (coords, _) in _BOUNDS.items() if "x_hi" not in coords)


# olver's default term counts l1 = l2, for the library and the CLI alike
_OLVER_TERMS = 3
# spacing -> (the x grid from (lo, hi, n), the rule on lo, its wording); the
# first row is GridSpec's default
_SPACINGS = {"log": (lambda lo, hi, n: [lo * (hi / lo) ** (k / n) for k in range(1, n + 1)],
                     lambda lo: not lo <= 0, "lo > 0"),
             "linear": (lambda lo, hi, n: [lo + (hi - lo) * k / (n - 1) for k in range(n)],
                        lambda lo: not lo < 0, "lo >= 0")}
# a tuple's "in" refuses an unhashable spacing or name as unknown
_METHOD = ((lambda method: method in tuple(_APPROXIMATIONS), "unknown method {0!r}"),)
_DOMAINS = {  # the entry points' domains, as check_domain reads them
    "GridSpec": ((lambda g: g.nu_values, "nu_values must be non-empty"),
                 (lambda g: not g.x_points < 2, "x_points must be >= 2"),
                 (lambda g: isinstance(g.x_points, int), "x_points must be an integer"),
                 (lambda g: g.x_range[0] < g.x_range[1], "x_range must satisfy lo < hi"),
                 *((lambda g, k=k, ok=ok: g.spacing != k or ok(g.x_range[0]),
                    f"{k} spacing needs {lo}") for k, (_, ok, lo) in _SPACINGS.items()),
                 (lambda g: g.spacing in tuple(_SPACINGS), "unknown spacing {0.spacing!r}")),
    "approx_row": _METHOD,
    "scan": ((lambda name: name in tuple(_APPROXIMATIONS) or name in _SCAN_BOUNDS,
              "unknown method or bound {0!r}"),),
    "verify_approx_grid": _METHOD,
    "verify_bounds_grid": ((lambda bound: bound in _SCAN_BOUNDS, "unknown bound {0!r}"),),
    # sharp's branches, by the method sharper_oscillatory returned
    "sharp_low": ((lambda method: method == "sharp_low", "order falls in the other branch"),),
    "sharp_high": ((lambda method: method == "sharp_high", "order falls in the other branch"),),
    "olenko_sup": ((lambda o, x_max, n: o.mu != 0, "mu must be positive"),
                   (lambda o, x_max, n: 0 < x_max <= _PUBLIC_X_CAP,
                    f"x_max must lie in (0, {_PUBLIC_X_CAP:g}]"),
                   (lambda o, x_max, n: not n < 10, "coarse_points must be >= 10"),
                   (lambda o, x_max, n: isinstance(n, int), "coarse_points must be an integer"),
                   # R's main term at the grid's first point, where the search starts:
                   # x_max itself below 1, else at least 1/2, and pi x_max is never 0
                   (lambda o, x_max, n: 2 / (math.pi * x_max) < math.inf,
                    "sqrt(2/(pi x)) leaves the doubles at the grid's first point "
                    "x = x_max/min(coarse_points, ceil(x_max))"),
                   _NU_FLOOR, _FINITE_NU, (lambda o, *_: o.omega < math.inf,
                                           "omega = nu pi/2 + pi/4 leaves the doubles")),
}


@dataclass(frozen=True)
class GridSpec:
    """A rectangular (nu, x) evaluation grid.

    log spacing places x_k = lo (hi/lo)^(k/n) for k = 1..n, covering the
    half-open interval (lo, hi] and requiring lo > 0; linear spacing is the
    inclusive n-point subdivision of [lo, hi] and allows lo = 0 (the
    transition sweeps start their z grid there).
    """

    nu_values: tuple[float, ...]
    x_range: tuple[float, float]
    x_points: int
    spacing: str = next(iter(_SPACINGS))

    def __post_init__(self):
        check_domain(_DOMAINS, "GridSpec", self)

    def x_values(self) -> list[float]:
        return _SPACINGS[self.spacing][0](*self.x_range, self.x_points)


@dataclass(frozen=True)
class ScanRow:
    """One evaluated check: an approximation against the oracle, or one
    inequality report.  For bound rows value/oracle/half_width carry
    lhs/rhs/margin and ratio is lhs/rhs clamped into [0, 1] while the bound
    holds (and forced >= 1 when it does not).

    holds alone is the row's verdict: no row with ratio > 1 holds.  An
    approximation holds iff ratio <= 1, a bound's ratio exceeds 1 only when
    it fails, and the CLI's rows keep the rule: a zero row holds only with
    ratio <= 1, the sup row's ratio is sup_value/(1.26 mu) and it holds only
    with upper/mu < 1.26, where upper >= sup_value, and eval rows have ratio 0."""

    subject: str
    nu: float
    x: float
    value: float
    oracle: float
    half_width: float
    ratio: float
    holds: bool


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one grid sweep.

    violations lists (tag, nu, x, excess) with excess = ratio - 1 for
    approximations and lhs - rhs for bounds; max_ratio <= 1 whenever
    violations is empty.  skipped counts out-of-domain grid points.
    """

    total: int
    violations: tuple[tuple[str, float, float, float], ...]
    max_ratio: float
    skipped: int


@dataclass(frozen=True)
class SupResult:
    """The sup of R(x) = x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)| over (0, x_max].

    sup_value = R(argmax_x), the largest R the search read, and upper, a
    certified bound on the sup, enclose it: sup_value <= sup <= upper, up to
    the float rounding of sup_value itself.  normalized = sup_value/mu.
    """

    nu: float
    sup_value: float
    argmax_x: float
    normalized: float
    upper: float


def _row(rep, nu: float, x: float) -> ScanRow:
    # rep: a BoundReport, or an approximation's (ApproxValue, oracle EvalResult)
    if isinstance(rep, BoundReport):
        raw = rep.lhs / rep.rhs if rep.rhs > 0 else 0.0 if rep.lhs <= rep.rhs else math.inf
        ratio = min(raw, 1.0) if rep.holds else max(raw, 1.0)
        return ScanRow(rep.name, nu, x, rep.lhs, rep.rhs, rep.margin, ratio, rep.holds)
    a, ref = rep
    ratio = abs(a.value - ref.value) / (a.half_width + max(ref.abs_err_estimate, _MIN_SLACK))
    return ScanRow(a.method, nu, x, a.value, ref.value, a.half_width, ratio, ratio <= 1)


def _columns(coords: tuple[str, ...]) -> tuple[int | None, int | None]:
    # positions of the row's nu and x (monotonic: t) columns among coords
    return (coords.index("nu") if "nu" in coords else None,
            next((coords.index(c) for c in ("x", "t") if c in coords), None))


def _rows(f, args, nu_at: int | None, x_at: int | None) -> list[ScanRow]:
    # args: a subject's coordinates in order, nu as its Order
    nu = math.nan if nu_at is None else args[nu_at].nu
    x = math.nan if x_at is None else args[x_at]
    return [_row(rep, nu, x) for rep in f(*args)]


def _rows_at(entry, point: dict) -> list[ScanRow]:
    # point: a value for each coordinate the entry reads, nu as its Order
    coords, f = entry
    return _rows(f, [point[c] for c in coords], *_columns(coords))


def approx_row(method: str, order: Order, x: float, l1: int = _OLVER_TERMS,
               l2: int = _OLVER_TERMS) -> ScanRow:
    """One approximation-vs-oracle check at a single point.

    For method=transition, x is the transition variable z and the oracle is
    consulted at nu + nu^(1/3) z; the airy_* methods ignore the order and
    print nu = nan.  Raises DomainError off the method's domain.
    """
    check_domain(_DOMAINS, "approx_row", method)
    return _rows_at(_APPROXIMATIONS[method],
                    {"nu": order, "x": x, "l1": l1, "l2": l2})[0]


def scan_rows(name: str, grid: GridSpec, l1: int = _OLVER_TERMS,
              l2: int = _OLVER_TERMS) -> tuple[list[ScanRow], int]:
    """All checks of an approximation method or bound over the grid.

    _APPROXIMATIONS and _BOUNDS are the single list of subjects, for the scan
    and the CLI.  Returns (rows, skipped); raises DomainError where the grid
    admits no row.  A subject takes every combination of the coordinates its
    entry reads: nu from nu_values; x (transition: z), t in (0, 1]
    (monotonic) and x2 from the x grid; olver's l1, l2 as given.  So
    wronskian_kernel pairs every (x1, x2); airy_envelope, lemma_integral and
    the airy_* methods ignore nu_values; near_first_zero and leftmost_max
    ignore the x grid.  The sonin_* variants compare each admitted sample
    of S with the order's admitted sample before it, one row per pair
    (nondecreasing for szego and envelope, nonincreasing for airy) with
    slack 1e-10.
    """
    check_domain(_DOMAINS, "scan", name)
    coords, f = _APPROXIMATIONS.get(name) or _BOUNDS[name]
    rows: list[ScanRow] = []
    skipped = 0
    xs = grid.x_values()
    orders = [Order(nu) for nu in grid.nu_values]  # one Order per order, not per point
    axes = {"nu": orders, "x": xs, "t": xs, "x2": xs, "l1": (l1,), "l2": (l2,)}
    nu_at, x_at = _columns(coords)
    sonin = _SONIN.get(name)
    samples = []  # a sonin_* subject's (Order, SoninSample), order by order in x order
    for args in itertools.product(*(axes[c] for c in coords)):
        try:
            if sonin:
                samples.append((args[0], f(*args)))
            else:
                rows.extend(_rows(f, args, nu_at, x_at))
        except DomainError:
            skipped += 1
    # each sample against the one before it from the same Order object, so a
    # repeated order is a chain of its own
    for (order, prev), (same, cur) in itertools.pairwise(samples):
        if same is order:
            lhs, rhs = (cur.S, prev.S) if sonin[1] else (prev.S, cur.S)
            rows.append(_row(_make(name, lhs, rhs, strict=False, slack=1e-10), order.nu, cur.x))
    if not rows:
        raise DomainError(f"scan: no admissible grid points for {name}")
    return rows, skipped


def _summarize(rows: list[ScanRow], skipped: int, what: str) -> ScanReport:
    violations = tuple(
        (r.subject, r.nu, r.x, (r.value - r.oracle) if what in _BOUNDS else (r.ratio - 1))
        for r in rows if not r.holds)
    return ScanReport(len(rows), violations, max(r.ratio for r in rows), skipped)


def verify_approx_grid(method: str, grid: GridSpec, l1: int = _OLVER_TERMS,
                       l2: int = _OLVER_TERMS) -> ScanReport:
    """Check |method - oracle| <= half_width + oracle slack over the grid.

    The slack at each point is max(oracle error estimate, 1e-11), so exact
    cases (half_width = 0 at |nu| = 1/2) certify cleanly.  l1, l2 only
    affect method=olver.
    """
    check_domain(_DOMAINS, "verify_approx_grid", method)
    return _summarize(*scan_rows(method, grid, l1, l2), method)


def verify_bounds_grid(bound: str, grid: GridSpec) -> ScanReport:
    """Evaluate a named inequality over the grid; violations are non-holds.

    See scan_rows for how each bound consumes the grid.
    """
    check_domain(_DOMAINS, "verify_bounds_grid", bound)
    return _summarize(*scan_rows(bound, grid), bound)


# olenko_sup's float bounds are raised by this relative charge (and a few
# subnormal ulps), far above the few dozen roundings each one takes
_OUT = 1 + 1e-14
_TINY = 64 * math.ulp(0.0)
# olenko_sup stops once upper is within this relative gap (plus R's charge)
_STOP_REL = 1e-12


def _signed_gap(order: Order, x: float) -> tuple[float, float]:
    """h = x^(3/2) (J_nu(x) - sqrt(2/(pi x)) cos(x - omega)) in doubles, so
    that R(x) = |h|, and a bound on its error: the oracle's estimate of J,
    the phase x - omega (math.pi, the products and the difference, each
    rounded), the cosine and sqrt(2/(pi x)), and the subtraction, x^1.5
    (also where it underflows) and the product."""
    r = bessel_j_ref(order, x)
    amp = math.sqrt(2 / (math.pi * x))
    diff = r.value - amp * math.cos(x - order.omega)
    x15 = x ** 1.5
    h = x15 * diff
    phase = min(2.0, _FLOAT_ULP * (2 * abs(order.omega) + x + 1))
    err = (r.abs_err_estimate + amp * (phase + 3 * _FLOAT_ULP)
           + _FLOAT_ULP * (abs(r.value) + amp))
    return h, _OUT * ((x15 * (1 + _FLOAT_ULP) + _TINY) * err + 2 * _FLOAT_ULP * abs(h)
                      + _TINY * abs(diff)) + _TINY


def olenko_sup(order: Order, x_max: float = 150.0, coarse_points: int = 3000) -> SupResult:
    """Enclose sup_x x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)| over (0, x_max].

    With u = sqrt(x) J_nu, d = u - sqrt(2/pi) cos(x - omega) and h = x d,
    R = |h|, and Bessel's equation (DLMF 10.2.1) gives h'' + h = F, F = 2d'
    + (nu^2 - 1/4) u/x.  On a cell [a, b] of width w < 3, h is the sinusoid
    Y through h(a) and h(b) (Y'' + Y = 0) plus P, P'' + P = F, P(a) = P(b) =
    0, whose Green's function is at most tan(w/2)/2 and integrates to at
    most kappa = 1/cos(w/2) - 1, about w^2/8.  This is the chord bound
    behind Brent's glomin (Brent 1973, ch. 6) and Breiman and Cutler (Math.
    Prog. 58, 1993) with the sinusoid for the chord, so near a crest only
    |F| is charged, not max R + |F|.  d's chord slope is the difference
    quotient q of d(a) = h(a)/a and d(b), so |d'| <= |q| + (w/2) max|d''|
    with d'' = -d + (nu^2 - 1/4) u/x^2.  With M = max R on [a, b], |d| <=
    M/a and g = 1 + w/a these give

        M <= (max|Y| + 2 kappa |q| + g T)/(1 - kappa w/a),  T = kappa mu U/a,

    where U bounds |u| on [a, b] by lemmas, not measurements:
      - |nu| < 1/2: Szego's S = u^2 + x^2/(x^2 + mu) u'^2 rises to 2/pi
        (bounds.sonin_eval), so |u| <= sqrt(2/pi);
      - nu > 1/2, below sqrt(mu): u'' = (mu/x^2 - 1) u > 0 from u(0) = 0, so
        u and u' increase, and one oracle reading of J and J' at x_r =
        min(sqrt(mu), x_max) bounds both there.  There mu u/x^2 = u'' + u
        >= 0 also bounds the integral of mu u/x by b (u'(x_r) + w U), so T
        <= tan(w/2) b (u'(x_r) + w U) where mu U/a overflows (mu = inf past
        nu ~ 1.3e154);
      - nu > 1/2, past sqrt(mu): the envelope S = H^2 + W H'^2 of H =
        (x^2 - mu)^(1/4) J rises to 2/pi, so |u| <= sqrt(2/pi) (a^2/(a^2 -
        mu))^(1/4); near sqrt(mu), where that grows without bound, (u^2 +
        u'^2)' = 2 u u' mu/x^2 bounds |u| by the reading's sqrt(u^2 + u'^2)
        exp(mu (b - x_r)/(2 x_r b)).
    On (0, t], R <= t (U + sqrt(2/pi)).  h(a), h(b) enter with their
    charges from _signed_gap (Y by at most the larger over cos(w/2)), the
    readings with their estimates, every bound with _OUT.

    The search is one best-first bisection.  R is read on the grid x_max
    i/n, i = 1..n, n = min(coarse_points, ceil(x_max)): a step of about 1,
    or x_max/coarse_points where that is coarser.  Each cell, (0, x_max/n]
    among them, goes on a heap keyed by its bound, and the cell with the
    largest bound is halved at its midpoint, where R is read.  The search
    stops once that largest bound, upper, is within 1e-12 sup_value plus
    sup_value's own charge of sup_value, the largest R read (of equal values
    the first in x), or once that cell cannot be halved in doubles.  Every
    x in (0, x_max] lies in a cell on the heap, so the sup lies in
    [sup_value - its charge, upper].  Requires mu > 0 (at nu = 1/2 the
    quantity is identically zero and there is nothing to normalize).
    """
    check_domain(_DOMAINS, "olenko_sup", order, x_max, coarse_points)
    mu = order.mu
    szego = order.nu < 0.5
    if not szego:
        x_r = min(math.sqrt(mu), x_max)
        j, jp = bessel_j_ref(order, x_r), bessel_j_prime_ref(order, x_r)
        j_cap = abs(j.value) + j.abs_err_estimate
        u_r = _OUT * math.sqrt(x_r) * j_cap + _TINY
        up_r = _OUT * (j_cap / (2 * math.sqrt(x_r))
                       + math.sqrt(x_r) * (abs(jp.value) + jp.abs_err_estimate)) + _TINY
        e_r = _OUT * math.hypot(u_r, up_r)

    def bound(a, b, ra, rb, ha, hb):
        # max R on [a, b] from R's charged values ra, rb and h's ha, hb at its ends
        if szego:
            u = _approx.SQRT_2_OVER_PI
        elif b <= x_r:
            u = u_r
        else:
            u = e_r * math.exp(mu * (b - x_r) / (2 * x_r * b))
            if a * a > mu:
                u = min(u, _OUT * _approx.SQRT_2_OVER_PI * (a * a / (a * a - mu)) ** 0.25)
        if not a:
            return _OUT * b * (u + _approx.SQRT_2_OVER_PI) + _TINY
        w = b - a
        if not w < 3:
            return math.inf
        half, g = w / 2, 1 + w / a
        kappa = 1 / math.cos(half) - 1
        if not kappa * w < a:
            return math.inf
        t = kappa * mu * u / a
        if not szego and b <= x_r:
            t = min(math.tan(half) * b * (up_r + w * u), t)
        q = (abs(hb / b - ha / a) + (rb - abs(hb)) / b + (ra - abs(ha)) / a) / w
        # Y = ha cos(x - a) + c sin(x - a), largest inside the cell when its crest is
        c = (hb - ha) / math.sin(w) + ha * math.tan(half)
        top = (math.hypot(ha, c) if 0 < math.atan2(c, ha) % math.pi < w
               else max(abs(ha), abs(hb)))
        charge = max(ra - abs(ha), rb - abs(hb)) / math.cos(half)
        return _OUT * (top + charge + 2 * kappa * q + g * t) / (1 - kappa * w / a) + _TINY

    def cell(a, b, ra, rb, ha, hb):
        return -bound(a, b, ra, rb, ha, hb), a, b, ra, rb, ha, hb

    n = min(coarse_points, math.ceil(x_max))
    xs = [0.0] + [x_max * i / n for i in range(1, n + 1)]
    hs = [(0.0, 0.0)] + [_signed_gap(order, x) for x in xs[1:]]
    rs = [abs(h) + c for h, c in hs]
    best_v, best_x, best_c = max((abs(h), -x, c) for x, (h, c) in zip(xs[1:], hs[1:]))
    best_x = -best_x
    heap = [cell(xs[i], xs[i + 1], rs[i], rs[i + 1], hs[i][0], hs[i + 1][0]) for i in range(n)]
    heapq.heapify(heap)
    while -heap[0][0] > best_v + _STOP_REL * best_v + best_c:
        a, b, ra, rb, ha, hb = heap[0][1:]
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        hm, c = _signed_gap(order, m)
        v = abs(hm)
        if v > best_v or v == best_v and m < best_x:
            best_v, best_x, best_c = v, m, c
        heapq.heapreplace(heap, cell(a, m, ra, v + c, ha, hm))
        heapq.heappush(heap, cell(m, b, v + c, rb, hm, hb))
    return SupResult(order.nu, best_v, best_x, best_v / mu, -heap[0][0])
