"""Grid verification of every certified approximation and bound.

Each subject is one table entry, name -> (coordinates it reads,
f(*coordinates) -> reports); a scan feeds it every combination of its
coordinates on a deterministic grid.  A report is a violation when an
approximation's half-width (plus the evaluator's error estimate) fails to
cover its distance from the oracle, or when a bound does not hold.  Points
outside a subject's domain are skipped and counted, never extrapolated.
"""

from dataclasses import dataclass
import itertools
import math

from .oracle import (
    BoundReport,
    DomainError,
    Order,
    _FINITE_NU,
    _NU_FLOOR,
    _PUBLIC_X_CAP,
    _is_double,
    _make,
    airy_ai_neg_ref,
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
    **{f"airy_{mode}": _ai(mode) for mode in _approx._AIRY_X_RANGE},
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


# spacing -> the x grid from (lo, hi, n)
_SPACINGS = {"log": lambda lo, hi, n: [lo * (hi / lo) ** (k / n) for k in range(1, n + 1)],
             "linear": lambda lo, hi, n: [lo + (hi - lo) * k / (n - 1) for k in range(n)]}
_DOMAINS = {  # the entry points' domains, as check_domain reads them
    "GridSpec": ((lambda g: g.nu_values, "nu_values must be non-empty"),
                 (lambda g: not g.x_points < 2, "x_points must be >= 2"),
                 (lambda g: isinstance(g.x_points, int), "x_points must be an integer"),
                 (lambda g: g.x_range[0] < g.x_range[1], "x_range must satisfy lo < hi"),
                 (lambda g: g.spacing != "log" or not g.x_range[0] <= 0, "log spacing needs lo > 0"),
                 (lambda g: g.spacing != "linear" or not g.x_range[0] < 0,
                  "linear spacing needs lo >= 0"),
                 # a tuple's "in" refuses an unhashable spacing as unknown
                 (lambda g: g.spacing in tuple(_SPACINGS), "unknown spacing {0.spacing!r}")),
    # as with the spacings, a tuple's "in" refuses an unhashable name as unknown
    "approx_row": ((lambda method: method in tuple(_APPROXIMATIONS), "unknown method {0!r}"),),
    "scan": ((lambda name: name in tuple(_APPROXIMATIONS) or name in _SCAN_BOUNDS,
              "unknown method or bound {0!r}"),),
    "verify_approx_grid": ((lambda method: method in tuple(_APPROXIMATIONS),
                            "unknown method {0!r}"),),
    "verify_bounds_grid": ((lambda bound: bound in _SCAN_BOUNDS, "unknown bound {0!r}"),),
    # sharp's branches, by the method sharper_oscillatory returned
    "sharp_low": ((lambda method: method == "sharp_low", "order falls in the other branch"),),
    "sharp_high": ((lambda method: method == "sharp_high", "order falls in the other branch"),),
    "olenko_sup": ((lambda o, x_max, n: o.mu != 0, "mu must be positive"),
                   (lambda o, x_max, n: 0 < x_max <= _PUBLIC_X_CAP,
                    f"x_max must lie in (0, {_PUBLIC_X_CAP:g}]"),
                   (lambda o, x_max, n: not n < 10, "coarse_points must be >= 10"),
                   (lambda o, x_max, n: isinstance(n, int), "coarse_points must be an integer"),
                   # R's main term at the grid's first point x_max/coarse_points
                   (lambda o, x_max, n: _is_double(
                       lambda: math.sqrt(2 / (math.pi * (x_max / n)))),
                    "sqrt(2/(pi x)) leaves the doubles at x = x_max/coarse_points"),
                   _NU_FLOOR, _FINITE_NU),
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
    spacing: str = "log"

    def __post_init__(self):
        check_domain(_DOMAINS, "GridSpec", self)

    def x_values(self) -> list[float]:
        return _SPACINGS[self.spacing](*self.x_range, self.x_points)


@dataclass(frozen=True)
class ScanRow:
    """One evaluated check: an approximation against the oracle, or one
    inequality report.  For bound rows value/oracle/half_width carry
    lhs/rhs/margin and ratio is lhs/rhs clamped into [0, 1] while the bound
    holds (and forced >= 1 when it does not)."""

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
    """Estimated sup of R(x) = x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)|.

    sup_value = R(argmax_x), the largest R the search found, so it is a
    lower bound on the sup of R over (0, x_max]; normalized = sup_value/mu.
    """

    nu: float
    sup_value: float
    argmax_x: float
    normalized: float


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


def approx_row(method: str, order: Order, x: float, l1: int = 3, l2: int = 3) -> ScanRow:
    """One approximation-vs-oracle check at a single point.

    For method=transition, x is the transition variable z and the oracle is
    consulted at nu + nu^(1/3) z; the airy_* methods ignore the order and
    print nu = nan.  Raises DomainError off the method's domain.
    """
    check_domain(_DOMAINS, "approx_row", method)
    return _rows_at(_APPROXIMATIONS[method],
                    {"nu": order, "x": x, "l1": l1, "l2": l2})[0]


def scan_rows(name: str, grid: GridSpec, l1: int = 3,
              l2: int = 3) -> tuple[list[ScanRow], int]:
    """All checks of an approximation method or bound over the grid.

    _APPROXIMATIONS and _BOUNDS are the single list of subjects, for the scan
    and the CLI.  Returns (rows, skipped).  A subject takes every combination
    of the coordinates its entry reads: nu from nu_values; x (transition: z),
    t in (0, 1] (monotonic) and x2 from the x grid; olver's l1, l2 as given.
    So wronskian_kernel pairs every (x1, x2); airy_envelope, lemma_integral
    and the airy_* methods ignore nu_values; near_first_zero and leftmost_max
    ignore the x grid.  The sonin_* variants instead compare consecutive grid
    points per nu (nondecreasing for szego and envelope, nonincreasing for
    airy) with slack 1e-10.
    """
    check_domain(_DOMAINS, "scan", name)
    coords, f = _APPROXIMATIONS.get(name) or _BOUNDS[name]
    rows: list[ScanRow] = []
    skipped = 0
    xs = grid.x_values()
    orders = [Order(nu) for nu in grid.nu_values]  # one Order per order, not per point
    if name in _SONIN:
        for order in orders:
            prev = None
            for x in xs:
                try:
                    cur = f(order, x)
                except DomainError:
                    skipped += 1
                    continue
                if prev is not None:
                    lhs, rhs = (cur.S, prev.S) if _SONIN[name][1] else (prev.S, cur.S)
                    rep = _make(name, lhs, rhs, strict=False, slack=1e-10)
                    rows.append(_row(rep, order.nu, x))
                prev = cur
        return rows, skipped
    axes = {"nu": orders, "x": xs, "t": xs, "x2": xs, "l1": (l1,), "l2": (l2,)}
    nu_at, x_at = _columns(coords)
    for args in itertools.product(*(axes[c] for c in coords)):
        try:
            rows.extend(_rows(f, args, nu_at, x_at))
        except DomainError:
            skipped += 1
    return rows, skipped


def _summarize(rows: list[ScanRow], skipped: int, what: str) -> ScanReport:
    if not rows:
        raise DomainError(f"scan: no admissible grid points for {what}")
    violations = tuple(
        (r.subject, r.nu, r.x, (r.value - r.oracle) if what in _BOUNDS else (r.ratio - 1))
        for r in rows if r.ratio > 1 or not r.holds)
    return ScanReport(len(rows), violations,
                      max(r.ratio for r in rows), skipped)


def verify_approx_grid(method: str, grid: GridSpec, l1: int = 3, l2: int = 3) -> ScanReport:
    """Check |method - oracle| <= half_width + oracle slack over the grid.

    The slack at each point is max(oracle error estimate, 1e-11), so exact
    cases (half_width = 0 at |nu| = 1/2) certify cleanly.  l1, l2 only
    affect method=olver.
    """
    check_domain(_DOMAINS, "verify_approx_grid", method)
    rows, skipped = scan_rows(method, grid, l1, l2)
    return _summarize(rows, skipped, method)


def verify_bounds_grid(bound: str, grid: GridSpec) -> ScanReport:
    """Evaluate a named inequality over the grid; violations are non-holds.

    See scan_rows for how each bound consumes the grid.
    """
    check_domain(_DOMAINS, "verify_bounds_grid", bound)
    rows, skipped = scan_rows(bound, grid)
    return _summarize(rows, skipped, bound)


def _oscillation_gap(order: Order, x: float) -> float:
    r = bessel_j_ref(order, x)
    main = math.sqrt(2 / (math.pi * x)) * math.cos(x - order.omega)
    return x ** 1.5 * abs(r.value - main)


# Brent's stop rule: a crest's abscissa to about sqrt(eps) relative, plus a
# floor; R is quadratic there, so closer abscissae differ in R by a rounding
_POLISH_REL = 1.5e-8
_POLISH_ABS = 1e-12
_CGOLD = (3 - math.sqrt(5)) / 2
# The cut (_brent_max): K = 1.5 bounds |R''|/(2R) near a crest.  Above x0,
# R ~ A |sin(x - phi)| has |R''| = R, and the measured |R''|/R is 1.0 for
# nu <= 10, 1.15 at nu = 14.7 and up to 2.42 on the dense-scan orders in
# [20, 30], below 2K = 3.  That ratio is read at the crest, so the cut waits
# until the bracket is narrower than 0.5, where R stays above cos(0.5) =
# 0.88 of its crest and K (b - a)^2 < 0.375.  Below x0 the bound fails near
# the sup, so olenko_sup never cuts a grid peak's search (see its docstring)
_CUT_WIDTH = 0.5
_CUT_CURVATURE = 1.5


def _brent_max(f, a: float, b: float, x: float, fx: float, best: float) -> tuple[float, float]:
    """Brent's search for a maximum of f on (a, b) from the evaluated x
    (Brent 1973, ch. 5): parabolic steps through the best three points, and
    golden-section steps where the parabola's vertex leaves the bracket or
    its step fails to halve the one before last.  Returns the best (x, f(x)).

    best, a value of f already found elsewhere, lets the search stop early
    (the cut) once b - a < _CUT_WIDTH and f(x) < best (1 - K (b - a)^2),
    returning its best point so far.  The crest x* of height M lies in
    [a, b], within b - a of x, and f'(x*) = 0, so where |f''| <= 2 K M on
    [a, b] Taylor's theorem gives f(x) >= M (1 - K (b - a)^2), hence M <
    best: the crest cannot beat best.  The uncut search could only have
    returned a value at most M.  Where the curvature bound fails, the cut
    is wrong only if the crest is also at or above best.  Every caller
    passes best; best = -inf never cuts."""
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _POLISH_REL * abs(x) + _POLISH_ABS
        if abs(x - m) <= 2 * tol - 0.5 * (b - a):
            return x, fx
        h = b - a
        if h < _CUT_WIDTH and fx < best * (1 - _CUT_CURVATURE * h * h):
            return x, fx
        p = q = last = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            last, e = e, d
        if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2 * tol or b - x - d < 2 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def olenko_sup(order: Order, x_max: float = 150.0, coarse_points: int = 3000) -> SupResult:
    """Estimate sup_x x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)|.

    Let x0 be the first omega + k pi at or past max(sqrt(mu), pi).  Below
    x0, R is read on the linear grid x_max j/coarse_points and every grid
    peak is searched inside its two neighbouring grid points.  Above x0,
    Hankel's expansion (DLMF 10.17.3) gives R ~ sqrt(2/pi) mu/2 |sin(x -
    omega)|, so R is assumed to have one crest in each interval
    [omega + k pi, omega + (k+1) pi]; each such interval, clipped to x_max,
    gets one search from its midpoint.  Where two crests share an
    interval, the lower one can be missed.  A dense scan of R on seeded
    orders in [1, 10] to x = 150 and in [20, 30] to x = 200 finds none
    (tests/test_scan.py, test_one_crest_per_half_period).  At nu = 42.48
    to x = 200, where mu/(2x) is several radians, one interval holds two,
    of R = 1.84 and 0.45 against a sup of 242.4
    (test_two_crests_share_a_half_period_past_nu_30).  R(x_max) is read
    too, so the window's edge counts.  Every search is Brent's parabolic
    one, run until the crest is located to 1.5e-8 |x| + 1e-12 (about ten
    evaluations of R per crest).

    Only the best crest is reported, so the half-period searches branch
    and bound: R is read at every midpoint first, the grid-peak and
    half-period searches run as one list, best start first, and each
    half-period search is passed the best R so far (the grid, R(x_max) and
    earlier crests) to cut on (_brent_max).  A crest clipped by x_max is at
    most R(x_max), which that best holds.  The cut assumes |R''| <= 3 R
    near any crest that could beat the best.  On the dense-scan orders
    |R''|/R stays below 2.7 at every crest above x0
    (test_crest_curvature_is_below_the_cut_bound).  Like the one-crest
    rule, the bound rests on Hankel's form and fails where it does: where
    mu/(2x) nears 2 pi, R's oscillation nearly cancels, and at nu = 25.1 a
    crest of R = 1.12, 0.5% of the sup, has |R''|/R = 6.5
    (test_the_curvature_bound_fails_far_below_the_sup).  Below x0 no such
    form holds and the bound fails near the sup: |R''|/R reaches 98.8 at
    the first crest past x = 0 (nu = 2.68, x = 0.14), and a crest over the
    bound reaches 0.70 of the sup at nu = 0.37
    (test_the_curvature_bound_fails_near_the_sup_below_x0).  A window that
    ends as R climbs back to just below such a crest would report R(x_max)
    if the crest's search were cut (test_a_grid_peak_cut_can_lose_the_sup),
    so the grid peaks' searches are passed best = -inf and never cut.
    Where the bound holds the best crest's search is never cut either, so
    the result is the uncut one bit for bit
    (test_the_cut_keeps_the_uncut_result): 133-180 evaluations of R at
    (60, 300), 179-269 uncut, and 367-500 at criterion 8's (150, 3000),
    481-646 uncut.

    sup_value is R's value at argmax_x.  The result is a lower bound on the
    sup over (0, x_max] only: where R's crests still grow at the window's
    edge (nu = 5 and 10 at x_max = 150), the argmax sits there and sup/mu
    stays just below the crests' limit 1/sqrt(2 pi).  Requires mu > 0 (at
    nu = 1/2 the quantity is identically zero and there is nothing to
    normalize).
    """
    check_domain(_DOMAINS, "olenko_sup", order, x_max, coarse_points)

    def r(t):
        return _oscillation_gap(order, t)

    # past x_max (mu may be inf) the whole window is the grid's
    x0 = math.inf
    lo = max(math.sqrt(order.mu), math.pi)
    if lo < x_max:
        k = math.ceil((lo - order.omega) / math.pi)
        x0 = order.omega + k * math.pi
    xs = [x for x in (x_max * j / coarse_points for j in range(1, coarse_points + 1)) if x < x0]
    vals = [r(x) for x in xs]
    crests = list(zip(xs, vals))
    if x_max >= x0:
        crests.append((x_max, r(x_max)))
    # each start carries whether its search may be cut: grid peaks may not
    starts = [(xs[i - 1], xs[i + 1], xs[i], vals[i], False) for i in range(1, len(xs) - 1)
              if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    while x0 < x_max:
        k += 1
        a, x0 = x0, order.omega + k * math.pi
        b = min(x0, x_max)
        m = 0.5 * (a + b)
        starts.append((a, b, m, r(m), True))
    best = max(v for _, v in crests)
    for a, b, x, fx, cut in sorted(starts, key=lambda s: s[3], reverse=True):
        crests.append(_brent_max(r, a, b, x, fx, best if cut else -math.inf))
        best = max(best, crests[-1][1])
    # of equal crests the first in x wins
    best_x, best_v = max(crests, key=lambda p: (p[1], -p[0]))
    return SupResult(order.nu, best_v, best_x, best_v / order.mu)
