"""Grid verification of every certified approximation and bound.

A scan walks a deterministic (nu, x) grid, asks the reference evaluator for
the truth at each admissible point, and records a violation whenever the
claimed half-width (plus the evaluator's own error estimate) fails to cover
the observed error.  Points outside a method's domain are skipped and
counted, never extrapolated.
"""

from dataclasses import dataclass
import itertools
import math

from .oracle import (
    DomainError,
    Order,
    _PUBLIC_X_CAP,
    airy_ai_neg_ref,
    bessel_j_ref,
    check_domain,
)
from . import approx as _approx
from . import bounds as _bounds

# floor on the oracle-error slack so exact cases (half_width = 0) divide cleanly
_MIN_SLACK = 1e-11


# The subjects, in CLI choice order.  Each entry looks its function up on the
# approx or bounds module when called, so a wrapper rebound there sees every
# call.  Approximations: method -> f(order, x, l1, l2); airy_* ignore order.
# sharp_low and sharp_high check sharp's domain, then their declared branch.
_APPROXIMATIONS = {
    "classic": lambda order, x, l1, l2: _approx.classic_oscillatory(order, x),
    "sharp": lambda order, x, l1, l2: _approx.sharper_oscillatory(order, x),
    "sharp_low": lambda order, x, l1, l2: (
        check_domain(_approx._DOMAINS, "sharper_oscillatory", order, x)
        or check_domain(_approx._DOMAINS, "sharp_low", order, x)
        or _approx.sharper_oscillatory(order, x)),
    "sharp_high": lambda order, x, l1, l2: (
        check_domain(_approx._DOMAINS, "sharper_oscillatory", order, x)
        or check_domain(_approx._DOMAINS, "sharp_high", order, x)
        or _approx.sharper_oscillatory(order, x)),
    "simplified": lambda order, x, l1, l2: _approx.simplified_oscillatory(order, x),
    "olver": lambda order, x, l1, l2: _approx.olver_expansion(order, x, l1, l2),
    "transition": lambda order, z, l1, l2: _approx.transition(order, z),
    "best": lambda order, x, l1, l2: _approx.best_approx(order, x),
    "airy_classic": lambda order, x, l1, l2: _approx.airy_approx(x, "classic"),
    "airy_sharp": lambda order, x, l1, l2: _approx.airy_approx(x, "sharp"),
    "airy_simplified": lambda order, x, l1, l2: _approx.airy_approx(x, "simplified"),
}
# Bounds: name -> (coordinates it reads, f(*coordinates) -> reports), with
# nu passed as its Order.  A sonin_* entry gives one SoninSample, which the scan
# compares with the next.
_BOUNDS = {
    "watson": (("nu", "x"), lambda order, x: (_bounds.bound_watson(order, x),)),
    "envelope": (("nu", "x"), lambda order, x: (_bounds.bound_envelope(order, x),)),
    "derivative": (("nu", "x"), lambda order, x: (_bounds.bound_derivative(order, x),)),
    "monotonic": (("nu", "t"), lambda order, t: _bounds.bound_monotonic(order, t)),
    "log_derivative": (("nu", "x"),
                       lambda order, x: _bounds.bound_log_derivative(order, x)),
    "airy_envelope": (("x",), lambda x: (_bounds.bound_airy_envelope(x),)),
    "wronskian_kernel": (("nu", "x", "x2"), lambda order, x, x2:
                         (_bounds.bound_wronskian_kernel(order.nu, x, x2),)),
    "near_first_zero": (("nu",), lambda order: (_bounds.bound_near_first_zero(order),)),
    "leftmost_max": (("nu",), lambda order: (_bounds.leftmost_max_check(order),)),
    "sonin_szego": (("nu", "x"), lambda order, x: _bounds.sonin_eval("szego", order, x)),
    "sonin_envelope": (("nu", "x"),
                       lambda order, x: _bounds.sonin_eval("envelope", order, x)),
    "sonin_airy": (("nu", "x"), lambda order, x: _bounds.sonin_eval("airy", order, x)),
    "lemma_integral": (("x",), lambda x: _bounds.lemma_integral_check(x)),
    "airy_envelope_maxima": (("x_hi",),
                             lambda x_hi: _bounds.airy_envelope_maxima(x_hi)),
}
# airy_envelope_maxima searches [0, x_hi] itself; a grid has nothing to feed it
_SCAN_BOUNDS = tuple(name for name in _BOUNDS if name != "airy_envelope_maxima")


_DOMAINS = {  # the entry points' domains, as check_domain reads them
    "GridSpec": ((lambda g: g.nu_values, "nu_values must be non-empty"),
                 (lambda g: not g.x_points < 2, "x_points must be >= 2"),
                 (lambda g: g.x_range[0] < g.x_range[1], "x_range must satisfy lo < hi"),
                 (lambda g: g.spacing != "log" or not g.x_range[0] <= 0, "log spacing needs lo > 0"),
                 (lambda g: g.spacing != "linear" or not g.x_range[0] < 0,
                  "linear spacing needs lo >= 0")),
    "olenko_sup": ((lambda o, x_max, n: o.mu != 0, "mu must be positive"),
                   (lambda o, x_max, n: not (x_max <= 0 or x_max > _PUBLIC_X_CAP),
                    f"x_max must lie in (0, {_PUBLIC_X_CAP:g}]"),
                   (lambda o, x_max, n: not n < 10, "coarse_points must be >= 10")),
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
        if self.spacing not in ("log", "linear"):
            raise DomainError(f"GridSpec: unknown spacing {self.spacing!r}")

    def x_values(self) -> list[float]:
        lo, hi = self.x_range
        n = self.x_points
        if self.spacing == "log":
            return [lo * (hi / lo) ** (k / n) for k in range(1, n + 1)]
        return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


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


def _bound_ratio(rep: _bounds.BoundReport) -> float:
    if rep.rhs > 0:
        raw = rep.lhs / rep.rhs
    elif rep.lhs <= rep.rhs:
        raw = 0.0
    else:
        raw = math.inf
    return min(raw, 1.0) if rep.holds else max(raw, 1.0)


def _row_from_report(rep: _bounds.BoundReport, nu: float, x: float) -> ScanRow:
    return ScanRow(rep.name, nu, x, rep.lhs, rep.rhs, rep.margin,
                   _bound_ratio(rep), rep.holds)


def approx_row(method: str, order: Order, x: float, l1: int = 3, l2: int = 3) -> ScanRow:
    """One approximation-vs-oracle check at a single point.

    For method=transition, x is the transition variable z and the oracle is
    consulted at nu + nu^(1/3) z; the airy_* methods ignore the order and
    print nu = nan.  Raises DomainError off the method's domain.
    """
    if method not in _APPROXIMATIONS:
        raise DomainError(f"approx_row: unknown method {method!r}")
    a = _APPROXIMATIONS[method](order, x, l1, l2)
    if method.startswith("airy_"):
        ref = airy_ai_neg_ref(x)
        nu = math.nan
    else:
        x_eval = _approx.transition_x(order, x) if method == "transition" else x
        ref = bessel_j_ref(order, x_eval)
        nu = order.nu
    slack = max(ref.abs_err_estimate, _MIN_SLACK)
    ratio = abs(a.value - ref.value) / (a.half_width + slack)
    return ScanRow(a.method, nu, x, a.value, ref.value, a.half_width,
                   ratio, ratio <= 1)


def bound_rows(name: str, point: dict[str, float]) -> list[ScanRow]:
    """One bound's reports at a point mapping each of its coordinates to a value;
    each row carries the point's nu and its x (monotonic: t), else nan."""
    coords, _ = _BOUNDS[name]
    args = [Order(point[c]) if c == "nu" else point[c] for c in coords]
    return _point_rows(name, args, point.get("nu", math.nan),
                       point.get("x", point.get("t", math.nan)))


def _point_rows(name: str, args, nu: float, x: float) -> list[ScanRow]:
    # args: the bound's coordinates in order, nu as its Order; nu, x: the row's columns
    return [_row_from_report(rep, nu, x) for rep in _BOUNDS[name][1](*args)]


def scan_rows(name: str, grid: GridSpec, l1: int = 3,
              l2: int = 3) -> tuple[list[ScanRow], int]:
    """All checks of an approximation method or bound over the grid.

    _APPROXIMATIONS and _BOUNDS are the single list of subjects, for the scan
    and the CLI.  Returns (rows, skipped).  A bound takes every combination
    of the coordinates it reads: nu from nu_values; x, t in (0, 1]
    (monotonic) and x2 from the x grid.  So wronskian_kernel pairs every
    (x1, x2); airy_envelope, lemma_integral and the airy_* methods ignore
    nu_values; near_first_zero and leftmost_max ignore the x grid.  The
    sonin_* variants compare consecutive grid points per nu (nondecreasing
    for szego and envelope, nonincreasing for airy) with slack 1e-10.
    """
    rows: list[ScanRow] = []
    skipped = 0
    xs = grid.x_values()
    if name in _APPROXIMATIONS:
        nus = (math.nan,) if name.startswith("airy_") else grid.nu_values
        for order, x in itertools.product([Order(nu) for nu in nus], xs):
            try:
                rows.append(approx_row(name, order, x, l1, l2))
            except DomainError:
                skipped += 1
        return rows, skipped
    if name not in _SCAN_BOUNDS:
        raise DomainError(f"scan: unknown method or bound {name!r}")
    coords, sample = _BOUNDS[name]
    if name.startswith("sonin_"):
        for nu in grid.nu_values:
            order = Order(nu)
            prev = None
            for x in xs:
                try:
                    cur = sample(order, x)
                except DomainError:
                    skipped += 1
                    continue
                if prev is not None:
                    lhs, rhs = (cur.S, prev.S) if name == "sonin_airy" else (prev.S, cur.S)
                    rep = _bounds._make(name, lhs, rhs, strict=False, slack=1e-10)
                    rows.append(_row_from_report(rep, nu, x))
                prev = cur
        return rows, skipped
    # one Order per order, not one per grid point
    axes = {"nu": [Order(nu) for nu in grid.nu_values], "x": xs, "t": xs, "x2": xs}
    # positions of the row's nu and x (monotonic: t) columns among the args
    nu_at = coords.index("nu") if "nu" in coords else None
    x_at = next((coords.index(c) for c in ("x", "t") if c in coords), None)
    for args in itertools.product(*(axes[c] for c in coords)):
        nu = math.nan if nu_at is None else args[nu_at].nu
        x = math.nan if x_at is None else args[x_at]
        try:
            rows.extend(_point_rows(name, args, nu, x))
        except DomainError:
            skipped += 1
    return rows, skipped


def _summarize(rows: list[ScanRow], skipped: int, what: str,
               bound_style: bool) -> ScanReport:
    if not rows:
        raise DomainError(f"scan: no admissible grid points for {what}")
    violations = tuple(
        (r.subject, r.nu, r.x,
         (r.value - r.oracle) if bound_style else (r.ratio - 1))
        for r in rows if r.ratio > 1 or not r.holds)
    return ScanReport(len(rows), violations,
                      max(r.ratio for r in rows), skipped)


def verify_approx_grid(method: str, grid: GridSpec, l1: int = 3, l2: int = 3) -> ScanReport:
    """Check |method - oracle| <= half_width + oracle slack over the grid.

    The slack at each point is max(oracle error estimate, 1e-11), so exact
    cases (half_width = 0 at |nu| = 1/2) certify cleanly.  l1, l2 only
    affect method=olver.
    """
    if method not in _APPROXIMATIONS:
        raise DomainError(f"verify_approx_grid: unknown method {method!r}")
    rows, skipped = scan_rows(method, grid, l1, l2)
    return _summarize(rows, skipped, method, bound_style=False)


def verify_bounds_grid(bound: str, grid: GridSpec) -> ScanReport:
    """Evaluate a named inequality over the grid; violations are non-holds.

    See scan_rows for how each bound consumes the grid.
    """
    if bound not in _SCAN_BOUNDS:
        raise DomainError(f"verify_bounds_grid: unknown bound {bound!r}")
    rows, skipped = scan_rows(bound, grid)
    return _summarize(rows, skipped, bound, bound_style=True)


def _oscillation_gap(order: Order, x: float) -> float:
    r = bessel_j_ref(order, x)
    main = math.sqrt(2 / (math.pi * x)) * math.cos(x - order.omega)
    return x ** 1.5 * abs(r.value - main)


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_max(f, a: float, b: float, iters: int = 45) -> tuple[float, float]:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def olenko_sup(order: Order, x_max: float = 150.0, coarse_points: int = 3000) -> SupResult:
    """Estimate sup_x x^(3/2)|J_nu(x) - sqrt(2/(pi x)) cos(x - omega)|.

    A linear coarse scan of (0, x_max] locates candidate maxima; the best
    five are polished by golden-section search.  The result is a lower
    bound on the sup over (0, x_max] only: where R's crests still grow at
    the window's edge (nu = 5 and 10 at x_max = 150), the argmax sits there
    and sup/mu stays just below the crests' limit 1/sqrt(2 pi).  Requires
    mu > 0 (at nu = 1/2 the quantity is identically zero and there is
    nothing to normalize).
    """
    check_domain(_DOMAINS, "olenko_sup", order, x_max, coarse_points)
    xs = [x_max * k / coarse_points for k in range(1, coarse_points + 1)]
    vals = [_oscillation_gap(order, x) for x in xs]
    peaks = [i for i in range(1, len(xs) - 1)
             if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    peaks.sort(key=lambda i: vals[i], reverse=True)
    best_x, best_v = max(zip(xs, vals), key=lambda p: p[1])
    for i in peaks[:5]:
        x, v = _golden_max(lambda t: _oscillation_gap(order, t),
                           xs[i - 1], xs[i + 1])
        if v > best_v:
            best_x, best_v = x, v
    return SupResult(order.nu, best_v, best_x, best_v / order.mu)
