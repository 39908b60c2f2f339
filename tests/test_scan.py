import dataclasses
import functools
import math
import random

from hypothesis import given, seed, settings, strategies as st
import pytest

from besselcert import (
    DomainError,
    GridSpec,
    Order,
    olenko_sup,
    scan_rows,
    verify_approx_grid,
    verify_bounds_grid,
)
from besselcert import approx as approx_module
from besselcert import bounds as bounds_module
from besselcert import scan as scan_module
from besselcert.cli import main
from besselcert.scan import _oscillation_gap, approx_row
from golden_polish import golden_sup


class TestGridSpec:
    def test_log_covers_half_open_interval(self):
        g = GridSpec((0.0,), (0.1, 150.0), 200, "log")
        xs = g.x_values()
        assert len(xs) == 200
        assert xs[0] > 0.1
        assert xs[-1] == pytest.approx(150.0, rel=1e-12)
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_linear_includes_both_ends(self):
        g = GridSpec((1.0,), (0.0, 3.0), 60, "linear")
        xs = g.x_values()
        assert len(xs) == 60
        assert xs[0] == 0.0
        assert xs[-1] == pytest.approx(3.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec((), (1.0, 2.0), 5)
        with pytest.raises(DomainError):
            GridSpec((0.0,), (1.0, 2.0), 1)
        with pytest.raises(DomainError):
            GridSpec((0.0,), (2.0, 2.0), 5)
        with pytest.raises(DomainError):
            GridSpec((0.0,), (0.0, 2.0), 5, "log")
        with pytest.raises(DomainError):
            GridSpec((0.0,), (-1.0, 2.0), 5, "linear")
        with pytest.raises(DomainError):
            GridSpec((0.0,), (1.0, 2.0), 5, "geometric")


class TestApproxGrid:
    def test_deterministic(self):
        g = GridSpec((0.0, 2.5), (0.5, 80.0), 40, "log")
        assert verify_approx_grid("classic", g) == verify_approx_grid("classic", g)

    def test_exact_case_has_tiny_ratio(self):
        g = GridSpec((0.5,), (0.1, 150.0), 100, "log")
        rep = verify_approx_grid("sharp_low", g)
        assert rep.violations == ()
        assert rep.max_ratio < 1e-3

    def test_skipped_counts_other_branch(self):
        g = GridSpec((0.5, 5.0), (0.5, 50.0), 30, "log")
        rep = verify_approx_grid("sharp_low", g)
        assert rep.total == 30 and rep.skipped == 30

    def test_all_points_inadmissible_is_an_error(self):
        g = GridSpec((5.0,), (0.5, 2.0), 10, "log")  # all below mu for sharp_high
        with pytest.raises(DomainError):
            verify_approx_grid("sharp_high", g)

    def test_unknown_method(self):
        g = GridSpec((0.0,), (1.0, 2.0), 5)
        with pytest.raises(DomainError):
            verify_approx_grid("pade", g)

    def test_approx_row_names_itself(self):
        with pytest.raises(DomainError, match=r"^approx_row: unknown method 'pade'$"):
            approx_row("pade", Order(0.0), 1.0)

    def test_transition_reads_x_as_z(self):
        g = GridSpec((5.0,), (0.0, 3.0), 10, "linear")
        rep = verify_approx_grid("transition", g)
        assert rep.total == 10 and rep.violations == ()

    def test_airy_methods_ignore_orders(self):
        g = GridSpec((0.0, 1.0, 2.0), (1.0, 40.0), 25, "log")
        rep = verify_approx_grid("airy_sharp", g)
        assert rep.total == 25

    def test_sharp_dispatches_by_order(self):
        g = GridSpec((0.3, 5.0), (26.0, 60.0), 4, "log")
        rows, skipped = scan_rows("sharp", g)
        assert skipped == 0
        assert {r.subject for r in rows if r.nu == 0.3} == {"sharp_low"}
        assert {r.subject for r in rows if r.nu == 5.0} == {"sharp_high"}


class TestBoundsGrid:
    def test_point_bounds_hold(self):
        g = GridSpec((0.0, 0.5, 3.0), (0.2, 60.0), 25, "log")
        for name in ("watson", "envelope"):
            rep = verify_bounds_grid(name, g)
            assert rep.total == 75 and rep.violations == ()

    def test_ratio_clamped_at_nonstrict_equality(self):
        # the half-order envelope touches 1 at its extrema; holds must clamp
        # the ratio to exactly 1 rather than letting rounding push it past
        g = GridSpec((0.5,), (math.pi / 2 - 1e-9, math.pi / 2 + 1e-9), 3, "linear")
        rep = verify_bounds_grid("envelope", g)
        assert rep.violations == () and rep.max_ratio == 1.0

    def test_two_report_bounds_double_total(self):
        g = GridSpec((1.0, 4.0), (0.1, 1.0), 10, "linear")
        rep = verify_bounds_grid("monotonic", g)
        assert rep.total == 40 and rep.violations == ()

    def test_wronskian_pairs_the_grid(self):
        g = GridSpec((0.0, 0.5), (0.5, 20.0), 6, "log")
        rep = verify_bounds_grid("wronskian_kernel", g)
        assert rep.total == 2 * 36 and rep.violations == ()

    def test_x_free_bounds_ignore_x_grid(self):
        g = GridSpec((0.5, 2.0, 10.0), (1.0, 2.0), 50, "log")
        rep = verify_bounds_grid("near_first_zero", g)
        assert rep.total == 3 and rep.violations == ()

    def test_sonin_monotonicity(self):
        g = GridSpec((0.0,), (0.0, 40.0), 120, "linear")
        rep = verify_bounds_grid("sonin_airy", g)
        assert rep.total == 119 and rep.violations == ()
        g2 = GridSpec((0.2, 3.0), (0.5, 40.0), 80, "linear")
        rep2 = verify_bounds_grid("sonin_szego", g2)
        # nu = 3 lies outside the szego domain: skipped, one chain remains
        assert rep2.total == 79 and rep2.skipped == 80
        assert rep2.violations == ()

    def test_unknown_bound(self):
        g = GridSpec((0.0,), (1.0, 2.0), 5)
        with pytest.raises(DomainError):
            verify_bounds_grid("bernstein", g)


class TestViolations:
    # the acceptance sweeps all assert zero violations; here the package's
    # own claims are made to fail
    def test_zero_width_approximation(self, monkeypatch, capsys):
        classic = approx_module.classic_oscillatory
        monkeypatch.setattr(approx_module, "classic_oscillatory", lambda order, x:
                            dataclasses.replace(classic(order, x), half_width=0.0))
        g = GridSpec((0.0, 2.0), (1.0, 10.0), 5)
        rows, _ = scan_rows("classic", g)
        rep = verify_approx_grid("classic", g)
        assert rep.max_ratio > 1 and len(rep.violations) == rep.total == 10
        assert rep.violations == tuple((r.subject, r.nu, r.x, r.ratio - 1) for r in rows)
        assert main(["scan", "--method", "classic", "--nu-list", "0,2", "--x-lo", "1",
                     "--x-hi", "10", "--points", "5"]) == 1

    def test_failed_bound(self, monkeypatch, capsys):
        # at nu = 2, rhs <= 0 < lhs: no lhs/rhs, so the ratio is infinite
        monkeypatch.setattr(bounds_module, "bound_watson", lambda order, x: bounds_module._make(
            "watson", 2.0, 1.5 if order.nu == 1 else -1.0, strict=False, slack=0.0))
        g = GridSpec((1.0, 2.0), (1.0, 4.0), 3)
        rows, _ = scan_rows("watson", g)
        assert [r.ratio for r in rows] == [2.0 / 1.5] * 3 + [math.inf] * 3
        rep = verify_bounds_grid("watson", g)
        assert rep.max_ratio == math.inf
        assert rep.violations == tuple((r.subject, r.nu, r.x, r.value - r.oracle) for r in rows)
        assert [v[3] for v in rep.violations] == [0.5] * 3 + [3.0] * 3
        assert main(["scan", "--method", "watson", "--nu-list", "1,2", "--x-lo", "1",
                     "--x-hi", "4", "--points", "3"]) == 1


class TestSubjectTables:
    def test_functions_are_looked_up_at_call_time(self, monkeypatch, capsys):
        # tracers and test doubles rebind module attributes; the tables must
        # reach them rather than the functions bound at import
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds_module, "bound_watson",
                            counting(bounds_module.bound_watson))
        monkeypatch.setattr(approx_module, "classic_oscillatory",
                            counting(approx_module.classic_oscillatory))
        rows, _ = scan_rows("watson", GridSpec((1.0,), (1.0, 4.0), 2))
        assert len(rows) == 2 and calls == ["bound_watson"] * 2
        approx_row("classic", Order(1.0), 10.0)
        assert calls[2:] == ["classic_oscillatory"]
        assert main(["bounds", "--name", "watson", "--nu", "1", "--x", "2"]) == 0
        assert calls[3:] == ["bound_watson"]


class TestOlenkoSup:
    def test_normalized_in_sandwich(self):
        s = olenko_sup(Order(2.0), coarse_points=600)
        assert 0.35 < s.normalized < 1.26
        assert s.sup_value == pytest.approx(s.normalized * Order(2.0).mu)

    def test_polish_never_loses_to_the_scan(self):
        order = Order(2.0)
        s = olenko_sup(order, coarse_points=600)
        for x in (1.0, 2.0, 5.0, 50.0, 149.0):
            assert s.sup_value >= _oscillation_gap(order, x) - 1e-12

    def test_order_past_the_window(self):
        # sqrt(mu) past x_max, here mu = inf: the grid spans the whole window
        order = Order(1e200)
        s = olenko_sup(order, 50.0, 20)
        grid = [_oscillation_gap(order, 2.5 * k) for k in range(1, 21)]
        assert s.sup_value >= max(grid) and 0 < s.argmax_x <= 50.0

    def test_deterministic(self):
        assert olenko_sup(Order(5.0), 60.0, 400) == olenko_sup(Order(5.0), 60.0, 400)

    def test_domain(self):
        with pytest.raises(DomainError):
            olenko_sup(Order(0.5))  # mu = 0
        with pytest.raises(DomainError):
            olenko_sup(Order(2.0), x_max=500.0)
        with pytest.raises(DomainError):
            olenko_sup(Order(2.0), coarse_points=5)


_rng = random.Random(30)
# 20 seeded orders at the benchmark's window, and criterion 8's at the defaults
POLISH_CASES = ([(_rng.uniform(1.0, 10.0), 60.0, 300) for _ in range(20)]
                + [(nu, 150.0, 3000) for nu in (2.0, 5.0, 10.0)])
POLISH_IDS = [f"{nu:.4f}-{x_max:g}-{n}" for nu, x_max, n in POLISH_CASES]
# R evaluations (one bessel_j_ref call each) per case, in POLISH_CASES order,
# with the half-period searches cut and the grid peaks' not; the coarse scan
# took 329-336 at (60, 300) and 3025-3027 at the defaults, and every search
# uncut 179-269 and 481-646.  Cutting the grid peaks' searches too took
# 133-153 and 367-472, but can lose the sup (test_a_grid_peak_cut_can_lose_the_sup)
POLISH_EVALS = [152, 153, 151, 177, 149, 150, 148, 167, 173, 154,
                177, 176, 150, 133, 140, 175, 162, 180, 171, 173,
                367, 403, 500]


def _half_periods(order, x_max):
    """x0, the first omega + k pi at or past max(sqrt(mu), pi), and the
    intervals [omega + k pi, omega + (k+1) pi] above it, clipped to x_max."""
    lo, k = max(math.sqrt(order.mu), math.pi), 0
    while order.omega + k * math.pi >= lo:
        k -= 1
    while order.omega + k * math.pi < lo:
        k += 1
    x0, intervals = order.omega + k * math.pi, []
    while order.omega + k * math.pi < x_max:
        intervals.append((order.omega + k * math.pi,
                          min(order.omega + (k + 1) * math.pi, x_max)))
        k += 1
    return x0, intervals


@functools.cache
def _polished(nu, x_max, coarse_points):
    """olenko_sup's result, the ((a, b), (x, R(x)) started from, (x, R(x))
    returned, best passed) of each of its polishes, and every (x, R(x)) it
    evaluated."""
    polishes, evaluated = [], []
    brent = scan_module._brent_max

    def record(f, a, b, x, fx, best):
        found = brent(f, a, b, x, fx, best)
        polishes.append(((a, b), (x, fx), found, best))
        return found

    def gap(order, x):
        v = _oscillation_gap(order, x)
        evaluated.append((x, v))
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_brent_max", record)
        mp.setattr(scan_module, "_oscillation_gap", gap)
        return olenko_sup(Order(nu), x_max, coarse_points), polishes, evaluated


class TestOlenkoPolish:
    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_each_polish_keeps_its_coarse_peak(self, case):
        # every search starts from an evaluated point strictly inside its
        # bracket and ends at or above that point's R; the sup is the best
        # R evaluated anywhere
        s, polishes, evaluated = _polished(*case)
        for (a, b), (x0, v0), (x, v), _ in polishes:
            assert a < x0 < b and a < x < b
            assert (x0, v0) in evaluated and (x, v) in evaluated
            assert v >= v0
        assert s.sup_value == max(v for _, v in evaluated)

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_brackets_are_grid_neighbours_then_half_periods(self, case):
        # the brackets, as a multiset, are each grid peak's two neighbours
        # below x0 and the half-periods above it, each started from its grid
        # peak or midpoint; both kinds run in one list, best start first, and
        # only the half-periods get a best to cut on
        nu, x_max, coarse_points = case
        _, polishes, evaluated = _polished(*case)
        x0, intervals = _half_periods(Order(nu), x_max)
        r = dict(evaluated)
        xs = [x for x in (x_max * k / coarse_points for k in range(1, coarse_points + 1))
              if x < x0]
        peaks = [(xs[i - 1], xs[i + 1]) for i in range(1, len(xs) - 1)
                 if r[xs[i]] >= max(r[xs[i - 1]], r[xs[i + 1]])]
        assert sorted(p[0] for p in polishes) == sorted(peaks + intervals)
        assert all(x == (0.5 * (a + b) if a >= x0 else xs[xs.index(a) + 1])
                   for (a, b), (x, _), _, _ in polishes)
        assert all((best == -math.inf) == (a < x0) for (a, _), _, _, best in polishes)
        starts = [v for _, (_, v), _, _ in polishes]
        assert starts == sorted(starts, reverse=True)
        assert (x_max, _oscillation_gap(Order(nu), x_max)) in evaluated

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_sup_within_1e12_of_the_golden_polish(self, case):
        # one-sided: the half-period searches find crests that the golden
        # polish's five best coarse peaks miss, so the sup may only rise
        s, *_ = _polished(*case)
        nu, x_max, coarse_points = case
        ref, _ = golden_sup(Order(nu), x_max, coarse_points)
        assert s.sup_value >= ref * (1 - 1e-12), (s.sup_value, ref)

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_sup_is_the_oracles_r_at_its_argmax(self, case):
        s, *_ = _polished(*case)
        assert s.sup_value == _oscillation_gap(Order(case[0]), s.argmax_x)

    @pytest.mark.parametrize("case, budget", zip(POLISH_CASES, POLISH_EVALS), ids=POLISH_IDS)
    def test_evaluation_budget(self, case, budget):
        *_, evaluated = _polished(*case)
        assert len(evaluated) == budget
        assert budget <= (300 if case[1] == 60.0 else 700)

    def test_budget(self, monkeypatch):
        # 27 grid points below x0 = omega - pi, R(60) and the 18
        # half-periods' midpoints; then 7 for the best crest's search, 82
        # for the 17 other half-periods, cut after 4-5 steps each, and 8 for
        # each of the two grid peaks' uncut searches.  220 with no search
        # cut, 135 with the grid peaks' cut too, and the coarse scan took 333
        seen = []
        oracle = scan_module.bessel_j_ref
        monkeypatch.setattr(scan_module, "bessel_j_ref", lambda *a: seen.append(a) or oracle(*a))
        olenko_sup(Order(5.0), 60.0, 300)
        assert len(seen) == 151

    @pytest.mark.parametrize("nu, x_max, coarse_points, missed, found", [
        (1.0, 150.0, 3000, 145.30, 148.44),
        (POLISH_CASES[7][0], 60.0, 300, 56.79, 59.94),
    ], ids=["1-150-3000", POLISH_IDS[7]])
    def test_finds_the_crest_the_five_best_peaks_missed(self, nu, x_max, coarse_points,
                                                         missed, found):
        # the coarse scan's five best peaks returned the crest at `missed`;
        # the higher crest one half-period on is the window's sup
        order = Order(nu)
        s = olenko_sup(order, x_max, coarse_points)
        assert abs(s.argmax_x - found) < 0.01

        def r(t):
            return _oscillation_gap(order, t)
        _, old = scan_module._brent_max(r, missed - 1, missed + 1, missed, r(missed), -math.inf)
        assert s.sup_value > old * (1 + 1e-7)


_dense_rng = random.Random(31)
DENSE_CASES = ([(_dense_rng.uniform(1.0, 10.0), 150.0) for _ in range(2)]
               + [(_dense_rng.uniform(20.0, 30.0), 200.0) for _ in range(2)])
# the next draw from the same generator, so the cases above stay as they were
PAST_30_CASE = (_dense_rng.uniform(30.0, 120.0), 200.0)


def _dense_scan(order, x_max):
    """The half-periods above x0, the local maxima of R above x0 in each,
    and R's maximum, from R read at 32 points per interval (and as finely
    below x0)."""
    x0, intervals = _half_periods(order, x_max)
    n = math.ceil(32 * x0 / math.pi)
    xs = ([x0 * k / n for k in range(1, n)]
          + [a + (b - a) * j / 32 for a, b in intervals for j in range(32)] + [x_max])
    vals = [_oscillation_gap(order, x) for x in xs]
    maxima = [(xs[i], vals[i]) for i in range(1, len(xs) - 1)
              if vals[i] > vals[i - 1] and vals[i] >= vals[i + 1] and xs[i] > x0]
    return intervals, [[m for m in maxima if a <= m[0] < b] for a, b in intervals], max(vals)


@pytest.mark.parametrize("nu, x_max", DENSE_CASES, ids=[f"{nu:.4f}-{x:g}" for nu, x in DENSE_CASES])
def test_one_crest_per_half_period(nu, x_max):
    # olenko_sup's assumption: above x0, each interval [omega + k pi,
    # omega + (k+1) pi] holds at most one local maximum of R.  No interval
    # holds two local maxima, and the sup is at or above the dense maximum
    order = Order(nu)
    _, per_interval, dense_max = _dense_scan(order, x_max)
    assert max(map(len, per_interval)) == 1
    s = olenko_sup(order, x_max)
    assert s.sup_value >= dense_max * (1 - 1e-12)


def test_two_crests_share_a_half_period_past_nu_30():
    # at nu = 42.4822 the assumption fails: the interval from omega + 24 pi
    # = 142.91 holds two local maxima of R, 1.84 at x = 143.90 and 0.45 at
    # 145.27, where R's sup is 242.4.  Hankel's R ~ sqrt(2/pi) mu/2 |sin(x -
    # omega)| needs x >> mu, and here mu/(2x) is about 6 radians; two crests
    # meet where R's oscillation nearly cancels, far below the sup, which
    # olenko_sup still reaches
    nu, x_max = PAST_30_CASE
    order = Order(nu)
    intervals, per_interval, dense_max = _dense_scan(order, x_max)
    shared = [(round(a, 2), [round(x, 2) for x, _ in m])
              for (a, _), m in zip(intervals, per_interval) if len(m) > 1]
    assert shared == [(142.91, [143.9, 145.27])]
    assert max(v for m in per_interval if len(m) > 1 for _, v in m) < 0.01 * dense_max
    s = olenko_sup(order, x_max)
    assert s.sup_value >= dense_max * (1 - 1e-12)


def _uncut_sup(nu, x_max, coarse_points):
    """olenko_sup with every search run to Brent's stop rule, as before the cut."""
    brent = scan_module._brent_max
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_brent_max",
                   lambda f, a, b, x, fx, best: brent(f, a, b, x, fx, -math.inf))
        return olenko_sup(Order(nu), x_max, coarse_points)


_cut_rng = random.Random(34)
_low_rng = random.Random(35)
# seeded orders in [-0.45, 1), whose first crest past x = 0 is a grid peak
# below x0 (x0 < 2 pi), up to 0.70 of the sup
LOW_ORDERS = [_low_rng.uniform(-0.45, 1.0) for _ in range(8)]
# windows wholly below x0 (x_max < sqrt(mu)): every search is a grid peak's
BELOW_X0_CASES = [(10.0, 6.0, 300), (40.0, 30.0, 600), (5.0, 4.0, 40), (60.0, 50.0, 1000)]
# windows that end where R has climbed back to just below its first crest,
# whose |R''|/R is about 99: cutting that crest's grid-peak search would
# report R(x_max) as the sup (test_a_grid_peak_cut_can_lose_the_sup)
STEEP_CREST_CASES = [(2.7, 0.3772607973234243, 300), (2.64, 0.2646975093832409, 300)]
# POLISH_CASES (criterion 8's orders at the defaults among them), seeded
# orders in [10, 30] to x = 200, LOW_ORDERS at both windows and the windows
# below x0
CUT_CASES = (POLISH_CASES + [(_cut_rng.uniform(10.0, 30.0), 200.0, 2000) for _ in range(8)]
             + [(nu, x_max, n) for nu in LOW_ORDERS for x_max, n in ((60.0, 300), (150.0, 3000))]
             + BELOW_X0_CASES + STEEP_CREST_CASES)


@pytest.mark.parametrize("case", CUT_CASES, ids=[f"{nu:.4f}-{x:g}-{n}" for nu, x, n in CUT_CASES])
def test_the_cut_keeps_the_uncut_result(case):
    # the searches that stop once they cannot beat the best crest leave
    # sup_value, argmax_x and normalized bit for bit as the uncut ones
    s = _polished(*case)[0] if case in POLISH_CASES else olenko_sup(Order(case[0]), *case[1:])
    assert [v.hex() for v in dataclasses.astuple(s)] == [
        v.hex() for v in dataclasses.astuple(_uncut_sup(*case))]


def _crest_curvatures(order, x_max):
    """(x, R(x), |R''(x)|/R(x)) at the crest of each half-period above x0,
    from an uncut search and central differences of step 1e-3; a crest at
    its interval's clipped end (R still rising at x_max) is left out."""
    def r(t):
        return _oscillation_gap(order, t)
    h, out = 1e-3, []
    for a, b in _half_periods(order, x_max)[1]:
        x, v = scan_module._brent_max(r, a, b, 0.5 * (a + b), r(0.5 * (a + b)), -math.inf)
        if a + 0.01 < x < b - 0.01:
            out.append((x, v, abs(r(x + h) - 2 * v + r(x - h)) / (h * h * v)))
    return out


@pytest.mark.parametrize("nu, x_max", DENSE_CASES, ids=[f"{nu:.4f}-{x:g}" for nu, x in DENSE_CASES])
def test_crest_curvature_is_below_the_cut_bound(nu, x_max):
    # the cut assumes |R''| <= 2K R near a crest (K = 1.5); Hankel's
    # R ~ A |sin(x - phi)| gives 1, and the dense-scan orders stay below 2K
    # with a 10% margin: at most 1.01 in [1, 10] and 2.42 in [20, 30]
    bound = 2 * scan_module._CUT_CURVATURE
    worst = max(c for _, _, c in _crest_curvatures(Order(nu), x_max))
    assert worst < 0.9 * bound, worst


def test_the_curvature_bound_fails_far_below_the_sup():
    # at nu = 25.1, mu/(2x) is 2 pi near x = 50, where R's oscillation
    # nearly cancels: the crest at 50.51 has |R''|/R = 6.5 > 2K, but R =
    # 1.12 there, 0.5% of the sup 226.3, so the cut loses nothing
    order = Order(25.1)
    bound = 2 * scan_module._CUT_CURVATURE
    over = [(x, v, c) for x, v, c in _crest_curvatures(order, 200.0) if c > bound]
    assert [(round(x, 2), round(c, 1)) for x, _, c in over] == [(50.51, 6.5)]
    s = olenko_sup(order, 200.0)
    assert over[0][1] < 0.01 * s.sup_value
    assert s == _uncut_sup(25.1, 200.0, 3000)


_grid_peak_rng = random.Random(7)
GRID_PEAK_ORDERS = LOW_ORDERS + [_grid_peak_rng.uniform(1.0, 30.0) for _ in range(8)]


@pytest.mark.parametrize("x_max, coarse_points, count", [(60.0, 300, 8), (150.0, 3000, 9)])
def test_the_curvature_bound_fails_near_the_sup_below_x0(x_max, coarse_points, count):
    # below x0 no Hankel form holds R's shape, and |R''| <= 2K R fails at
    # the first crest past x = 0 (|R''|/R = 98.8 at nu = 2.68, x = 0.14) and
    # where R's oscillation nearly cancels (11.4 at nu = 10.39, x = 10.45).
    # Such crests are not far below the sup: 0.70 of it at nu = 0.37, x =
    # 0.61, past 0.65, so the grid peaks' searches are never cut.  The finer
    # grid also finds the crest at x = 0.14
    bound = 2 * scan_module._CUT_CURVATURE
    h, over = 1e-3, []
    for nu in GRID_PEAK_ORDERS:
        order = Order(nu)
        x0, _ = _half_periods(order, x_max)
        s, polishes, _ = _polished(nu, x_max, coarse_points)

        def r(t):
            return _oscillation_gap(order, t)
        over += [v / s.sup_value for _, _, (x, v), _ in polishes
                 if x < x0 and abs(r(x + h) - 2 * v + r(x - h)) / (h * h * v) > bound]
    assert len(over) == count and 0.65 < max(over) < 0.71, over


@pytest.mark.parametrize("nu, x_max, coarse_points", STEEP_CREST_CASES)
def test_a_grid_peak_cut_can_lose_the_sup(nu, x_max, coarse_points):
    # R(x_max) is the best grid value and the first crest M is just above
    # it; past the curvature bound, the crest's search given best = R(x_max)
    # cuts below it, so a cut there would report R(x_max) as the sup
    s, polishes, evaluated = _polished(nu, x_max, coarse_points)
    (a, b), (x0, g), (x, v), best = min(polishes, key=lambda p: p[0])
    assert best == -math.inf and (x, v) == (s.argmax_x, s.sup_value)
    r = dict(evaluated)
    r_end = max(r[x_max * j / coarse_points] for j in range(1, coarse_points + 1))
    assert g < r_end == r[x_max] < v
    cut = scan_module._brent_max(lambda t: _oscillation_gap(Order(nu), t), a, b, x0, g, r_end)
    assert cut[1] < r_end and x < 0.2 < x_max


@seed(30)
@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.05, 0.95), width=st.floats(1e-3, 1.0), left=st.floats(0.0, 100.0),
       start=st.floats(0.05, 0.95))
def test_brent_finds_a_cosine_crest(c, width, left, start):
    # one crest of cos on (a, b), from any interior start: the argmax
    # lands within Brent's stop rule of the peak, or on the plateau about
    # 1.5e-8 width wide where 1 - cos((t - peak)/width) rounds to 0, and
    # its value is never below the start's
    a, b = left, left + width
    peak = a + c * width
    x0 = a + start * width

    def f(t):
        return math.cos((t - peak) / width)

    x, v = scan_module._brent_max(f, a, b, x0, f(x0), -math.inf)
    tol = scan_module._POLISH_REL * abs(x) + scan_module._POLISH_ABS
    assert abs(x - peak) <= 3 * tol + 2e-8 * width
    assert v == f(x) >= f(x0)


@seed(34)
@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.05, 0.95), width=st.floats(0.6, 3.0), left=st.floats(0.0, 100.0),
       start=st.floats(0.05, 0.95), best=st.floats(0.5, 1.5))
def test_brent_cut_keeps_every_crest_that_reaches_best(c, width, left, start, best):
    # cos((t - peak)/width), width >= 0.6, has |f''| = f/width^2 < 2K f
    # near its crest of height 1: given a best at or below 1 the search is
    # the uncut one; above 1 it may stop early, below best
    a, b = left, left + width
    peak = a + c * width
    x0 = a + start * width

    def f(t):
        return math.cos((t - peak) / width)

    uncut = scan_module._brent_max(f, a, b, x0, f(x0), -math.inf)
    x, v = scan_module._brent_max(f, a, b, x0, f(x0), best)
    if best <= 1:
        assert (x, v) == uncut
    else:
        assert f(x0) <= v <= uncut[1] < best and v == f(x)
