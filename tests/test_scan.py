import bisect
import dataclasses
import functools
import inspect
import math
import random

import mpmath
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
from besselcert.cli import _build_parser, main
from besselcert.scan import approx_row
from golden_polish import _oscillation_gap, golden_max, golden_sup


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

    @pytest.mark.parametrize("name, nus, chain_rows, refused", [
        ("sonin_szego", (0.25, 0.25, 1.0), (4, 4, 0), 5),  # nu = 1 lies outside szego
        ("sonin_envelope", (1.0, 10.0, 2.0), (4, 0, 3), 6),  # x <= sqrt(mu) refused
    ], ids=["szego", "envelope"])
    def test_sonin_chains_end_at_each_order(self, name, nus, chain_rows, refused):
        # each nu_values entry is a chain of its own, a repeated order too: a
        # row compares an admitted sample with the order's admitted sample
        # before it, never the last of one order with the first of the next
        variant, down = scan_module._SONIN[name]
        g = GridSpec(nus, (1.0, 9.5), 5)
        expected, lengths, skipped = [], [], 0
        for nu in nus:
            samples = []
            for x in g.x_values():
                try:
                    samples.append(bounds_module.sonin_eval(variant, Order(nu), x))
                except DomainError:
                    skipped += 1
            lengths.append(max(len(samples) - 1, 0))
            for prev, cur in zip(samples, samples[1:]):
                lhs, rhs = (cur.S, prev.S) if down else (prev.S, cur.S)
                expected.append((name, nu, cur.x, lhs, rhs))
        assert tuple(lengths) == chain_rows and skipped == refused
        rows, got_skipped = scan_rows(name, g)
        assert [(r.subject, r.nu, r.x, r.value, r.oracle) for r in rows] == expected
        assert got_skipped == refused
        assert all(r.holds for r in rows)

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


class TestOneDecision:
    # each sweep decision is made in one place: an empty grid's refusal in
    # scan_rows, olver's default term count in scan._OLVER_TERMS
    def test_a_grid_with_no_admitted_point_is_refused(self):
        with pytest.raises(DomainError) as refused:
            scan_rows("derivative", GridSpec((10.0,), (0.5, 5.0), 5))
        assert str(refused.value) == "scan: no admissible grid points for derivative"

    def test_a_sonin_scan_with_no_pair_is_refused(self):
        # x = 130 lies past the Airy window, so each order admits one sample
        # of S, near x = 114, and has nothing to compare it with
        g = GridSpec((0.0, 1.0), (100.0, 130.0), 2)
        admitted = []
        for nu in g.nu_values:
            for x in g.x_values():
                try:
                    admitted.append(bounds_module.sonin_eval("airy", Order(nu), x).x)
                except DomainError:
                    pass
        assert admitted == [g.x_values()[0]] * 2
        with pytest.raises(DomainError) as refused:
            scan_rows("sonin_airy", g)
        assert str(refused.value) == "scan: no admissible grid points for sonin_airy"

    def test_olver_terms_default_is_one_constant(self):
        for f in (approx_row, scan_rows, verify_approx_grid):
            params = inspect.signature(f).parameters
            assert params["l1"].default == params["l2"].default == scan_module._OLVER_TERMS
        commands = next(a for a in _build_parser()._actions if a.dest == "cmd").choices
        defaults = {(cmd, a.dest): a.default for cmd, p in commands.items()
                    for a in p._actions if a.dest in ("l1", "l2")}
        assert set(defaults) == {(cmd, flag) for cmd in ("approx", "scan") for flag in ("l1", "l2")}
        assert set(defaults.values()) == {scan_module._OLVER_TERMS}


_x_max_rng = random.Random(47)
# the first three of 200 seeded x_max in [10, 200] with x_max 10/10 > x_max
_ROUNDING_UP_X_MAX = [x for x in (_x_max_rng.uniform(10.0, 200.0) for _ in range(200))
                      if x * 10 / 10 > x][:3]


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

    @pytest.mark.parametrize("x_max", (1e-305, 1e-307, 1e-308))
    def test_a_tiny_window_is_its_one_grid_point(self, x_max):
        # ceil(x_max) = 1, so the grid is the one point x_max, where
        # sqrt(2/(pi x)) is a double although at x_max/coarse_points it is not
        s = olenko_sup(Order(2.0), x_max, 3000)
        assert 0 <= s.sup_value <= s.upper < x_max

    @pytest.mark.parametrize("nu", (1e6, 1e12))
    def test_the_grid_ends_at_x_max(self, nu):
        # x_max n/n rounds above x_max = 120.01 at n = 10; that read lay
        # outside the window, and from nu ~ 1e11 on its cell, past sqrt(mu),
        # overflowed exp(mu (b - x_r)/(2 x_r b)) into a bare OverflowError
        assert 120.01 * 10 / 10 > 120.01
        s, evaluated = _sup_with_reads(nu, 120.01, 10)
        assert all(0 < x <= 120.01 for x, _ in evaluated)
        assert evaluated[9][0] == s.argmax_x == 120.01

    @pytest.mark.parametrize("x_max", _ROUNDING_UP_X_MAX)
    def test_no_read_leaves_a_seeded_window(self, x_max):
        # seeded windows whose x_max n/n rounds above x_max: the grid's last
        # point is x_max, and no read lies past it
        s, evaluated = _sup_with_reads(2.0, x_max, 10)
        assert evaluated[9][0] == x_max
        assert all(0 < x <= x_max for x, _ in evaluated) and s.argmax_x <= x_max

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
# R evaluations (one bessel_j_ref call each) per case, in POLISH_CASES order:
# the step-1 grid (60 or 150 points), then the midpoints the best-first
# bisection reads until upper is within 1e-12 (plus R's charge) of the sup
POLISH_EVALS = [109, 101, 179, 101, 101, 102, 150, 103, 85, 125,
                85, 85, 102, 118, 104, 90, 105, 90, 84, 97,
                196, 315, 190]


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
def _sup_with_reads(nu, x_max, coarse_points):
    """olenko_sup's result and every (x, R(x)) it read, in order."""
    evaluated = []
    signed_gap = scan_module._signed_gap

    def gap(order, x):
        h, charge = signed_gap(order, x)
        evaluated.append((x, abs(h)))
        return h, charge

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_signed_gap", gap)
        return olenko_sup(Order(nu), x_max, coarse_points), evaluated


_low_rng = random.Random(35)
# seeded orders in [-0.45, 1): Szego's lemma below 1/2, a turning point
# sqrt(mu) below 0.87 above it
LOW_ORDERS = [_low_rng.uniform(-0.45, 1.0) for _ in range(8)]
# windows wholly below sqrt(mu), where one J, J' reading bounds |u| and |u'|
BELOW_SQRT_MU_CASES = [(10.0, 6.0, 300), (40.0, 30.0, 600), (5.0, 4.0, 40), (60.0, 50.0, 1000)]
# windows that end where R has climbed back to just below its first crest,
# whose |R''|/R is about 99
STEEP_CREST_CASES = [(2.7, 0.3772607973234243, 300), (2.64, 0.2646975093832409, 300)]
_cut_rng = random.Random(34)
# POLISH_CASES, seeded orders in [10, 30] to x = 200, LOW_ORDERS at both
# windows, and the windows below sqrt(mu) and at a steep crest
WINDOWS = (POLISH_CASES + [(_cut_rng.uniform(10.0, 30.0), 200.0, 2000) for _ in range(8)]
           + [(nu, x_max, n) for nu in LOW_ORDERS for x_max, n in ((60.0, 300), (150.0, 3000))]
           + BELOW_SQRT_MU_CASES + STEEP_CREST_CASES)
WINDOW_IDS = [f"{nu:.4f}-{x:g}-{n}" for nu, x, n in WINDOWS]


class TestOlenkoPolish:
    @pytest.mark.parametrize("case", WINDOWS, ids=WINDOW_IDS)
    def test_the_sup_is_the_best_r_read(self, case):
        # every R read lies in the window, the result is the first in x of
        # the largest, and the cells the search left unsplit bound R within
        # 1e-12 of it, plus its own rounding charge, which the cells that
        # end at argmax_x carry
        s, evaluated = _sup_with_reads(*case)
        assert all(0 < x <= case[1] for x, _ in evaluated)
        best = max(v for _, v in evaluated)
        assert (s.argmax_x, s.sup_value) == min((x, v) for x, v in evaluated if v == best)
        charge = scan_module._signed_gap(Order(case[0]), s.argmax_x)[1]
        assert s.sup_value + charge <= s.upper <= s.sup_value * (1 + 1.01e-12) + charge

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_the_search_reads_the_grid_then_midpoints(self, case):
        # R is read on the grid x_max i/n, i < n, and x_max, n =
        # min(coarse_points, ceil(x_max)), then only at the midpoint of two
        # neighbours among the points read so far (0 counting as one): the
        # cells of a bisection
        nu, x_max, coarse_points = case
        _, evaluated = _sup_with_reads(*case)
        n = min(coarse_points, math.ceil(x_max))
        xs = [x for x, _ in evaluated]
        assert xs[:n] == [x_max * i / n for i in range(1, n)] + [x_max]
        seen = [0.0] + xs[:n]
        for x in xs[n:]:
            i = bisect.bisect(seen, x)
            assert 0 < i < len(seen) and x == 0.5 * (seen[i - 1] + seen[i])
            seen.insert(i, x)

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_sup_within_1e12_of_the_golden_polish(self, case):
        # one-sided: the half-period searches find crests that the golden
        # polish's five best coarse peaks miss, so the sup may only rise
        s, *_ = _sup_with_reads(*case)
        nu, x_max, coarse_points = case
        ref, _ = golden_sup(Order(nu), x_max, coarse_points)
        assert s.sup_value >= ref * (1 - 1e-12), (s.sup_value, ref)

    @pytest.mark.parametrize("case", POLISH_CASES, ids=POLISH_IDS)
    def test_sup_is_the_oracles_r_at_its_argmax(self, case):
        s, *_ = _sup_with_reads(*case)
        assert s.sup_value == _oscillation_gap(Order(case[0]), s.argmax_x)

    @pytest.mark.parametrize("case, budget", zip(POLISH_CASES, POLISH_EVALS), ids=POLISH_IDS)
    def test_evaluation_budget(self, case, budget):
        *_, evaluated = _sup_with_reads(*case)
        assert len(evaluated) == budget
        assert budget <= (300 if case[1] == 60.0 else 700)

    def test_budget(self, monkeypatch):
        # one J reading at sqrt(mu) = 4.97, which bounds |u| and |u'| below
        # it, R on the 60 grid points and at 70 midpoints
        seen = []
        oracle = scan_module.bessel_j_ref
        monkeypatch.setattr(scan_module, "bessel_j_ref", lambda *a: seen.append(a) or oracle(*a))
        olenko_sup(Order(5.0), 60.0, 300)
        assert len(seen) == 131
        assert seen[0][1] == math.sqrt(Order(5.0).mu)

    @pytest.mark.parametrize("nu, x_max, coarse_points, missed, found", [
        (1.0, 150.0, 3000, 145.30, 148.44),
        (POLISH_CASES[7][0], 60.0, 300, 56.79, 59.94),
    ], ids=["1-150-3000", POLISH_IDS[7]])
    def test_finds_the_crest_the_five_best_peaks_missed(self, nu, x_max, coarse_points,
                                                         missed, found):
        # the coarse scan's five best peaks returned the crest at `missed`;
        # the higher crest one half-period on is the window's sup, and the
        # enclosure's lower end clears the missed crest
        order = Order(nu)
        s = olenko_sup(order, x_max, coarse_points)
        assert abs(s.argmax_x - found) < 0.01
        _, old = golden_max(lambda t: _oscillation_gap(order, t), missed - 1, missed + 1)
        assert old * (1 + 1e-7) < s.sup_value <= s.upper < s.sup_value * (1 + 1e-10)


def _reads(nu, x_max, coarse_points, stop_rel):
    """olenko_sup's result with its stop at stop_rel, and every x it read R at."""
    xs = []
    signed_gap = scan_module._signed_gap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_module, "_STOP_REL", stop_rel)
        mp.setattr(scan_module, "_signed_gap", lambda order, x: xs.append(x) or signed_gap(order, x))
        return olenko_sup(Order(nu), x_max, coarse_points), xs


@pytest.mark.parametrize("case", WINDOWS, ids=WINDOW_IDS)
def test_the_cut_keeps_the_uncut_result(case):
    # the search leaves unsplit (cuts) every cell whose bound is within
    # 1e-12 relative, plus R's charge, of the best R read.  Run on with the
    # stop ten times tighter, it reads the same points first, and whatever
    # more it reads stays at most upper (to its charge): the cut run's
    # sup_value is within 1e-12 of the uncut one's
    s, xs = _reads(*case, scan_module._STOP_REL)
    uncut, uncut_xs = _reads(*case, scan_module._STOP_REL / 10)
    assert uncut_xs[:len(xs)] == xs
    charge = scan_module._signed_gap(Order(case[0]), uncut.argmax_x)[1]
    assert s.sup_value <= uncut.sup_value <= s.upper + charge
    assert uncut.upper <= uncut.sup_value * (1 + 1.01e-13) + charge


@pytest.mark.parametrize("case", [(2.5, 10.0, 10), (0.25, 60.0, 300)])
def test_with_no_stop_the_search_ends_at_a_cell_it_cannot_halve(case):
    # a negative stop never ends the search by width: it halves the top
    # cell until the cell's ends are adjacent doubles, and stops there
    s, xs = _reads(*case, -1.0)
    xs.sort()
    assert any(math.nextafter(a, math.inf) == b for a, b in zip(xs, xs[1:]))
    assert s.sup_value <= s.upper <= s.sup_value * (1 + 1e-10)


# where mu/(2x) is several radians, two local maxima of R share a half-period
PAST_30_CASE = (42.482183989316766, 200.0)


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


_dense_rng = random.Random(31)
DENSE_CASES = ([(_dense_rng.uniform(1.0, 10.0), 150.0) for _ in range(2)]
               + [(_dense_rng.uniform(20.0, 30.0), 200.0) for _ in range(2)])


@pytest.mark.parametrize("nu, x_max", DENSE_CASES, ids=[f"{nu:.4f}-{x:g}" for nu, x in DENSE_CASES])
def test_one_crest_per_half_period(nu, x_max):
    # above x0, each interval [omega + k pi, omega + (k+1) pi] holds at most
    # one local maximum of R at these orders (olenko_sup assumes nothing of
    # R's shape; past nu = 30 the rule fails, see the next test), and the
    # enclosure holds the dense maximum
    order = Order(nu)
    _, per_interval, dense_max = _dense_scan(order, x_max)
    assert max(map(len, per_interval)) == 1
    s = olenko_sup(order, x_max)
    assert dense_max * (1 - 1e-12) <= s.sup_value and dense_max <= s.upper


def test_two_crests_share_a_half_period_past_nu_30():
    # at nu = 42.4822 the interval from omega + 24 pi = 142.91 holds two
    # local maxima of R, 1.84 at x = 143.90 and 0.45 at 145.27, where R's
    # sup is 242.4.  Hankel's R ~ sqrt(2/pi) mu/2 |sin(x - omega)| needs x >>
    # mu, and here mu/(2x) is about 6 radians; two crests meet where R's
    # oscillation nearly cancels.  The enclosure holds the dense maximum
    nu, x_max = PAST_30_CASE
    order = Order(nu)
    intervals, per_interval, dense_max = _dense_scan(order, x_max)
    shared = [(round(a, 2), [round(x, 2) for x, _ in m])
              for (a, _), m in zip(intervals, per_interval) if len(m) > 1]
    assert shared == [(142.91, [143.9, 145.27])]
    assert max(v for m in per_interval if len(m) > 1 for _, v in m) < 0.01 * dense_max
    s = olenko_sup(order, x_max)
    assert dense_max * (1 - 1e-12) <= s.sup_value and dense_max <= s.upper


@pytest.mark.parametrize("nu, x_max, coarse_points", STEEP_CREST_CASES)
def test_a_grid_peak_cut_can_lose_the_sup(nu, x_max, coarse_points):
    # the window is one grid cell, and R(x_max), read first, is just below
    # the first crest: a curvature cut given that best stopped below the
    # crest.  The chord bound needs no curvature rule, so the search ends on
    # the crest
    s, evaluated = _sup_with_reads(nu, x_max, coarse_points)
    assert evaluated[0][0] == x_max
    assert evaluated[0][1] < s.sup_value <= s.upper < s.sup_value * (1 + 1e-11)
    assert s.argmax_x < 0.2 < x_max


def _mp_gap(nu, x):
    """R(x) by mpmath, the phase nu pi/2 + pi/4 carried past nu's digits."""
    nu, x = mpmath.mpf(nu), mpmath.mpf(x)
    with mpmath.workdps(30 + int(mpmath.log10(abs(nu) + 1))):
        c = mpmath.cos(x - mpmath.pi * nu / 2 - mpmath.pi / 4)
    with mpmath.workdps(30):
        main = mpmath.sqrt(2 / (mpmath.pi * x)) * c
        return x ** 1.5 * abs(mpmath.besselj(nu, x) - main)


_window_rng = random.Random(37)
# the curvature rule's failing order and the two-crest order at x = 200, the
# steep crests, orders past 1.3e154 (mu = inf, sqrt(mu) past the window), a
# grid step past sqrt(8), and seeded windows of nu in [-0.45, 60]
ENCLOSURE_WINDOWS = ([(25.1, 200.0, 3000), (PAST_30_CASE[0], 200.0, 3000)]
                     + STEEP_CREST_CASES + BELOW_SQRT_MU_CASES
                     + [(1e200, 50.0, 20), (1e300, 3.0, 3000), (3.0, 40.0, 10)]
                     + [(nu, _window_rng.uniform(0.5, 30.0), 3000) for nu in LOW_ORDERS]
                     + [(_window_rng.uniform(-0.45, 60.0), _window_rng.uniform(0.3, 30.0), 3000)
                        for _ in range(24)])


@pytest.mark.parametrize("nu, x_max, coarse_points", ENCLOSURE_WINDOWS,
                         ids=[f"{nu:.4g}-{x:.4g}-{n}" for nu, x, n in ENCLOSURE_WINDOWS])
def test_the_enclosure_holds_mpmaths_max(nu, x_max, coarse_points):
    # R read by the oracle on a grid of step at most pi/32 (and x_max/64);
    # its argmax_x, x_max and its three best local maxima, each refined by
    # 45 golden-section steps, read by mpmath.  The best of those is R at a
    # point of the window, so at most the sup, and at least R(argmax_x):
    # sup_value (to its charge) <= it <= upper, and upper stops within 1e-12
    # relative plus the charge of sup_value
    order = Order(nu)
    s = olenko_sup(order, x_max, coarse_points)
    n = max(64, math.ceil(32 * x_max / math.pi))
    xs = [x_max * i / n for i in range(n + 1)]
    vals = [0.0] + [_oscillation_gap(order, x) for x in xs[1:]]
    peaks = sorted((i for i in range(1, n) if vals[i - 1] <= vals[i] >= vals[i + 1]),
                   key=lambda i: vals[i])[-3:]
    points = [s.argmax_x, x_max] + [
        golden_max(lambda t: _oscillation_gap(order, t), xs[i - 1], xs[i + 1])[0] for i in peaks]
    mp_max = max(_mp_gap(nu, x) for x in points)
    charge = scan_module._signed_gap(order, s.argmax_x)[1]
    assert s.sup_value - charge <= mp_max <= s.upper
    assert max(vals) <= s.upper <= s.sup_value * (1 + 1.01e-12) + charge
