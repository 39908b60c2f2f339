import argparse
import dataclasses
import math
import time

import pytest

from besselcert import Order, cli
from besselcert.cli import CSV_HEADER, _build_parser, main
from besselcert.scan import ScanRow, approx_row

# a 17-digit rendering of J_0(1); the printed string may differ in the last
# digit (it shows the double's own expansion) but parses to the same double
J0_AT_1 = float("0.76519768655796655")


APPROX_CHOICES = ("classic", "sharp", "sharp_low", "sharp_high", "simplified",
                  "olver", "transition", "best",
                  "airy_classic", "airy_sharp", "airy_simplified")
SCAN_CHOICES = APPROX_CHOICES + (
    "watson", "envelope", "derivative", "monotonic", "log_derivative",
    "airy_envelope", "wronskian_kernel", "near_first_zero", "leftmost_max",
    "sonin_szego", "sonin_envelope", "sonin_airy", "lemma_integral")
# bounds --name choices, in order, with the flags each requires beyond --name;
# monotonic reads its t from --t
REQUIRED_FLAGS = {"watson": ("nu", "x"), "envelope": ("nu", "x"),
                  "derivative": ("nu", "x"), "monotonic": ("nu", "t"),
                  "log_derivative": ("nu", "x"), "airy_envelope": ("x",),
                  "wronskian_kernel": ("nu", "x", "x2"),
                  "near_first_zero": ("nu",), "leftmost_max": ("nu",),
                  "lemma_integral": ("x",), "airy_envelope_maxima": ()}


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(stdout):
    lines = stdout.splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestEval:
    def test_reference_row(self, capsys):
        code, out, _ = run(capsys, "eval", "--nu", "0", "--x", "1")
        assert code == 0
        (row,) = rows_of(out)
        assert row[0] == "oracle"
        assert float(row[3]) == J0_AT_1
        assert float(row[5]) < 1e-15
        assert row[7] == "true"

    def test_large_order(self, capsys):
        # a large order at moderate x
        code, out, _ = run(capsys, "eval", "--nu", "45.1", "--x", "40")
        assert code == 0
        (row,) = rows_of(out)
        assert row[3] == "0.015354176076646674"

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--nu", "0")
        assert code == 2

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--nu", "0", "--x", "-3")
        assert code == 2 and "error:" in err


class TestApprox:
    def test_exact_case_prints_zero_width(self, capsys):
        code, out, _ = run(capsys, "approx", "--nu", "0.5", "--x", "3")
        assert code == 0
        (row,) = rows_of(out)
        assert row[0] == "sharp_low" and row[5] == "0"

    def test_olver_point(self, capsys):
        code, out, _ = run(capsys, "approx", "--nu", "5", "--x", "20",
                           "--method", "olver", "--l1", "3", "--l2", "3")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row[6]) <= 1 and row[7] == "true"

    def test_olver_takes_the_librarys_term_counts(self, capsys):
        # approx and scan default to l1 = l2 = 3, as approx_row and
        # scan_rows do; at l1 = 1 nu = 6 lies below max(nu/2 - 1/4, 1)
        code, out, _ = run(capsys, "approx", "--method", "olver", "--nu", "2.5", "--x", "10")
        assert code == 0
        assert out == cli._render([approx_row("olver", Order(2.5), 10.0)], "csv")
        code, out, err = run(capsys, "approx", "--method", "olver", "--nu", "6", "--x", "10")
        assert code == 0 and err == ""

    def test_transition_takes_z(self, capsys):
        code, out, _ = run(capsys, "approx", "--nu", "10", "--x", "0.5",
                           "--method", "transition")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row[2]) == 0.5  # the z coordinate, not 10 + 10^(1/3)/2


class TestBounds:
    def test_point_bound_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--name", "watson",
                           "--nu", "1", "--x", "2")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row[4]) == pytest.approx(1.0, rel=1e-14)

    def test_two_report_bound(self, capsys):
        code, out, _ = run(capsys, "bounds", "--name", "log_derivative",
                           "--nu", "0.5", "--x", "0.5")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 2
        assert float(rows[0][3]) == pytest.approx(math.sqrt(3) - 2, rel=1e-14)

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "bounds", "--name", "monotonic", "--nu", "2")
        assert code == 2 and "--t" in err

    @pytest.mark.parametrize("name,flag", [(name, flag) for name, flags in REQUIRED_FLAGS.items()
                                           for flag in flags])
    def test_every_required_flag(self, capsys, name, flag):
        values = {"nu": "2.5", "x": "3", "t": "0.5", "x2": "5"}
        given = [arg for f in REQUIRED_FLAGS[name] if f != flag for arg in (f"--{f}", values[f])]
        code, out, err = run(capsys, "bounds", "--name", name, *given)
        assert code == 2 and out == ""
        assert err == f"error: bounds --name {name} requires --{flag}\n"

    def test_log_derivative_where_j_squared_underflows(self, capsys):
        code, out, err = run(capsys, "bounds", "--name", "log_derivative",
                             "--nu", "60", "--x", "0.05")
        assert code == 0 and err == ""
        assert [row[7] for row in rows_of(out)] == ["true", "true"]

    def test_airy_envelope_at_tiny_x(self, capsys):
        code, out, _ = run(capsys, "bounds", "--name", "airy_envelope", "--x", "1e-250")
        assert code == 0
        (row,) = rows_of(out)
        assert row[7] == "true"

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "--name", "airy_envelope",
                           "--x", "3", "--format", "plain")
        assert code == 0
        assert out.startswith("airy_envelope: nu=nan x=3")


class TestZeros:
    def test_airy_estimate_row(self, capsys):
        code, out, _ = run(capsys, "zeros", "--family", "airy", "--s", "1",
                           "--mode", "full")
        assert code == 0
        (row,) = rows_of(out)
        assert abs(float(row[3]) - 2.338107410) < 0.00122
        assert row[7] == "true"

    def test_bessel_requires_order(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "bessel", "--s", "1")
        assert code == 2 and "--nu" in err

    def test_bessel_row_contains_pi(self, capsys):
        code, out, _ = run(capsys, "zeros", "--family", "bessel", "--s", "1",
                           "--nu", "0.5")
        assert code == 0
        (row,) = rows_of(out)
        center, refined, hw = float(row[3]), float(row[4]), float(row[5])
        assert refined == pytest.approx(math.pi, abs=1e-9)
        assert center <= refined <= center + hw


class TestScan:
    def test_one_row_per_check(self, capsys):
        code, out, _ = run(capsys, "scan", "--method", "classic",
                           "--nu-list", "0,1,5", "--x-lo", "0.5",
                           "--x-hi", "100", "--points", "20")
        assert code == 0
        assert len(rows_of(out)) == 60

    def test_bound_names_are_scannable(self, capsys):
        code, out, _ = run(capsys, "scan", "--method", "envelope",
                           "--nu-list", "0.5,2", "--x-lo", "1",
                           "--x-hi", "50", "--points", "10")
        assert code == 0
        assert len(rows_of(out)) == 20

    def test_byte_identical_reruns(self, capsys):
        args = ("scan", "--method", "sharp", "--nu-list", "0,0.5,3",
                "--x-lo", "0.3", "--x-hi", "120", "--points", "15")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_empty_admissible_grid(self, capsys):
        code, _, err = run(capsys, "scan", "--method", "derivative",
                           "--nu-list", "10", "--x-lo", "0.5",
                           "--x-hi", "5", "--points", "5")
        # scan_rows' own refusal, with no count of the skipped points
        assert code == 2 and err == "error: scan: no admissible grid points for derivative\n"

    def test_bad_nu_list(self, capsys):
        code, _, _ = run(capsys, "scan", "--method", "classic",
                         "--nu-list", "0;1", "--x-lo", "1",
                         "--x-hi", "2", "--points", "5")
        assert code == 2


class TestSup:
    def test_row_in_window(self, capsys):
        code, out, _ = run(capsys, "sup", "--nu", "2", "--coarse-points", "400")
        assert code == 0
        (row,) = rows_of(out)
        normalized = float(row[3]) / float(row[4])
        assert 0.35 < normalized < 1.26

    def test_degenerate_window_fails_the_sandwich(self, capsys):
        # a sub-oscillation window cannot see the sup; the row reports the
        # broken sandwich and the exit code says so
        code, out, _ = run(capsys, "sup", "--nu", "0.51", "--x-max", "0.5",
                           "--coarse-points", "50")
        assert code == 1
        (row,) = rows_of(out)
        assert row[7] == "false"


@pytest.mark.parametrize("nu", ["inf", "nan"])
@pytest.mark.parametrize("args", [
    ("eval", "--x", "1"), ("bounds", "--name", "watson", "--x", "2"),
    ("bounds", "--name", "envelope", "--x", "2"),
    ("bounds", "--name", "log_derivative", "--x", "2"),
    ("bounds", "--name", "leftmost_max"), ("sup",)])
def test_non_finite_order_is_usage_error(capsys, args, nu):
    code, out, err = run(capsys, *args, "--nu", nu)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("nu", ["inf", "nan"])
def test_transition_refuses_a_non_finite_order(capsys, nu):
    # the form's own rule refuses before the oracle is consulted
    code, out, err = run(capsys, "approx", "--method", "transition", "--nu", nu, "--x", "1")
    assert code == 2 and out == ""
    assert err == "error: transition: nu must be finite\n"


@pytest.mark.parametrize("x_hi", ["130", "nan", "-5", "0"])
def test_envelope_maxima_refuses_x_hi_outside_the_ai_domain(capsys, x_hi):
    # refused before the crest search starts, not after it reaches x = 120
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--name", "airy_envelope_maxima", "--x-hi", x_hi)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: airy_envelope_maxima: x_hi must lie in (0, 120]\n"


@pytest.mark.parametrize("args", [
    ("approx", "--method", "classic", "--nu", "2", "--x", "1e-320"),
    ("bounds", "--name", "derivative", "--nu", "2", "--x", "1e250")])
def test_float_overflow_is_usage_error(capsys, args):
    # an OverflowError inside a float formula ends in one error line, not a
    # traceback with the row-failure code
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("approx", "--method", "airy_classic", "--nu", "0", "--x", "1e-210"),
    ("bounds", "--name", "watson", "--nu", "1000", "--x", "10")])
def test_double_range_edge_is_domain_error(capsys, args):
    # past the doubles' edge a formula refuses by its declared domain: one
    # error line, where it used to raise ZeroDivisionError or OverflowError
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sup_past_the_omega_edge_is_domain_error(capsys):
    # omega = nu pi/2 + pi/4 is inf at nu = 1e308: refused by olenko_sup's
    # domain, where math.cos used to print "error: math domain error"
    code, out, err = run(capsys, "sup", "--nu", "1e308", "--x-max", "1")
    assert code == 2 and out == ""
    assert err == "error: olenko_sup: omega = nu pi/2 + pi/4 leaves the doubles\n"


def test_arithmetic_faults_are_not_usage_errors(monkeypatch):
    # only OverflowError means input out of float range; a ZeroDivisionError
    # or a trapped decimal signal is a fault and must not exit 2 quietly
    def fault(*args):
        raise ZeroDivisionError("fault")
    monkeypatch.setattr(cli, "bessel_j_ref", fault)
    with pytest.raises(ZeroDivisionError):
        main(["eval", "--nu", "1", "--x", "2"])


def test_huge_order_evaluates_to_zero(capsys):
    code, out, err = run(capsys, "eval", "--nu", "1e9", "--x", "1e-300")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "oracle,1000000000,1e-300,0,0,4.9406564584124654e-324,0,true"


class TestHarness:
    def test_header_names_the_row_fields_in_order(self):
        # _render reads each column of both formats from ScanRow by its header name
        assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(ScanRow)]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main(["eval", "--nu", "1", "--x", "2", "--output", str(target)])
        assert code == 0
        text = target.read_text()
        assert text.startswith(CSV_HEADER + "\n") and text.endswith("\n")
        assert capsys.readouterr().out == ""

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_choice(self, capsys):
        assert main(["approx", "--nu", "0", "--x", "1",
                     "--method", "chebyshev"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "eval", "--nu", "0", "--x", "1", "--output", str(target))
        assert code == 2 and err.startswith("error:") and out == ""

    def test_defaults_are_the_librarys(self, monkeypatch):
        # a flag the library also defaults reads the called function's
        # default, so moving the library's moves the flag's
        from besselcert import bounds, scan, zeros
        monkeypatch.setattr(bounds.airy_envelope_maxima, "__defaults__", (14.0,))
        monkeypatch.setattr(zeros.airy_zero_estimate, "__defaults__", ("simplified",))
        monkeypatch.setattr(scan.olenko_sup, "__defaults__", (60.0, 300))
        parser = _build_parser()
        assert parser.parse_args(["bounds", "--name", "airy_envelope_maxima"]).x_hi == 14.0
        assert parser.parse_args(["zeros", "--family", "airy", "--s", "1"]).mode == "simplified"
        ns = parser.parse_args(["sup", "--nu", "2"])
        assert (ns.x_max, ns.coarse_points) == (60.0, 300)

    def test_subject_choices(self):
        # the choices fix the --help text: same subjects, same order
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def choices(command, dest):
            return tuple(next(a.choices for a in sub.choices[command]._actions
                              if a.dest == dest))

        assert choices("approx", "method") == APPROX_CHOICES
        assert choices("bounds", "name") == tuple(REQUIRED_FLAGS)
        assert choices("scan", "method") == SCAN_CHOICES
        assert choices("zeros", "mode") == ("full", "simplified")
        assert choices("scan", "spacing") == ("log", "linear")
