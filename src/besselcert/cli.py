"""Batch command line front end: evaluate, compare, verify, export CSV.

Every subcommand emits rows under the fixed header
  subject,nu,x,value,oracle,half_width,ratio,holds
with reals printed to 17 significant digits, so repeated runs with the same
flags are byte-identical and the rows feed plotting tools directly.  Exit
status: 0 all rows certified, 1 if any row has holds = false (as every row
with ratio > 1 has), 2 with one "error:" line on usage errors, inputs outside
a routine's domain or float range (an OverflowError included) or an
unwritable --output.  Bound rows carry lhs/rhs/margin in
value/oracle/half_width; nan fills the columns a subject has no use for.
"""

import argparse
import inspect
import math
import sys

from .oracle import Order, bessel_j_ref
from . import bounds as _bounds
from . import scan as _scan
from . import zeros as _zeros

CSV_HEADER = "subject,nu,x,value,oracle,half_width,ratio,holds"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(float(v), ".17g")


def _render(rows: list[_scan.ScanRow], fmt: str) -> str:
    _, *columns = CSV_HEADER.split(",")  # the subject goes out as is, the rest through _fmt
    lines = [CSV_HEADER] if fmt == "csv" else []
    for r in rows:
        cells = [_fmt(getattr(r, c)) for c in columns]
        lines.append(",".join([r.subject, *cells]) if fmt == "csv" else
                     f"{r.subject}: " + " ".join(f"{c}={v}" for c, v in zip(columns, cells)))
    return "\n".join(lines) + "\n"


def _cmd_eval(ns) -> list[_scan.ScanRow]:
    r = bessel_j_ref(Order(ns.nu), ns.x)
    return [_scan.ScanRow("oracle", ns.nu, ns.x, r.value, r.value,
                          r.abs_err_estimate, 0.0, True)]


def _cmd_approx(ns) -> list[_scan.ScanRow]:
    return [_scan.approx_row(ns.method, Order(ns.nu), ns.x, ns.l1, ns.l2)]


def _cmd_bounds(ns) -> list[_scan.ScanRow]:
    coords, _ = entry = _scan._BOUNDS[ns.name]
    for flag in coords:
        if getattr(ns, flag) is None:
            raise ValueError(f"bounds --name {ns.name} requires --{flag}")
    return _scan._rows_at(entry, {c: Order(ns.nu) if c == "nu" else getattr(ns, c) for c in coords})


def _cmd_zeros(ns) -> list[_scan.ScanRow]:
    if ns.family == "airy":
        est = _zeros.airy_zero_estimate(ns.s, ns.mode)
        refined = _zeros.refine_airy_zero(ns.s)
        subject = f"zero_airy_{ns.mode}"
        nu = math.nan
    else:
        if ns.nu is None:
            raise ValueError("zeros --family bessel requires --nu")
        est = _zeros.bessel_first_zeros_estimate(Order(ns.nu), ns.s)
        refined = _zeros.refine_bessel_zero(Order(ns.nu), ns.s)
        subject = "zero_bessel"
        nu = ns.nu
    off = refined - est.center
    ratio = off / est.half_width if est.one_sided else abs(off) / est.half_width
    holds = (0 <= ratio <= 1) if est.one_sided else ratio <= 1
    return [_scan.ScanRow(subject, nu, float(ns.s), est.center, refined,
                          est.half_width, ratio, holds)]


def _parse_nu_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--nu-list must be comma-separated reals, got {text!r}")


def _cmd_scan(ns) -> list[_scan.ScanRow]:
    grid = _scan.GridSpec(_parse_nu_list(ns.nu_list), (ns.x_lo, ns.x_hi),
                          ns.points, ns.spacing)
    return _scan.scan_rows(ns.method, grid, ns.l1, ns.l2)[0]


def _cmd_sup(ns) -> list[_scan.ScanRow]:
    order = Order(ns.nu)
    s = _scan.olenko_sup(order, ns.x_max, ns.coarse_points)
    # value/oracle = sup/mu, so the ratio column carries sup/mu vs the
    # sandwich cap 1.26; holds is the (0.35, 1.26) window, with the
    # certified upper bound on the sup read against the cap
    holds = 0.35 < s.normalized and s.upper / order.mu < 1.26
    return [_scan.ScanRow("olenko_sup", s.nu, s.argmax_x, s.sup_value,
                          order.mu, 0.0, s.normalized / 1.26, holds)]


def _default(f, param: str):
    # the library's own default, read through a tracer's __wrapped__
    return inspect.signature(f).parameters[param].default


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write rows to this file instead of stdout")
    common.add_argument("--format", choices=("csv", "plain"), default="csv")
    terms = argparse.ArgumentParser(add_help=False)  # olver's term counts, as in the library
    terms.add_argument("--l1", type=int, default=_scan._OLVER_TERMS)
    terms.add_argument("--l2", type=int, default=_scan._OLVER_TERMS)
    p = argparse.ArgumentParser(
        prog="besselcert",
        description="Certified Bessel/Airy approximations and bound checks")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("eval", parents=[common],
                       help="reference value of J_nu(x) with error estimate")
    q.add_argument("--nu", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.set_defaults(run=_cmd_eval)

    q = sub.add_parser("approx", parents=[common, terms],
                       help="one approximation vs the oracle at a point")
    q.add_argument("--nu", type=float, required=True)
    q.add_argument("--x", type=float, required=True,
                   help="evaluation point (the variable z for --method transition)")
    q.add_argument("--method", choices=tuple(_scan._APPROXIMATIONS), default="best")
    q.set_defaults(run=_cmd_approx)

    q = sub.add_parser("bounds", parents=[common],
                       help="one named inequality at a point")
    # a sonin_* check compares consecutive points, so it has no one-point form
    q.add_argument("--name", required=True,
                   choices=tuple(name for name in _scan._BOUNDS if name not in _scan._SONIN))
    q.add_argument("--nu", type=float)
    q.add_argument("--x", type=float)
    q.add_argument("--x2", type=float, help="second abscissa (wronskian_kernel)")
    q.add_argument("--t", type=float, help="scaled argument in (0, 1] (monotonic)")
    q.add_argument("--x-hi", type=float, default=_default(_bounds.airy_envelope_maxima, "x_hi"),
                   help="scan limit (airy_envelope_maxima)")
    q.set_defaults(run=_cmd_bounds)

    q = sub.add_parser("zeros", parents=[common],
                       help="zero estimate vs its refined value")
    q.add_argument("--family", choices=("airy", "bessel"), required=True)
    q.add_argument("--s", type=int, required=True, help="zero index, 1-based")
    q.add_argument("--nu", type=float)
    q.add_argument("--mode", choices=tuple(_zeros._ZERO_MODES),
                   default=_default(_zeros.airy_zero_estimate, "mode"))
    q.set_defaults(run=_cmd_zeros)

    q = sub.add_parser("scan", parents=[common, terms],
                       help="grid sweep of a method or bound, one row per check")
    q.add_argument("--method", required=True,
                   choices=(*_scan._APPROXIMATIONS, *_scan._SCAN_BOUNDS))
    q.add_argument("--nu-list", required=True, help="comma-separated orders")
    q.add_argument("--x-lo", type=float, required=True)
    q.add_argument("--x-hi", type=float, required=True)
    q.add_argument("--points", type=int, required=True)
    q.add_argument("--spacing", choices=tuple(_scan._SPACINGS), default=_scan.GridSpec.spacing)
    q.set_defaults(run=_cmd_scan)

    q = sub.add_parser("sup", parents=[common],
                       help="sup of x^(3/2)|J_nu - leading oscillation| on (0, x_max]; "
                            "holds when sup/mu > 0.35 and its certified upper bound/mu < 1.26")
    q.add_argument("--nu", type=float, required=True)
    q.add_argument("--x-max", type=float, default=_default(_scan.olenko_sup, "x_max"))
    q.add_argument("--coarse-points", type=int,
                   default=_default(_scan.olenko_sup, "coarse_points"))
    q.set_defaults(run=_cmd_sup)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        rows = ns.run(ns)
    # DomainError is a ValueError and PrecisionError a RuntimeError
    except (ValueError, OverflowError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = _render(rows, ns.format)
    if ns.output:
        try:
            with open(ns.output, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.holds for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
