"""Print a fixed set of besselcert outputs as float.hex lines, then their count and sha256.

A change that claims "same outputs" runs this before and after and compares
the last line.  Each line is one call: its arguments, then every field of the
result (floats as float.hex, so a one-ulp move shows), or the exception's type
and message where the call raises.  The points are seeded draws and edge
values inside each entry point's domain: the oracle evaluators, J' below
nu = 1/2, Gamma, every approximation family, best_approx at its ranking edges
and at the ends of the doubles, the package's __all__, the point bounds,
the Sonin functions, Airy zeros 1-50, Bessel zeros (search_calls.py's
battery and the last ones below x = 200), the leftmost maxima (also at
nu = 2.22, 2.24, ..., 2.50 and at seeded orders in [5/3, 4]), refine_root
on the multiple roots of t^3 and t^9, the Airy envelope maxima up to
x = 14 and up to x = 60, every zero-bracket mode with its gap and
conjecture checks, every scan subject's rows and
report on small grids, approx_row for every method, olenko_sup (every
field, upper among them, at criterion 8's window, at search_calls.py's
orders, at orders in [10, 30] to x = 200, at orders in [-0.45, 1), in
windows wholly below sqrt(mu) and at a tiny x_max), and the CLI's exit
code, stdout and stderr
for each bounds --name choice at an admitted and a refused point and for
every other subcommand: eval, approx, zeros, scan (classic and each Sonin
subject, across a repeated order, an order with no admitted point and the
Airy window's end at x = 120) and sup, and for three argvs that run on the
CLI's defaults: bounds airy_envelope_maxima, sup and approx olver.

    python3 tools/same_outputs.py > dump.txt && tail -n 1 dump.txt

With --expect SHA_PREFIX it also compares the sha256 with the given prefix
and, where they differ, prints both to stderr and exits 1, so a script can
gate on it.  An empty or non-hex prefix is refused with exit 2, since the
empty one would match every sha:

    python3 tools/same_outputs.py --expect cea6236782a77649 > dump.txt
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path
import random
import string
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import besselcert as bc  # noqa: E402
from besselcert import Order, cli, scan  # noqa: E402
from besselcert.approx import _AIRY_MODES, _TRANSITION_Z_CAP  # noqa: E402
from besselcert.bounds import _SONIN  # noqa: E402
from besselcert.oracle import _j_prime_any  # noqa: E402
from besselcert.zeros import _ZERO_MODES  # noqa: E402
from search_calls import BESSEL_BATTERY, OLENKO_ORDERS  # noqa: E402

# bounds --name choice -> (flags at an admitted point, flags at a refused point)
BOUNDS_ARGV = {
    "watson": ("--nu 2.5 --x 10", "--nu 70 --x 1"),
    "envelope": ("--nu 2.5 --x 10", "--nu 2.5 --x 300"),
    "derivative": ("--nu 2.5 --x 10", "--nu 10 --x 10.5"),
    "monotonic": ("--nu 2.5 --t 0.5", "--nu 2.5 --t 1.5"),
    "log_derivative": ("--nu 2.5 --x 1", "--nu 1 --x 2"),
    "airy_envelope": ("--x 14", "--x 130"),
    "wronskian_kernel": ("--nu 0.25 --x 1 --x2 30", "--nu 0.25 --x 1 --x2 300"),
    "near_first_zero": ("--nu 10", "--nu 0.4"),
    "leftmost_max": ("--nu 10", "--nu 1"),
    "lemma_integral": ("--x 3", "--x 1e7"),
    "airy_envelope_maxima": ("--x-hi 14", "--x-hi 130"),
}

# the other subcommands, one argv each; the last of zeros lacks a flag it
# requires and sup --nu 0.5 refuses nu = 1/2; the Sonin scans cross a repeated
# order (szego), an order with no admitted point between two admitted ones
# (envelope) and the end of the Airy window at x = 120; the last three run on
# the defaults the CLI takes from the library; sup --nu 2 reads the series that
# the call list's olenko_sup(Order(2.0), 150.0, 3000) filled
CLI_ARGV = (
    "eval --nu 2.5 --x 10",
    "approx --nu 2.5 --x 10",
    "approx --nu 10 --x 1.5 --method transition --format plain",
    "zeros --family airy --s 3",
    "zeros --family airy --s 3 --mode simplified",
    "zeros --family bessel --nu 2.5 --s 3",
    "zeros --family bessel --s 3",
    "scan --method classic --nu-list 0.5,2.5,10 --x-lo 1 --x-hi 100 --points 5",
    "scan --method sonin_szego --nu-list 0.25,0.25,1 --x-lo 0.5 --x-hi 50 --points 5",
    "scan --method sonin_envelope --nu-list 1,10,2 --x-lo 1 --x-hi 9.5 --points 5",
    "scan --method sonin_airy --nu-list 0 --x-lo 100 --x-hi 130 --points 7",
    "sup --nu 2.5 --x-max 60 --coarse-points 300",
    "sup --nu 0.5",
    "bounds --name airy_envelope_maxima",
    "sup --nu 2",
    "approx --method olver --nu 2.5 --x 10",
)


def _fields(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return " ".join(_fields(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return " | ".join(map(_fields, value))
    return repr(value)


def _line(name: str, f, *args) -> str:
    try:
        out = _fields(f(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:  # a refusal is an output too
        out = f"{type(exc).__name__}: {exc}"
    return f"{name}{args!r}: {out}"


def _refine_power(n: int, bracket, tol: float) -> float:
    """refine_root on t**n, whose root at 0 has multiplicity n."""
    return bc.refine_root(lambda t: t ** n, bracket, tol)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _ulps_around(x: float, n: int) -> list[float]:
    """x and its n floating-point neighbours on each side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _best_points():
    """best_approx's ranking edges: every width 0 at |nu| = 1/2, the
    sharp_high threshold max(mu, sqrt(mu)), olver's last order 2.5, x = nu
    (z = 0) and z at the transition form's cap; then the ends of the
    doubles and seeded points."""
    points = [(nu, x) for nu in (-0.5, 0.5) for x in (1e-3, 0.3, 0.5, 1.0, 7.0, 100.0, 199.0)]
    for nu in (0.75, 1.0, 1.2, 2.5, 5.0, 20.0, 45.0):
        mu = Order(nu).mu
        points += [(nu, x) for x in _ulps_around(max(mu, math.sqrt(mu)), 3)]
    points += [(nu, x) for nu in _ulps_around(2.5, 1) for x in (0.05, 1.0, 2.5, 3.0, 10.0, 150.0)]
    points += [(nu, nu) for nu in (0.5, 1.0, 2.5, 20.0, 60.0)]
    for nu in (1.0, 40.0, 1e6):
        points += [(nu, x) for x in _ulps_around(nu + nu ** (1 / 3) * _TRANSITION_Z_CAP, 3)]
    points += [(nu, x) for nu in (-1.0, 1e20, 1e154, 1e300, math.inf, math.nan)
               for x in (0.0, 5e-324, 3.14e-206, 1e300, 1.7e308, math.inf, math.nan)]
    rng = random.Random(25)
    points += [(round(rng.uniform(-0.5, 100.0), 3), 10 ** rng.uniform(-3, 4)) for _ in range(200)]
    return [(Order(nu), x) for nu, x in points]


def _calls():
    rng = random.Random(20111)
    x_edges = (5e-324, 1e-300, 1e-100, 1e-10, 0.5, 10.0, 150.0, 200.0)
    nus = [-0.5, -1 / 3, 0.0, 0.25, 0.5, 1 / 3, 1.0, 2.5, 10.0, 45.1, 60.0]
    nus += [round(rng.uniform(-0.5, 60.0), 3) for _ in range(14)]
    xs = list(x_edges) + [round(rng.uniform(0.01, 200.0), 4) for _ in range(16)]
    for nu in nus:
        order = Order(nu)
        for x in xs:
            yield "bessel_j_ref", bc.bessel_j_ref, order, x
            yield "_j_prime_any", _j_prime_any, order, x
            if nu >= 0.5:
                yield "bessel_j_prime_ref", bc.bessel_j_prime_ref, order, x
    airy_xs = [0.0, 1e-300, 1e-100, 1e-6, 1e-3, 0.5, 2.338, 44.8, 100.0, 120.0]
    airy_xs += [round(rng.uniform(0.0, 120.0), 4) for _ in range(40)]
    for x in airy_xs:
        yield "airy_ai_neg_ref", bc.airy_ai_neg_ref, x
        yield "airy_ai_neg_prime_ref", bc.airy_ai_neg_prime_ref, x
    gamma_zs = [5.6e-309, 1e-300, 1e-10, 0.5, 1.0, 2 / 3, 63.9]
    for z in gamma_zs + [rng.uniform(0.0, 64.0) for _ in range(10)]:
        yield "gamma", bc.gamma, z

    # approximations, at seeded points and near the ends of the doubles
    approx_xs = [1e-300, 1e-10, 0.3, 1.0, 5.0, 20.0, 100.0, 1e10, 1e100]
    approx_xs += [round(rng.uniform(0.1, 200.0), 3) for _ in range(12)]
    for nu in nus[:12]:
        order = Order(nu)
        for x in approx_xs:
            yield "classic_oscillatory", bc.classic_oscillatory, order, x
            yield "olver_expansion", bc.olver_expansion, order, x, 3, 3
            yield "phase_B", bc.phase_B, order, x
            yield "sharper_oscillatory", bc.sharper_oscillatory, order, x
            yield "simplified_oscillatory", bc.simplified_oscillatory, order, x
            yield "best_approx", bc.best_approx, order, x
        for z in (0.0, 0.5, 1.0, 3.0, 10.0, 95.0):
            yield "transition", bc.transition, order, z
    for x in approx_xs + [2.338, 44.8]:
        for mode in _AIRY_MODES:
            yield "airy_approx", bc.airy_approx, x, mode

    # best_approx where its candidate set or ranking changes, then at the ends
    # of the doubles and at seeded points
    for order, x in _best_points():
        yield "best_approx", bc.best_approx, order, x
    yield "list", list, bc.__all__

    # point bounds and Sonin functions
    bound_nus = [0.0, 0.25, 0.5, 1.0, 2.5, 10.0, 30.0, 62.5] + [
        round(rng.uniform(0.0, 60.0), 3) for _ in range(6)]
    bound_xs = [1e-10, 0.5, 1.0, 5.0, 30.0, 99.5, 150.0, 200.0]
    for nu in bound_nus:
        order = Order(nu)
        for x in bound_xs:
            yield "bound_watson", bc.bound_watson, order, x
            yield "bound_envelope", bc.bound_envelope, order, x
            yield "bound_derivative", bc.bound_derivative, order, x
            for variant in _SONIN:
                yield "sonin_eval", bc.sonin_eval, variant, order, x
        for frac in (1e-3, 0.25, 0.5, 0.99, 1.0):
            yield "bound_log_derivative", bc.bound_log_derivative, order, frac * (nu + 0.5)
            yield "bound_monotonic", bc.bound_monotonic, order, frac
        yield "bound_near_first_zero", bc.bound_near_first_zero, order
    for nu in (0.0, 0.1, 0.25, 0.5):
        for x1, x2 in ((0.5, 1.0), (1.0, 30.0), (100.0, 99.0), (200.0, 0.01)):
            yield "bound_wronskian_kernel", bc.bound_wronskian_kernel, nu, x1, x2
    for x in (0.0, 1e-3, 1.0, 14.0, 60.0, 120.0):
        yield "bound_airy_envelope", bc.bound_airy_envelope, x
    for x in (1e-300, 1e-3, 1.0, 3.0, 100.0, 1e4, 1e6, 4e6):
        yield "lemma_integral_check", bc.lemma_integral_check, x

    # searches
    for s in range(1, 51):
        yield "refine_airy_zero", bc.refine_airy_zero, s
    # Bessel zeros: a few fixed, search_calls' battery, the last zeros below
    # the x cap (some in the cell that ends at x = 200) and one past it
    bessel_zeros = [(0.0, 1), (0.0, 20), (0.5, 3), (2.5, 3), (10.0, 1), (30.5, 5)]
    bessel_zeros += BESSEL_BATTERY
    bessel_zeros += [(2.5, 62), (2.5, 63), (2.5, 64), (1.0, 63), (1.0, 64), (0.25, 63),
                     (0.25, 64), (1.78125, 63), (3.78125, 62), (0.0, 63), (0.0, 64), (10.0, 64)]
    for nu, s in bessel_zeros:
        yield "refine_bessel_zero", bc.refine_bessel_zero, Order(nu), s
    # the leftmost maxima at fixed orders, across nu in [2.22, 2.50] (where
    # refine_root's secant is slowest to reach the final bisection cell) and
    # at seeded orders in [5/3, 4]
    leftmost_rng = random.Random(36)
    leftmost_nus = [5 / 3, 2.5, 10.0, 50.0] + [round(2.22 + 0.02 * k, 2) for k in range(15)]
    leftmost_nus += [leftmost_rng.uniform(5 / 3, 4.0) for _ in range(10)]
    for nu in leftmost_nus:
        yield "leftmost_max_check", bc.leftmost_max_check, Order(nu)
    # refine_root on roots of multiplicity 3 and 9, where the secant converges linearly
    for n in (3, 9):
        yield "_refine_power", _refine_power, n, (-1.0, 2.0), 1e-12
    for x_hi in (14.0, 60.0):
        yield "airy_envelope_maxima", bc.airy_envelope_maxima, x_hi
    # olenko_sup at criterion 8's window, at search_calls' six seeded orders,
    # at seeded orders in [10, 30] to x = 200, at seeded orders in [-0.45, 1),
    # whose first crest past x = 0 is near the sup, and in two windows wholly
    # below sqrt(mu)
    olenko_rng = random.Random(34)
    olenko_cases = [(nu, 60.0, 300) for nu in (2.5, 10.0, *OLENKO_ORDERS)]
    olenko_cases += [(nu, 150.0, 3000) for nu in (1.0, 2.0, 5.0, 10.0)]
    olenko_cases += [(olenko_rng.uniform(10.0, 30.0), 200.0, 2000) for _ in range(4)]
    low_rng = random.Random(35)
    for nu in [low_rng.uniform(-0.45, 1.0) for _ in range(4)]:
        olenko_cases += [(nu, 60.0, 300), (nu, 150.0, 3000)]
    olenko_cases += [(10.0, 6.0, 300), (40.0, 30.0, 600)]
    for nu, x_max, coarse_points in olenko_cases:
        yield "olenko_sup", bc.olenko_sup, Order(nu), x_max, coarse_points
    # a first grid point where sqrt(2/(pi x)) overflows, or underflows to 0
    yield "olenko_sup", bc.olenko_sup, Order(2.0), 1e-310, 3000
    yield "olenko_sup", bc.olenko_sup, Order(2.0), 5e-324, 10

    # closed-form zero brackets and their checks
    for s in [*range(1, 51), 10 ** 3, 10 ** 6, 10 ** 12]:
        for mode in _ZERO_MODES:
            yield "airy_zero_estimate", bc.airy_zero_estimate, s, mode
        yield "center_gap_check", bc.center_gap_check, s
        yield "conjecture_check", bc.conjecture_check, s
    for nu in (0.5, 2.5, 10.0, 45.1):
        for s in (1, 2, 5, 50):
            yield "bessel_first_zeros_estimate", bc.bessel_first_zeros_estimate, Order(nu), s

    # scan subjects on one log grid, transition and monotonic also on a linear one
    log_grid = bc.GridSpec((-0.25, 0.0, 0.25, 0.5, 2.5, 10.0), (0.05, 150.0), 6)
    linear_grid = bc.GridSpec((0.5, 2.5, 10.0), (0.0, 1.0), 5, "linear")
    for name in (*scan._APPROXIMATIONS, *scan._SCAN_BOUNDS):
        verify = bc.verify_approx_grid if name in scan._APPROXIMATIONS else bc.verify_bounds_grid
        for grid in (log_grid, linear_grid) if name in ("transition", "monotonic") else (log_grid,):
            yield "scan_rows", bc.scan_rows, name, grid
            yield verify.__name__, verify, name, grid
    for name in scan._APPROXIMATIONS:
        for nu in (0.25, 2.5):
            yield "approx_row", scan.approx_row, name, Order(nu), 10.0

    # the CLI's bounds command; the last argv lacks a flag its bound requires
    for name, points in BOUNDS_ARGV.items():
        for flags in points:
            yield "cli", _cli, ["bounds", "--name", name, *flags.split()]
    yield "cli", _cli, ["bounds", "--name", "watson", "--nu", "2.5"]
    for argv in CLI_ARGV:
        yield "cli", _cli, argv.split()


def _sha_prefix(text: str) -> str:
    if not text or not set(text) <= set(string.hexdigits):
        raise argparse.ArgumentTypeError(f"not a hex prefix: {text!r}")
    return text.lower()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="float.hex dump of besselcert outputs")
    parser.add_argument("--expect", metavar="SHA_PREFIX", type=_sha_prefix,
                        help="exit 1 unless the dump's sha256 starts with this prefix")
    expect = parser.parse_args(argv).expect
    digest, count = hashlib.sha256(), 0
    for name, f, *args in _calls():
        line = _line(name, f, *args)
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"lines {count} sha256 {digest.hexdigest()}")
    if expect is not None and not digest.hexdigest().startswith(expect):
        print(f"sha256 mismatch: expected {expect}..., got {digest.hexdigest()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
