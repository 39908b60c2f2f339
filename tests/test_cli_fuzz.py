"""A seeded fuzz of the command line: every subcommand gets special values as
--flag=value (the = form lets argparse take -inf), and each run must end in
rows or in one of the refusals the CLI documents, never in a bare exception."""

import random
import re

import pytest

import besselcert as bc
from besselcert import DomainError, PrecisionError, approx, bounds, oracle, scan, zeros
from besselcert.cli import _build_parser, _render, main

REALS = ("0", "-0", "1", "-1", "0.5", "-0.5", "2.5", "60", "199.5", "200", "200.5", "120.01",
         "1e-300", "5e-324", "1e154", "1.34e154", "1e308", "-1e308", "inf", "-inf", "nan")
INTS = ("-1", "0", "1", "2", "10", "50", "51", "64", "65", "151")
# flags whose values set a run's size are always given, and small, so that no
# run is long by design: grid points, the sup's coarse grid and window, the
# crest search's range
SIZES = {"points": ("-1", "0", "1", "2", "3"),
         "coarse_points": ("9", "10", "11"),
         "x_max": ("-1", "0", "5e-324", "1e-300", "1", "12.01", "120.01", "200.5", "inf", "nan"),
         "x_hi": ("-1", "0", "nan", "inf", "1", "5", "130")}
NU_LISTS = ("0", "2.5", "-0.5,60", "1e154,1.34e154", "nan,inf", "-inf", "", "a,1")
# the CLI's own refusals of its flags, as ValueError; every other ValueError
# must be a DomainError
FLAG_ERROR = re.compile(r"^(bounds --name \w+|zeros --family \w+) requires --\w+$"
                        r"|^--nu-list must be comma-separated reals, got ")
# what an "error: <name>: ..." line may name: a public name, an entry of a
# domain table (GridSpec, scan, sharp_low, ...) or a subcommand, for a run
# with no rows
COMMANDS = next(a for a in _build_parser()._actions if a.dest == "cmd").choices
NAMES = {*bc.__all__, *COMMANDS,
         *(name for module in (approx, bounds, oracle, scan, zeros) for name in module._DOMAINS)}


def _values(action) -> tuple:
    if action.choices:
        return tuple(action.choices)
    if action.dest in SIZES:
        return SIZES[action.dest]
    return {float: REALS, int: INTS}.get(action.type, NU_LISTS)


def _argvs(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        command = rng.choice(sorted(COMMANDS))
        argv = [command]
        for action in COMMANDS[command]._actions:
            if action.option_strings and action.dest not in ("help", "output") and (
                    action.required or action.dest in SIZES or rng.random() < 0.5):
                argv.append(f"{action.option_strings[0]}={rng.choice(_values(action))}")
        argvs.append(argv)
    return argvs


# seed 25 draws sup --nu=1.34e154 --x-max=120.01 --coarse-points=10, whose
# grid once read R past x_max and overflowed there; seed 3 draws
# zeros --family=bessel --s=50 --nu=199.5, whose refusal once named no function
@pytest.mark.parametrize("seed", (1, 2, 3, 25))
def test_every_argv_returns_rows_or_refuses(seed, capsys):
    # the run returns rows or raises DomainError, PrecisionError or a flag's
    # ValueError, and main agrees: exit 0 or 1 with the same rows, else exit
    # 2 with one "error:" line that names what refused; a run with no rows
    # (airy_envelope_maxima below its first hump, which seed 2 draws) exits 2 too
    parser = _build_parser()
    for argv in _argvs(seed, 200):
        ns = parser.parse_args(argv)
        try:
            rows = ns.run(ns)
        except (DomainError, PrecisionError):
            rows = None
        except ValueError as e:
            assert FLAG_ERROR.match(str(e)), (argv, e)
            rows = None
        code = main(argv)
        out, err = capsys.readouterr()
        if not rows:
            assert (code, out) == (2, "") and err.startswith("error: "), (argv, code, err)
            assert err.count("\n") == 1, (argv, err)
            message = err.removeprefix("error: ")
            assert FLAG_ERROR.match(message) or message.split(": ")[0] in NAMES, (argv, err)
        else:
            assert code == (0 if all(r.holds for r in rows) else 1), (argv, code)
            assert (err, out) == ("", _render(rows, ns.format)), argv
