"""Judge every operation of a run against mpmath, after the timed region.

An operation fails when it
  - raised (a PrecisionError refusal included) or the CLI exited non-zero;
  - returned a value whose mpmath truth lies outside value +/- its own
    abs_err_estimate (oracle) or half_width (approximation);
  - returned a bound report with holds = false, or one whose left-hand side
    disagrees with mpmath beyond the oracle's promised accuracy;
  - is a grid sweep with violations;
  - refined a zero more than 1e-9 away from mpmath's airyaizero/besseljzero;
  - gave a different result, exit code or output bytes when the identical
    operation ran again in another fresh process.

Every failure message starts with its category, then a colon.

Failures at orders above KNOWN_DEFECT_NU are the oracle's documented
large-order defect (ROADMAP.md, open item 1): they count as failed and the
run stays correct.  A failure at any other operation makes the run incorrect.
"""

import csv
import io

import mpmath

# The package's own error-contract test stops at nu = 30; above it J_nu can
# come back wrong, refused or with too small an error estimate (from order
# ~33 on, growing with the order), which ROADMAP.md records as open item 1.
KNOWN_DEFECT_NU = 30.0
ZERO_TOL = 1e-9
# bessel_j_ref's promise: relative 1e-12 where |J| > 1e-10, absolute 1e-22 elsewhere
ORACLE_REL = 1e-12
ORACLE_ABS = 1e-22
_ULP = 2.0 ** -52
DPS = 30


def _j(nu, x, deriv=0):
    return mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x), deriv)


def _airy_zero(s: int):
    # mpmath's airyaizero(s) is the zero a_s < 0 of Ai; Ai(-x) vanishes at -a_s
    return -mpmath.airyaizero(s)


def _outside(value: float, width: float, truth) -> bool:
    return abs(mpmath.mpf(value) - truth) > mpmath.mpf(width)


def _show(v) -> str:
    return mpmath.nstr(v, 17)


def _check_report(kind: str, nu: float, x: float, name: str, lhs: float,
                  holds: bool) -> str | None:
    """A point bound's verdict and its left-hand side, recomputed from mpmath's J."""
    if not holds:
        return f"report false: {name} at nu={nu!r} x={x!r}"
    j = _j(nu, x)
    scale = mpmath.mpf(1)
    if kind == "envelope":
        if abs(nu) <= 0.5:
            scale = mpmath.sqrt(mpmath.pi * x / 2)
        else:
            mu = mpmath.mpf(abs(nu * nu - 0.25))  # the program's own double mu
            scale = abs(mpmath.mpf(x) ** 2 - mu) ** 0.25 * mpmath.sqrt(mpmath.pi / 2)
        truth = scale * abs(j)
    else:
        truth = j
    tol = float(scale) * (ORACLE_REL * abs(float(j)) + ORACLE_ABS) + 4 * _ULP * abs(lhs)
    if abs(mpmath.mpf(lhs) - truth) > tol:
        return f"report lhs off: {name} lhs {lhs!r}, mpmath {_show(truth)}"
    return None


def _lemma_truth(x: float):
    """Both lemma integrals folded onto one period through the trigamma function."""
    pi = mpmath.pi
    f1 = lambda u: mpmath.sin(u) ** 2 * mpmath.psi(1, (u + x) / pi)
    f2 = lambda u: mpmath.sin(u) * mpmath.psi(1, (u + x) / pi)
    return mpmath.quad(f1, [0, pi]) / pi ** 2, mpmath.quad(f2, [0, pi]) / pi ** 2


def _leftmost_brackets(nu: float, xi: float, delta: float) -> bool:
    """Does the true derivative of (mu - x^2)^(1/4) J_nu change sign from + to -
    between xi - delta and xi + delta, i.e. is the true maximum that close?"""
    mu = mpmath.mpf(abs(nu * nu - 0.25))

    def hp(x):
        x = mpmath.mpf(x)
        s = mu - x * x
        return -x / 2 * s ** -0.75 * _j(nu, x) + s ** 0.25 * _j(nu, x, 1)
    return hp(xi - delta) > 0 > hp(xi + delta)


def _oscillation_gap(nu: float, x: float):
    omega = mpmath.pi * nu / 2 + mpmath.pi / 4
    main = mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.cos(x - omega)
    return mpmath.mpf(x) ** 1.5 * abs(_j(nu, x) - main)


def _check_inprocess(op: list, result) -> str | None:
    kind = op[0]
    if kind in ("j", "jp", "ai"):
        value, err = result
        if kind == "j":
            truth = _j(op[1], op[2])
        elif kind == "jp":
            truth = _j(op[1], op[2], 1)
        else:
            truth = mpmath.airyai(-mpmath.mpf(op[1]))
        if _outside(value, err, truth):
            return f"outside estimate: {value!r} +/- {err:.3g}, mpmath {_show(truth)}"
        return None
    if kind == "best":
        value, hw, method = result
        truth = _j(op[1], op[2])
        if _outside(value, hw, truth):
            return f"outside half_width: {method} {value!r} +/- {hw:.3g}, mpmath {_show(truth)}"
        return None
    if kind in ("envelope", "watson"):
        name, lhs, rhs, margin, holds = result
        return _check_report(kind, op[1], op[2], name, lhs, holds)
    if kind == "lemma":
        for (name, lhs, rhs, margin, holds), truth in zip(result, _lemma_truth(op[1])):
            if not holds:
                return f"report false: {name} at x={op[1]!r}"
            # lhs is the integral up to T plus an upper bound (< 1e-6) on the tail
            if not -1e-9 <= lhs - float(truth) <= 2e-6:
                return f"report lhs off: {name} lhs {lhs!r}, mpmath {_show(truth)}"
        return None
    if kind == "grid":
        bad = [f"{name} {violations} of {total}, max_ratio {max_ratio!r}"
               for name, total, violations, max_ratio, skipped in result
               if violations or total < 1 or max_ratio > 1]
        return f"sweep violations: {'; '.join(bad)}" if bad else None
    if kind in ("airy_zero", "bessel_zero"):
        truth = (_airy_zero(op[1]) if kind == "airy_zero"
                 else mpmath.besseljzero(mpmath.mpf(op[1]), op[2]))
        if abs(result - float(truth)) > ZERO_TOL:
            return f"zero off: {op} gave {result!r}, mpmath {_show(truth)}"
        return None
    if kind == "aem":
        bad = sum(1 for r in result if not r[4])
        return f"report false: {bad} airy envelope crest reports" if bad else None
    if kind == "leftmost":
        name, floor, xi, margin, holds = result
        if not holds:
            return f"report false: leftmost_max at nu={op[1]!r}"
        if not _leftmost_brackets(op[1], xi, 10 * ZERO_TOL):
            return f"zero off: leftmost maximum {xi!r} is not within 1e-8 of mpmath's"
        return None
    if kind == "olenko":
        sup_value, argmax_x, normalized = result
        truth = _oscillation_gap(op[1], argmax_x)
        if abs(sup_value - float(truth)) > 1e-9 * max(1.0, sup_value):
            return f"value off: olenko sup {sup_value!r} at {argmax_x!r}, mpmath {_show(truth)}"
        return None
    return f"unchecked: no check for operation kind {kind!r}"


def _check_cli(argv: list, result) -> str | None:
    rc, stdout, stderr = result
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"cli exit {rc}: {tail[0]}"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        return "cli output: no CSV rows"
    cmd = argv[0]
    flags = dict(zip(argv[1::2], argv[2::2]))
    for row in rows:
        if row["holds"] != "true":
            return f"report false: {row['subject']} row holds={row['holds']}"
        value, oracle, hw = (float(row[k]) for k in ("value", "oracle", "half_width"))
        if cmd in ("eval", "approx"):
            truth = _j(float(flags["--nu"]), float(flags["--x"]))
            if _outside(value, hw, truth):
                return f"outside half_width: {cmd} {value!r} +/- {hw:.3g}, mpmath {_show(truth)}"
        elif cmd == "bounds":
            problem = _check_report(flags["--name"], float(flags["--nu"]),
                                    float(flags["--x"]), row["subject"], value, True)
            if problem:
                return problem
        elif cmd == "zeros":
            truth = _airy_zero(int(flags["--s"]))
            if abs(oracle - float(truth)) > ZERO_TOL:
                return f"zero off: airy s={flags['--s']} gave {oracle!r}, mpmath {_show(truth)}"
        elif cmd == "scan":
            truth = _j(float(row["nu"]), float(row["x"]))
            if abs(mpmath.mpf(oracle) - truth) > ORACLE_REL * abs(float(truth)) + ORACLE_ABS:
                return f"value off: scan oracle {oracle!r}, mpmath {_show(truth)}"
    return None


def max_order(op: list) -> float:
    """Largest Bessel order the operation's oracle calls use."""
    kind = op[0]
    if kind == "jp":
        return op[1] + 1
    if kind in ("j", "best", "envelope", "watson", "bessel_zero", "leftmost", "olenko"):
        return op[1]
    if kind == "grid":
        return max(op[1]) + 1
    if kind == "cli":
        flags = dict(zip(op[1][1::2], op[1][2::2]))
        if "--nu-list" in flags:
            return max(float(v) for v in flags["--nu-list"].split(","))
        return float(flags.get("--nu", 0.0))
    return 0.0


def judge(ops: list, differ: set[int]) -> list[str | None]:
    """Failure reason per operation, None where it passed.

    differ holds the operations whose second execution in a fresh process
    returned something else.
    """
    verdicts = []
    with mpmath.workdps(DPS):
        for i, (op, latency, result, error) in enumerate(ops):
            if i in differ:
                verdicts.append("replays differ: same operation, different result")
            elif error is not None:
                verdicts.append(f"raised {error[0]}: {error[1]}")
            else:
                try:
                    verdicts.append(_check_cli(list(op[1]), result) if op[0] == "cli"
                                    else _check_inprocess(op, result))
                except (ArithmeticError, TypeError, ValueError) as e:
                    verdicts.append(f"check error: {type(e).__name__}: {e}")
    return verdicts


def summarize(ops: list, verdicts: list) -> dict:
    failed = [i for i, v in enumerate(verdicts) if v is not None]
    unexpected = [i for i in failed if max_order(ops[i][0]) <= KNOWN_DEFECT_NU]
    wrong = sum(1 for i in failed if ops[i][0][0] in ("j", "jp", "ai")
                and verdicts[i].startswith("outside estimate"))
    return {"attempted": len(ops), "failed": len(failed), "unexpected": unexpected,
            "oracle_wrong": wrong, "correct": not unexpected}
