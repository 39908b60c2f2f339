"""Print, for one benchmark workload, which exit answered each miss of the oracle's series cache.

One in-process pass runs perfbench's operations(WORKLOAD, SEED, run_seconds),
run_seconds from BENCHMARK.json, from empty caches; each CLI command runs
through cli.main after its own cache clear, as it runs in a fresh process in
the benchmark.  Every miss of _j_series_fixed is counted once, by its exit:
Hankel's enclosure passing Ziv's test ("ziv"), the enclosure's midpoint
("midpoint") or the series ("series"); by its caller, the Airy paths
("airy") or any other ("public"); and by the x it evaluates J at (for the
Airy paths zeta): <= 100, (100, 200] and > 200.  The counts are exact and
repeat from run to run.  perfbench is read, never changed.

    python3 tools/path_share.py point_queries 151
"""

from collections import Counter
import contextlib
import io
import json
from pathlib import Path
import sys

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import besselcert as bc  # noqa: E402
from besselcert import cli, oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CALLERS = ("public", "airy")
BANDS = ("<= 100", "(100, 200]", "> 200")
EXITS = ("ziv", "midpoint", "series")


def _band(x: float) -> str:
    return BANDS[(x > 100) + (x > 200)]


def _run_cli(op) -> None:
    oracle._j_series_fixed.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(op[1]))


def path_counts(ops) -> tuple[Counter, int]:
    """(Counter of (caller, band, exit) over the series misses, operations that raised)
    from running ops in order, the series cache cleared first.

    A miss runs _j_series_fixed's body once: past x = 100 it calls _j_hankel,
    and where that declines, or below, the series calls _digits_for.  Those
    two and _airy_js are wrapped for the pass, then restored."""
    counts, failed, airy = Counter(), 0, False
    hankel, digits_for, airy_js = oracle._j_hankel, oracle._digits_for, oracle._airy_js

    def caller() -> str:
        return "airy" if airy else "public"

    def counting_hankel(nu, x):
        enclosure = hankel(nu, x)
        if enclosure:
            v, radius = enclosure
            ziv = oracle._ziv(v - radius, v + radius, 1 << oracle._FB)
            counts[caller(), _band(x), "ziv" if ziv else "midpoint"] += 1
        return enclosure

    def counting_digits_for(x):
        counts[caller(), _band(x), "series"] += 1
        return digits_for(x)

    def counting_airy_js(x, orders):
        nonlocal airy
        airy = True
        try:
            return airy_js(x, orders)
        finally:
            airy = False

    executors = {**worker._executors(bc), "cli": _run_cli}
    oracle._j_series_fixed.cache_clear()
    oracle._j_hankel, oracle._digits_for, oracle._airy_js = (
        counting_hankel, counting_digits_for, counting_airy_js)
    try:
        for op in ops:
            try:
                executors[op[0]](op)
            except Exception:  # a refused operation; the benchmark counts it as failed
                failed += 1
    finally:
        oracle._j_hankel, oracle._digits_for, oracle._airy_js = hankel, digits_for, airy_js
    return counts, failed


def main(argv: list[str]) -> int:
    workload, seed = argv
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ops = workloads.operations(workload, int(seed), seconds)
    counts, failed = path_counts(ops)
    print(f"# {workload} seed {seed}: {len(ops)} operations ({failed} raised), "
          f"{sum(counts.values())} series misses")
    print(f"{'caller':8}{'x':>12}" + "".join(f"{name:>10}" for name in EXITS))
    for who in CALLERS:
        for band in BANDS:
            print(f"{who:8}{band:>12}" + "".join(f"{counts[who, band, name]:>10}" for name in EXITS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
