"""Print, per search family, the series evaluations and refine_root's calls of f per root.

Each family runs once from empty caches over a fixed seeded list: the
Bessel battery (40 seeded (nu, s), nu in [-1/2, 60], s <= 12), a_1 to a_50,
four leftmost maxima, the crests of airy_envelope_maxima(60) and
olenko_sup(nu, 60, 300) at six seeded orders in [1, 10].  For each it
prints the roots refined, the misses of the oracle's series cache (one
per J_nu(x) summed) and the calls refine_root makes of f per root ("-"
for olenko_sup, which refines no roots).  Then, per olenko_sup order, it
prints the evaluations of R that the search made and the relative width
(upper - sup_value)/sup_value of the enclosure it returned.  The counts
are exact and repeat from run to run, so a change to the search layer can
quote them before and after.

    python3 tools/search_calls.py
"""

from pathlib import Path
import random
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import besselcert as bc  # noqa: E402
# the counting hooks: the series cache, and refine_root where the searches bind it
from besselcert import bounds, oracle, scan, zeros  # noqa: E402

_rng = random.Random(26)
BESSEL_BATTERY = [(_rng.uniform(-0.5, 60.0), _rng.randint(1, 12)) for _ in range(40)]
LEFTMOST_ORDERS = [_rng.uniform(5 / 3, 40.0) for _ in range(8)]
OLENKO_ORDERS = [_rng.uniform(1.0, 10.0) for _ in range(6)]

FAMILIES = {
    "bessel_zero": lambda: [bc.refine_bessel_zero(bc.Order(nu), s) for nu, s in BESSEL_BATTERY],
    "airy_zero": lambda: [bc.refine_airy_zero(s) for s in range(1, 51)],
    "leftmost_max": lambda: [bc.leftmost_max_check(bc.Order(nu)) for nu in LEFTMOST_ORDERS[:4]],
    "airy_crest": lambda: bc.airy_envelope_maxima(60.0),
    "olenko_sup": lambda: [bc.olenko_sup(bc.Order(nu), 60.0, 300) for nu in OLENKO_ORDERS],
}


def counts(search) -> tuple[int, int, int]:
    """(roots refined, series cache misses, calls of f) of search() from empty caches."""
    oracle._j_series_fixed.cache_clear()
    roots, calls = 0, 0

    def counting(f, bracket, tol):
        nonlocal roots

        def g(t):
            nonlocal calls
            calls += 1
            return f(t)
        roots += 1
        return bc.refine_root(g, bracket, tol)

    zeros.refine_root = bounds.refine_root = counting
    try:
        search()
    finally:
        zeros.refine_root = bounds.refine_root = bc.refine_root
    return roots, oracle._j_series_fixed.cache_info().misses, calls


def olenko_reads() -> list[tuple[float, int, float]]:
    """(nu, evaluations of R, (upper - sup_value)/sup_value) of olenko_sup(nu, 60, 300)
    per OLENKO_ORDERS order, each from empty caches."""
    signed_gap, out = scan._signed_gap, []

    def counting(order, x):
        nonlocal reads
        reads += 1
        return signed_gap(order, x)

    scan._signed_gap = counting
    try:
        for nu in OLENKO_ORDERS:
            oracle._j_series_fixed.cache_clear()
            reads = 0
            s = bc.olenko_sup(bc.Order(nu), 60.0, 300)
            out.append((nu, reads, (s.upper - s.sup_value) / s.sup_value))
    finally:
        scan._signed_gap = signed_gap
    return out


def main() -> None:
    print(f"{'family':<14}{'roots':>6}{'series_misses':>15}{'calls_per_root':>16}")
    for name, search in FAMILIES.items():
        roots, misses, calls = counts(search)
        per_root = f"{calls / roots:.2f}" if roots else "-"
        print(f"{name:<14}{roots:>6}{misses:>15}{per_root:>16}")
    print(f"\n{'olenko_sup nu':<20}{'R_evaluations':>14}{'relative_gap':>14}")
    for nu, reads, gap in olenko_reads():
        print(f"{nu:<20.15g}{reads:>14}{gap:>14.3g}")


if __name__ == "__main__":
    main()
