"""Seeded inputs of the four benchmark workloads.

Every list is a pure function of its seed and its nominal seconds
(operations()): it draws plain numbers and names with random.Random and
never imports besselcert, so the package sees only the generated inputs.
An operation is a tuple whose first item names its kind; run.py and
worker.py dispatch on that name.

Order ranges are deliberate.  point_queries draws nu from [0, 60], the
oracle's whole practical order range, so the oracle's large-order defect
(wrong or refused values for nu above about 33) shows up as failed
operations instead of being sampled around.  The other workloads stay on
the acceptance battery's orders (at most 20).
"""

import itertools
import math
import random

WORKLOADS = ("point_queries", "grid_certify", "search_claims", "cli_oneshot")

ORDER_MAX = 60.0
X_MAX = 200.0
AIRY_X_MAX = 120.0
# the battery's order range (tests/test_acceptance.py NU_STD tops out at 20)
BATTERY_ORDER_MAX = 20.0
GRID_X_HI = 150.0
GRID_POINTS = 16

POINT_KINDS = ("j", "jp", "ai", "best", "bound")
APPROX_SWEEPS = ("classic", "sharp", "simplified", "olver", "best", "transition",
                 "airy_classic", "airy_sharp", "airy_simplified")
# leftmost_max is a search (a scan for the first maximum, then bisection):
# search_claims runs it, and in a round it would outweigh every other subject
BOUND_SWEEPS = ("watson", "envelope", "derivative", "monotonic", "log_derivative",
                "airy_envelope", "near_first_zero", "sonin_szego", "sonin_envelope",
                "sonin_airy", "wronskian_kernel")

# Nominal seconds each operation takes at the benchmark's defining commit
# (Python 3.11, 2-core x86 VM).  They only size each workload's fixed list
# so that one execution takes about the requested seconds; a faster program
# settles the same list sooner.  Point queries average over the five kinds.
_NOMINAL_COST = {"query": 0.004, "cli": 0.18, "lemma": 6.0, "round": 0.6,
                 "airy_zero": 0.055, "bessel_zero": 0.015, "aem": 0.4, "leftmost": 0.7,
                 "olenko": 0.18}
GRID_MIN_ROUNDS = 8
# search_claims cycles at the benchmark's 18 seconds (6 per execution)
SEARCH_CYCLES = 3
AIRY_S_MAX = 50
# share of a band over which a template point may move (see _Strata)
TEMPLATE_JITTER = 0.2
# cli_oneshot draws per kind and cycle: one per command of a kind at 18 seconds
CLI_BANDS = 7
# point_queries bands per order, abscissa and Airy abscissa range: about
# ten cycles of each at 18 seconds
POINT_BANDS = 30


class _Strata:
    """Jittered stratified draws from (lo, hi].

    Each of the equal bands is drawn once per cycle, in a seeded order (in
    ascending order when shuffle is false), and the point is uniform over
    the middle `jitter` share of its band.  A run of any length then samples
    every band of the range almost equally often, which keeps the mix of
    cheap and expensive points (and of large orders) the same from seed to
    seed.  The fixed lists of few, costly operations use a small jitter and
    no shuffle: every seed then perturbs the same template a little, and
    the cost of each operation stays close to its cost under other seeds.
    """

    def __init__(self, rng: random.Random, lo: float, hi: float, bands: int,
                 jitter: float = 1.0, shuffle: bool = True):
        self.rng, self.lo, self.width, self.bands = rng, lo, (hi - lo) / bands, bands
        self.jitter, self.shuffle = jitter, shuffle
        self.order = []

    def draw(self) -> float:
        if not self.order:
            self.order = list(range(self.bands - 1, -1, -1))
            if self.shuffle:
                self.rng.shuffle(self.order)
        # 1 - random() lies in (0, 1], so the draw never returns lo itself
        offset = 0.5 + self.jitter * (0.5 - self.rng.random())
        return self.lo + self.width * (self.order.pop() + offset)


def _blocks(seconds: float, cost: float, block: int) -> int:
    """Operations in whole blocks whose nominal cost reaches seconds (one block at least)."""
    return block * max(1, math.ceil(seconds / cost / block))


def point_queries(seed: int):
    """Endless stream of fresh library queries, five kinds in equal shares.

    Each block of five holds every kind once, in a seeded order, so any
    prefix of the stream is balanced to within one block.  Orders and
    abscissae are stratified per kind (see _Strata).  No point repeats, so
    every oracle call misses the series cache.
    """
    rng = random.Random(seed)
    seen = set()
    # bessel_j_prime_ref's domain starts at nu = 1/2
    nus = {kind: _Strata(rng, 0.5 if kind == "jp" else 0.0, ORDER_MAX, POINT_BANDS)
           for kind in ("j", "jp", "best", "bound")}
    xs = {kind: _Strata(rng, 0.0, X_MAX, POINT_BANDS) for kind in ("j", "jp", "best", "bound")}
    airy_xs = _Strata(rng, 0.0, AIRY_X_MAX, POINT_BANDS)
    bound_names = ("envelope", "watson")
    n_bounds = 0

    def fresh(kind: str) -> tuple:
        while True:
            point = (nus[kind].draw(), xs[kind].draw()) if kind in nus else (airy_xs.draw(),)
            if point not in seen:
                seen.add(point)
                return point

    while True:
        kinds = list(POINT_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "bound":
                yield (bound_names[n_bounds % 2],) + fresh(kind)
                n_bounds += 1
            else:
                yield (kind,) + fresh(kind)


def grid_certify(seed: int, seconds: float) -> list[tuple]:
    """The fixed list of certification checks for one run.

    One lemma_integral point, then rounds until the nominal cost reaches the
    requested seconds (at least GRID_MIN_ROUNDS).  A round is one operation:
    certify every subject (APPROX_SWEEPS, BOUND_SWEEPS) on one fresh grid,
    as the acceptance battery does on its own grids.  Each round's grid
    has one order per band, [0, 1/2] for wronskian_kernel and the low
    branches and three above 1/2 up to the battery's 20, so every subject
    has admissible points.  With nine operations, as at 18 seconds,
    the lemma point is the 90th percentile.  The lemma abscissa stays in
    [90, 110], inside the range [40, 150] where quad's panel-doubling
    schedule is the same at every x, so the one slow check costs about the
    same in every run.  Round k draws every order and its lower x from the
    k-th of GRID_MIN_ROUNDS bands (TEMPLATE_JITTER, no shuffle), so the k-th
    round costs about the same under every seed.
    """
    rng = random.Random(seed)
    ops = [("lemma", rng.uniform(90.0, 110.0))]
    budget = _NOMINAL_COST["lemma"]
    bands = [_Strata(rng, lo, hi, GRID_MIN_ROUNDS, TEMPLATE_JITTER, shuffle=False)
             for lo, hi in ((0.0, 0.5), (0.5, 2.5), (2.5, 10.0), (10.0, BATTERY_ORDER_MAX))]
    x_lo = _Strata(rng, 0.05, 0.15, GRID_MIN_ROUNDS, TEMPLATE_JITTER, shuffle=False)
    rounds = 0
    while budget < seconds or rounds < GRID_MIN_ROUNDS:
        rounds += 1
        nus, lo = tuple(band.draw() for band in bands), x_lo.draw()
        ops.append(("grid", nus, lo))
        budget += _NOMINAL_COST["round"]
    return ops


def search_claims(seed: int, seconds: float) -> list[tuple]:
    """The fixed list of search claims for one run.

    One airy_envelope_maxima sweep, then cycles of (the next three Airy
    zeros, three Bessel zeros each of three orders, two leftmost_max_check,
    one olenko_sup) until the nominal cost reaches the requested seconds.
    Airy zeros go in ascending s, because each refine_airy_zero call extends
    the previous scan.  The mix puts the median inside the Bessel zeros and
    the 90th percentile inside the leftmost maxima, two groups of claims of
    like cost spread over the whole run, so neither percentile hangs on the
    few claims of one moment.
    """
    rng = random.Random(seed)
    # every cycle draws each order from its own third (or half) of the range,
    # and each band once per SEARCH_CYCLES cycles, so the costly large orders
    # come in the same share in every run
    def template(lo, hi):
        return _Strata(rng, lo, hi, SEARCH_CYCLES, TEMPLATE_JITTER, shuffle=False)

    bessel_nu = [template(lo, hi) for lo, hi in ((0.5, 7.0), (7.0, 13.5), (13.5, BATTERY_ORDER_MAX))]
    leftmost_nu = [template(lo, hi) for lo, hi in ((5 / 3, 5.8), (5.8, 10.0))]
    olenko_nu = template(1.0, 10.0)
    claims = [("aem", rng.uniform(13.5, 14.5))]
    done = 0
    while sum(_NOMINAL_COST[c[0]] for c in claims) < seconds:
        claims += [("airy_zero", s) for s in range(done + 1, min(done + 3, AIRY_S_MAX) + 1)]
        done = min(done + 3, AIRY_S_MAX)
        for strata in bessel_nu:
            nu = strata.draw()
            claims += [("bessel_zero", nu, k) for k in (1, 2, 3)]
        claims += [("leftmost", strata.draw()) for strata in leftmost_nu]
        claims.append(("olenko", olenko_nu.draw()))
    return claims


def cli_commands(seed: int):
    """Endless stream of README-style CLI commands with seeded parameters.

    Kinds rotate in a seeded order per block of five.  Orders stay in the
    README's and the battery's range (at most 20): this workload measures
    process start, import and the CLI layer, and its failure share has to
    stay a steady gate at a few dozen commands per run; point_queries
    carries the large orders.  Orders and abscissae are stratified and
    rounded to three decimals, as a user would type them.
    """
    rng = random.Random(seed)
    kinds = ["eval", "approx", "bounds", "zeros", "scan"]
    # every kind draws from its own strata, CLI_BANDS per cycle, so each kind
    # meets the same bands in every run
    nus = {k: _Strata(rng, 0.0, BATTERY_ORDER_MAX, CLI_BANDS, TEMPLATE_JITTER) for k in kinds}
    xs = {k: _Strata(rng, 0.0, X_MAX, CLI_BANDS, TEMPLATE_JITTER) for k in kinds}
    n_bounds = n_zeros = 0

    def arg(strata: _Strata) -> str:
        return repr(max(round(strata.draw(), 3), 0.001))

    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "eval":
                argv = ("eval", "--nu", arg(nus[kind]), "--x", arg(xs[kind]))
            elif kind == "approx":
                argv = ("approx", "--method", "best", "--nu", arg(nus[kind]), "--x", arg(xs[kind]))
            elif kind == "bounds":
                name = ("envelope", "watson")[n_bounds % 2]
                n_bounds += 1
                argv = ("bounds", "--name", name, "--nu", arg(nus[kind]), "--x", arg(xs[kind]))
            elif kind == "zeros":
                n_zeros += 1
                argv = ("zeros", "--family", "airy", "--s", str(1 + n_zeros % 5))
            else:
                argv = ("scan", "--method", "classic", "--nu-list", f"{arg(nus[kind])},{arg(nus[kind])}",
                        "--x-lo", "0.5", "--x-hi", "150", "--points", "8")
            yield ("cli", argv)


def operations(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The fixed list of operations one execution of a workload runs.

    Every list is a function of seed and seconds alone, so every execution
    of a run, and every run with the same seed, attempts the same
    operations.  The time-free streams are cut at whole blocks of five.
    """
    if workload == "point_queries":
        n = _blocks(seconds, _NOMINAL_COST["query"], len(POINT_KINDS))
        return list(itertools.islice(point_queries(seed), n))
    if workload == "grid_certify":
        return grid_certify(seed, seconds)
    if workload == "search_claims":
        return search_claims(seed, seconds)
    if workload == "cli_oneshot":
        return list(itertools.islice(cli_commands(seed), _blocks(seconds, _NOMINAL_COST["cli"], 5)))
    raise ValueError(f"unknown workload {workload!r}")
