"""Declared domains: every public entry point returns finite fields or raises
DomainError/PrecisionError, and each rule refuses with a fixed message."""

import math
import time

import pytest

import besselcert as bc
from besselcert import DomainError, GridSpec, Order, PrecisionError, scan
from besselcert import approx as approx_module

NUS = (-0.5, 0.0, 1 / 3, 0.5, 2.0, 10.0, 60.0, 1000.0, 1e20)
XS = (5e-324, 1e-300, 1e-210, 1e-100, 1e-10, 0.5, 10.0, 150.0, 200.0, 1e3, 1e10, 1e100,
      1e300, math.inf, -math.inf, math.nan, 0.0, -1.0)
# the 21 probed entry points, each airy_approx mode on its own; nu is ignored
# where the function takes no order
ENTRY_POINTS = {
    "bessel_j_ref": bc.bessel_j_ref,
    "bessel_j_prime_ref": bc.bessel_j_prime_ref,
    "airy_ai_neg_ref": lambda order, x: bc.airy_ai_neg_ref(x),
    "airy_ai_neg_prime_ref": lambda order, x: bc.airy_ai_neg_prime_ref(x),
    "classic_oscillatory": bc.classic_oscillatory,
    "sharper_oscillatory": bc.sharper_oscillatory,
    "simplified_oscillatory": bc.simplified_oscillatory,
    "olver_expansion": lambda order, x: bc.olver_expansion(order, x, 1, 1),
    "phase_B": bc.phase_B,
    "transition": bc.transition,
    "airy_classic": lambda order, x: bc.airy_approx(x, "classic"),
    "airy_sharp": lambda order, x: bc.airy_approx(x, "sharp"),
    "airy_simplified": lambda order, x: bc.airy_approx(x, "simplified"),
    "best_approx": bc.best_approx,
    "bound_watson": bc.bound_watson,
    "bound_envelope": bc.bound_envelope,
    "bound_derivative": bc.bound_derivative,
    "bound_monotonic": bc.bound_monotonic,
    "bound_log_derivative": bc.bound_log_derivative,
    "bound_airy_envelope": lambda order, x: bc.bound_airy_envelope(x),
    "lemma_integral_check": lambda order, x: bc.lemma_integral_check(x),
}


def _floats(result):
    if isinstance(result, tuple):
        for part in result:
            yield from _floats(part)
    elif isinstance(result, float):
        yield result
    else:
        yield from (v for v in vars(result).values() if isinstance(v, float))


def test_probe_returns_finite_fields_or_domain_errors():
    faults = []
    for name, f in ENTRY_POINTS.items():
        for nu in NUS:
            order = Order(nu)
            for x in XS:
                try:
                    result = f(order, x)
                except (DomainError, PrecisionError):
                    continue
                except Exception as e:  # anything else is a fault of the domain
                    faults.append((name, nu, x, type(e).__name__))
                    continue
                if not all(map(math.isfinite, _floats(result))):
                    faults.append((name, nu, x, "non-finite field"))
    assert len(ENTRY_POINTS) * len(NUS) * len(XS) == 3402
    assert not faults, f"{len(faults)} faults, first {faults[:10]}"


# the sonin variants, at the probe's orders and the non-finite ones, and
# transition at the non-finite orders only
NON_FINITE_NUS = (math.nan, math.inf, -math.inf)
SECOND_PROBE = [(f"sonin_{variant}", lambda order, x, v=variant: bc.sonin_eval(v, order, x), nu)
                for variant in ("szego", "envelope", "airy") for nu in NUS + NON_FINITE_NUS]
SECOND_PROBE += [("transition", bc.transition, nu) for nu in NON_FINITE_NUS]


def test_second_probe_returns_finite_fields_or_domain_errors():
    faults = []
    for name, f, nu in SECOND_PROBE:
        for x in XS:
            try:
                result = f(Order(nu), x)
            except (DomainError, PrecisionError):
                continue
            except Exception as e:
                faults.append((name, nu, x, type(e).__name__))
                continue
            if not all(map(math.isfinite, _floats(result))):
                faults.append((name, nu, x, "non-finite field"))
    assert len(SECOND_PROBE) * len(XS) == 702
    assert not faults, f"{len(faults)} faults, first {faults[:10]}"


# the zero-index entry points at hostile indices, with s = 1 so that the two
# taking an order meet it at the finite and non-finite ones
SS = (1, 0, -1, 1.5, math.nan, math.inf, 10 ** 7, 10 ** 200)
ZERO_NUS = (1.0,) + NON_FINITE_NUS
THIRD_PROBE = [("airy_zero_estimate full", lambda s: bc.airy_zero_estimate(s, "full")),
               ("airy_zero_estimate simplified",
                lambda s: bc.airy_zero_estimate(s, "simplified")),
               ("refine_airy_zero", bc.refine_airy_zero),
               ("conjecture_check", bc.conjecture_check),
               ("center_gap_check", bc.center_gap_check)]
THIRD_PROBE += [(f"{f.__name__} nu={nu}", lambda s, f=f, nu=nu: f(Order(nu), s))
                for f in (bc.bessel_first_zeros_estimate, bc.refine_bessel_zero)
                for nu in ZERO_NUS]


def test_third_probe_returns_finite_fields_or_domain_errors():
    faults = []
    for name, f in THIRD_PROBE:
        for s in SS:
            try:
                result = f(s)
            except (DomainError, PrecisionError):
                continue
            except Exception as e:
                faults.append((name, s, type(e).__name__))
                continue
            if not all(map(math.isfinite, _floats(result))):
                faults.append((name, s, "non-finite field"))
    assert len(THIRD_PROBE) * len(SS) == 104
    assert not faults, f"{len(faults)} faults, first {faults[:10]}"


def test_refine_root_probe_returns_a_sign_change_inside_the_bracket_or_refuses():
    # every ordered pair of probe arguments as a bracket of t - 0.3: a result
    # lies in the bracket, within tol of 0.3; anything else is a refusal
    faults = []
    for lo in XS:
        for hi in XS:
            try:
                t = bc.refine_root(lambda t: t - 0.3, (lo, hi))
            except (DomainError, PrecisionError):
                continue
            except ValueError as e:  # the endpoints do not straddle 0.3
                if str(e) != "refine_root: no sign change over the bracket":
                    faults.append((lo, hi, str(e)))
                continue
            except Exception as e:
                faults.append((lo, hi, type(e).__name__))
                continue
            if not (lo <= t <= hi and abs(t - 0.3) <= 1e-12):
                faults.append((lo, hi, t))
    assert not faults, f"{len(faults)} faults, first {faults[:10]}"


@pytest.mark.parametrize("mode", ["classic", "sharp", "simplified"])
def test_airy_edges_are_where_the_powers_leave_the_doubles(mode):
    # each declared end admits the last double that evaluates finitely
    lo, hi, _ = approx_module._AIRY_MODES[mode]
    for x in (math.nextafter(lo, math.inf), hi):
        a = bc.airy_approx(x, mode)
        assert math.isfinite(a.value) and math.isfinite(a.half_width)
    for x in (lo, math.nextafter(hi, math.inf)):
        with pytest.raises(DomainError, match=f"^airy_approx: {mode} needs x in"):
            bc.airy_approx(x, mode)


# One out-of-domain call per rule, each with its exact message; generated
# before the rules moved into tables, so they pin the messages across it.
PINNED = [
    ('gamma(0.0)',
     'gamma: z must lie in (0, 64)'),
    ('bessel_j_ref(Order(-1.0), 1.0)',
     'bessel_j_ref: nu must be >= -1/2'),
    ('bessel_j_ref(Order(math.inf), 1.0)',
     'bessel_j_ref: nu must be finite'),
    ('bessel_j_ref(Order(0.0), 0.0)',
     'bessel_j_ref: x must lie in (0, 200]'),
    ('bessel_j_prime_ref(Order(0.0), 1.0)',
     'bessel_j_prime_ref: nu must be >= 1/2'),
    ('bessel_j_prime_ref(Order(math.inf), 1.0)',
     'bessel_j_prime_ref: nu must be finite'),
    ('bessel_j_prime_ref(Order(1.0), 201.0)',
     'bessel_j_prime_ref: x must lie in (0, 200]'),
    ('airy_ai_neg_ref(-1.0)',
     'airy_ai_neg_ref: x must lie in [0, 120]'),
    ('airy_ai_neg_prime_ref(121.0)',
     'airy_ai_neg_prime_ref: x must lie in [0, 120]'),
    ('classic_oscillatory(Order(0.0), 0.0)',
     'classic_oscillatory: x must be positive'),
    ('classic_oscillatory(Order(-1.0), 1.0)',
     'classic_oscillatory: nu must be >= -1/2'),
    ('olver_expansion(Order(-1.0), 1.0, 3, 3)',
     'olver_expansion: nu must be >= 0'),
    ('olver_expansion(Order(0.0), 0.0, 3, 3)',
     'olver_expansion: x must be positive'),
    ('olver_expansion(Order(10.0), 5.0, 1, 5)',
     'olver_expansion: l1 below max(nu/2 - 1/4, 1)'),
    ('olver_expansion(Order(10.0), 5.0, 5, 1)',
     'olver_expansion: l2 below max(nu/2 - 3/4, 1)'),
    ('olver_expansion(Order(1.0), 5.0, 2.5, 2)',
     'olver_expansion: l1 and l2 must be integers'),
    ('olver_expansion(Order(1.0), 5.0, 3.0, 3)',
     'olver_expansion: l1 and l2 must be integers'),
    ('olver_expansion(Order(1.0), 5.0, 3, 3.0)',
     'olver_expansion: l1 and l2 must be integers'),
    ('phase_B(Order(0.0), 0.0)',
     'phase_B: x must be positive'),
    ('phase_B(Order(3.0), 1.0)',
     'phase_B: high branch needs x > sqrt(mu)'),
    ('sharper_oscillatory(Order(0.0), 0.0)',
     'sharper_oscillatory: x must be positive'),
    ('sharper_oscillatory(Order(3.0), 2.0)',
     'sharper_oscillatory: high branch needs x > max(mu, sqrt(mu))'),
    ('simplified_oscillatory(Order(1.0), 1.0)',
     'simplified_oscillatory: |nu| must be <= 1/2'),
    ('simplified_oscillatory(Order(0.0), 0.0)',
     'simplified_oscillatory: x must be positive'),
    ('transition(Order(0.4), 1.0)',
     'transition: nu must be >= 1/2'),
    ('transition(Order(2.0), -1.0)',
     'transition: z must lie in [0, 95.2]'),
    ('airy_approx(0.0)',
     'airy_approx: x must be positive'),
    ("airy_approx(1.0, 'bogus')",
     "airy_approx: unknown mode 'bogus'"),
    ('best_approx(Order(0.0), 0.0)',
     'classic_oscillatory: x must be positive'),
    ('best_approx(Order(-1.0), 1.0)',
     'classic_oscillatory: nu must be >= -1/2'),
    ('bound_watson(Order(70.0), 1.0)',
     'bound_watson: nu must be < 63'),
    ('bound_derivative(Order(0.4), 10.0)',
     'bound_derivative: nu must be >= 1/2'),
    ('bound_derivative(Order(10.0), 10.5)',
     'bound_derivative: x below nu + ((sqrt7-1)/2^(2/3)) nu^(1/3)'),
    ('bound_monotonic(Order(0.0), 0.5)',
     'bound_monotonic: nu must be positive'),
    ('bound_monotonic(Order(2.0), 1.5)',
     'bound_monotonic: t must lie in (0, 1]'),
    ('bound_monotonic(Order(250.0), 0.5)',
     'bound_monotonic: nu must be <= 200'),
    ('bound_log_derivative(Order(-1.0), 0.1)',
     'bound_log_derivative: nu must be >= -1/2'),
    ('bound_log_derivative(Order(1.0), 2.0)',
     'bound_log_derivative: x must lie in (0, nu + 1/2]'),
    ('bound_log_derivative(Order(2.0), 1e-300)',
     'bound_log_derivative: J_nu vanishes on (0, x]'),
    ('bound_airy_envelope(-1.0)',
     'bound_airy_envelope: x must be >= 0'),
    ('bound_wronskian_kernel(0.6, 1.0, 2.0)',
     'bound_wronskian_kernel: nu must lie in [0, 1/2]'),
    ('bound_near_first_zero(Order(0.4))',
     'bound_near_first_zero: nu must be >= 1/2'),
    ('bound_near_first_zero(Order(190.0))',
     'bound_near_first_zero: nu + 2^(-1/3) a1 nu^(1/3) must be <= 200'),
    ("sonin_eval('szego', Order(1.0), 1.0)",
     'sonin szego: |nu| must be <= 1/2'),
    ("sonin_eval('szego', Order(0.0), 0.0)",
     'sonin szego: x must be positive'),
    ("sonin_eval('envelope', Order(0.5), 1.0)",
     'sonin envelope: nu must be > 1/2'),
    ("sonin_eval('envelope', Order(3.0), 2.0)",
     'sonin envelope: x must exceed sqrt(mu)'),
    ("sonin_eval('airy', Order(0.0), -1.0)",
     'sonin airy: x must be >= 0'),
    ("sonin_eval('bogus', Order(0.0), 1.0)",
     "sonin_eval: unknown variant 'bogus'"),
    ('leftmost_max_check(Order(1.0))',
     'leftmost_max_check: nu must be >= 5/3'),
    ('leftmost_max_check(Order(math.nan))',
     'leftmost_max_check: nu must be finite'),
    ('leftmost_max_check(Order(201.0))',
     "leftmost_max_check: sqrt(mu) - 1e-6 must be <= 200"),
    ('lemma_integral_check(0.0)',
     'lemma_integral_check: x must be positive'),
    ('lemma_integral_check(1e7)',
     'lemma_integral_check: x must be <= 4e6'),
    ('lemma_integral_check(math.inf)',
     'lemma_integral_check: x must be <= 4e6'),
    ('airy_zero_estimate(0)',
     'airy_zero_estimate: s must be >= 1'),
    ("airy_zero_estimate(1, 'bogus')",
     "airy_zero_estimate: unknown mode 'bogus'"),
    ('bessel_first_zeros_estimate(Order(0.0), 1)',
     'bessel_first_zeros_estimate: nu must be positive'),
    ('bessel_first_zeros_estimate(Order(1.0), 0)',
     'bessel_first_zeros_estimate: s must be >= 1'),
    ('refine_airy_zero(0)',
     'refine_airy_zero: s must lie in [1, 50]'),
    ('refine_bessel_zero(Order(1.0), 0)',
     'refine_bessel_zero: s must be >= 1'),
    ('conjecture_check(51)',
     'conjecture_check: s must lie in [1, 50]'),
    ("scan.approx_row('sharp_low', Order(3.0), 100.0)",
     'sharp_low: order falls in the other branch'),
    ("scan.approx_row('sharp_high', Order(0.0), 1.0)",
     'sharp_high: order falls in the other branch'),
    ("scan.approx_row('pade', Order(0.0), 1.0)",
     "approx_row: unknown method 'pade'"),
    ('GridSpec((), (0.1, 1.0), 5)',
     'GridSpec: nu_values must be non-empty'),
    ('GridSpec((1.0,), (0.1, 1.0), 1)',
     'GridSpec: x_points must be >= 2'),
    ('GridSpec((1.0,), (0.1, 1.0), 2.5)',
     'GridSpec: x_points must be an integer'),
    ('GridSpec((1.0,), (0.1, 1.0), 3.0)',
     'GridSpec: x_points must be an integer'),
    ('GridSpec((1.0,), (0.1, 1.0), math.nan)',
     'GridSpec: x_points must be an integer'),
    ('GridSpec((1.0,), (0.1, 1.0), math.inf)',
     'GridSpec: x_points must be an integer'),
    ('GridSpec((1.0,), (1.0, 1.0), 5)',
     'GridSpec: x_range must satisfy lo < hi'),
    ('GridSpec((1.0,), (0.0, 1.0), 5)',
     'GridSpec: log spacing needs lo > 0'),
    ("GridSpec((1.0,), (-1.0, 1.0), 5, 'linear')",
     'GridSpec: linear spacing needs lo >= 0'),
    ("GridSpec((1.0,), (0.1, 1.0), 5, 'cubic')",
     "GridSpec: unknown spacing 'cubic'"),
    ("scan_rows('bogus', GridSpec((1.0,), (0.1, 1.0), 5))",
     "scan: unknown method or bound 'bogus'"),
    ("verify_approx_grid('bogus', GridSpec((1.0,), (0.1, 1.0), 5))",
     "verify_approx_grid: unknown method 'bogus'"),
    ("verify_bounds_grid('bogus', GridSpec((1.0,), (0.1, 1.0), 5))",
     "verify_bounds_grid: unknown bound 'bogus'"),
    ("verify_approx_grid('sharp_high', GridSpec((0.0,), (0.1, 1.0), 3))",
     'scan: no admissible grid points for sharp_high'),
    ('olenko_sup(Order(0.5))',
     'olenko_sup: mu must be positive'),
    ('olenko_sup(Order(2.0), 0.0)',
     'olenko_sup: x_max must lie in (0, 200]'),
    ('olenko_sup(Order(2.0), 50.0, 5)',
     'olenko_sup: coarse_points must be >= 10'),
    ('olenko_sup(Order(2.0), 50.0, 10.5)',
     'olenko_sup: coarse_points must be an integer'),
    ('olenko_sup(Order(2.0), 1e-310, 3000)',
     "olenko_sup: sqrt(2/(pi x)) leaves the doubles at the grid's first point "
     'x = x_max/min(coarse_points, ceil(x_max))'),
    ('olenko_sup(Order(2.0), 5e-324, 10)',
     "olenko_sup: sqrt(2/(pi x)) leaves the doubles at the grid's first point "
     'x = x_max/min(coarse_points, ceil(x_max))'),
    # omega = nu pi/2 + pi/4 overflows past nu = 5.72e307, where cos(x - omega)
    # raised a bare ValueError; an infinite order still meets the finite rule
    ('olenko_sup(Order(1e308), 1.0, 10)',
     'olenko_sup: omega = nu pi/2 + pi/4 leaves the doubles'),
    ('olenko_sup(Order(5.73e307), 1.0, 10)',
     'olenko_sup: omega = nu pi/2 + pi/4 leaves the doubles'),
    ('olenko_sup(Order(math.inf), 1.0, 10)',
     'olenko_sup: nu must be finite'),
    # later rules: S leaves the doubles at |nu| = 1/2 (x^2 + mu is 0), at
    # 0 < nu < 1/2 (nu/x overflows) and at -1/2 < nu < 0 ((nu/x) J overflows);
    # transition's finite-order rule comes last, so -inf meets the first
    ("sonin_eval('szego', Order(0.5), 1e-300)",
     'sonin szego: S leaves the doubles'),
    ("sonin_eval('szego', Order(-0.5), 1e-200)",
     'sonin szego: S leaves the doubles'),
    ("sonin_eval('szego', Order(1 / 3), 5e-324)",
     'sonin szego: S leaves the doubles'),
    ("sonin_eval('szego', Order(-1 / 3), 1e-300)",
     'sonin szego: S leaves the doubles'),
    ('transition(Order(math.nan), 1.0)',
     'transition: nu must be finite'),
    ('transition(Order(math.inf), 1.0)',
     'transition: nu must be finite'),
    ('transition(Order(-math.inf), 1.0)',
     'transition: nu must be >= 1/2'),
    # the crest search's x_hi, and the zero indices: integers, and where the
    # estimate and the gap claim stay decidable in doubles
    ('airy_envelope_maxima(130.0)',
     'airy_envelope_maxima: x_hi must lie in (0, 120]'),
    ('airy_envelope_maxima(math.nan)',
     'airy_envelope_maxima: x_hi must lie in (0, 120]'),
    ('airy_zero_estimate(1.5)',
     'airy_zero_estimate: s must be an integer'),
    ('airy_zero_estimate(math.nan)',
     'airy_zero_estimate: s must be an integer'),
    ('airy_zero_estimate(10 ** 200)',
     'airy_zero_estimate: m^3 = ((12s - 3) pi)^3 leaves the doubles'),
    ('bessel_first_zeros_estimate(Order(0.5), 1.5)',
     'bessel_first_zeros_estimate: s must be an integer'),
    ('bessel_first_zeros_estimate(Order(math.nan), 1)',
     'bessel_first_zeros_estimate: nu must be finite'),
    ('refine_airy_zero(1.5)',
     'refine_airy_zero: s must be an integer'),
    ('refine_bessel_zero(Order(1.0), 1.5)',
     'refine_bessel_zero: s must be an integer'),
    ('refine_bessel_zero(Order(math.inf), 1)',
     'refine_bessel_zero: nu must be finite'),
    # an order below the series' floor is refused under the called name, not
    # the oracle's; -inf is refused as not finite first
    ('refine_bessel_zero(Order(-3.0), 1)',
     'refine_bessel_zero: nu must be >= -1/2'),
    ('refine_bessel_zero(Order(-math.inf), 1)',
     'refine_bessel_zero: nu must be finite'),
    ('center_gap_check(0)',
     'center_gap_check: s must be >= 1'),
    ('center_gap_check(1.5)',
     'center_gap_check: s must be an integer'),
    ('center_gap_check(10 ** 6 + 1)',
     'center_gap_check: s must be <= 1000000'),
    ('conjecture_check(1.5)',
     'conjecture_check: s must be an integer'),
    # each zero-index cap is named by its own entry point
    ('bessel_first_zeros_estimate(Order(1.0), 51)',
     'bessel_first_zeros_estimate: s must be <= 50'),
    ('refine_bessel_zero(Order(1.0), 65)',
     'refine_bessel_zero: s must be <= 64'),
    # no zero of an order past the x cap lies below it
    ('refine_bessel_zero(Order(250.0), 1)',
     'refine_bessel_zero: nu must be < 200'),
    ('refine_bessel_zero(Order(1e300), 1)',
     'refine_bessel_zero: nu must be < 200'),
    # a bracket that is not a finite interval: each of these returned a
    # point or ran out of steps before the rule
    ('refine_root(lambda t: t - 0.3, (1.0, 0.0))',
     'refine_root: bracket must be a finite interval with lo <= hi'),
    ('refine_root(lambda t: t - 0.3, (0.0, math.inf))',
     'refine_root: bracket must be a finite interval with lo <= hi'),
    ('refine_root(lambda t: t - 0.3, (-math.inf, 1.0))',
     'refine_root: bracket must be a finite interval with lo <= hi'),
    ('refine_root(lambda t: t - 0.3, (math.nan, 1.0))',
     'refine_root: bracket must be a finite interval with lo <= hi'),
]
NAMESPACE = {**{name: getattr(bc, name) for name in bc.__all__},
             "GridSpec": GridSpec, "Order": Order, "math": math, "scan": scan}


@pytest.mark.parametrize("call, message", PINNED, ids=[call for call, _ in PINNED])
def test_pinned_message(call, message):
    with pytest.raises(DomainError) as info:
        eval(call, NAMESPACE)
    assert str(info.value) == message


# an unhashable name: every unknown-name rule tests membership in a tuple, so
# each refuses it as unknown instead of raising TypeError from a dict lookup
UNHASHABLE = [
    ("airy_approx(1.0, ['bogus'])", DomainError, "airy_approx: unknown mode ['bogus']"),
    ("sonin_eval(['bogus'], Order(0.0), 1.0)", DomainError,
     "sonin_eval: unknown variant ['bogus']"),
    ("airy_zero_estimate(1, ['bogus'])", DomainError,
     "airy_zero_estimate: unknown mode ['bogus']"),
    ("GridSpec((1.0,), (0.1, 1.0), 5, ['bogus'])", DomainError,
     "GridSpec: unknown spacing ['bogus']"),
    ("scan.approx_row(['bogus'], Order(0.0), 1.0)", DomainError,
     "approx_row: unknown method ['bogus']"),
    ("scan_rows(['bogus'], GridSpec((1.0,), (0.1, 1.0), 5))", DomainError,
     "scan: unknown method or bound ['bogus']"),
    ("verify_approx_grid(['bogus'], GridSpec((1.0,), (0.1, 1.0), 5))", DomainError,
     "verify_approx_grid: unknown method ['bogus']"),
    ("verify_bounds_grid(['bogus'], GridSpec((1.0,), (0.1, 1.0), 5))", DomainError,
     "verify_bounds_grid: unknown bound ['bogus']"),
]


@pytest.mark.parametrize("call, error, message", UNHASHABLE, ids=[c for c, _, _ in UNHASHABLE])
def test_unhashable_names(call, error, message):
    with pytest.raises(error) as info:
        eval(call, NAMESPACE)
    assert type(info.value) is error and str(info.value) == message


def test_pinned_psi_message(monkeypatch):
    # with the shift gone, x = nu passes the domain's second rule but psi < 0
    monkeypatch.setattr("besselcert.bounds._DERIV_SHIFT", 0.0)
    with pytest.raises(DomainError) as info:
        bc.bound_derivative(Order(5.0), 5.0)
    assert str(info.value) == "bound_derivative: psi must be positive on the stated domain"


def test_olenko_sup_runs_below_the_omega_edge():
    assert Order(5.72e307).omega < math.inf
    s = bc.olenko_sup(Order(5.72e307), 1.0, 10)
    assert 0 <= s.sup_value <= s.upper


@pytest.mark.parametrize("call", [
    "classic_oscillatory(Order(1e308), 1.0)", "olver_expansion(Order(1e308), 1.0, 3, 3)",
    "sharper_oscillatory(Order(1e308), 1.0)", "simplified_oscillatory(Order(1e308), 1.0)",
    "best_approx(Order(1e308), 1.0)", "olenko_sup(Order(1e308), 1.0, 10)"])
def test_every_reader_of_omega_refuses_where_it_is_infinite(call):
    # each public function that reads cos(x - omega) refuses by its domain
    # where omega = inf, instead of raising ValueError from math.cos
    assert Order(1e308).omega == math.inf
    with pytest.raises(DomainError):
        eval(call, NAMESPACE)


@pytest.mark.parametrize("nu", [1e300, math.inf, math.nan])
def test_leftmost_refuses_huge_orders_at_once(nu):
    # the domain rule refuses before any evaluation of hp
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^leftmost_max_check: "):
        bc.leftmost_max_check(Order(nu))
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("nu", [0.0, 0.25, -0.25, 0.5, -0.5])
def test_szego_admits_every_finite_s(nu):
    # the S rule refuses only what used to fault: at nu = 0, J' = -J_1 has
    # no nu/x, so S stays finite down to the least double; elsewhere a point
    # just above the refusals still evaluates
    x = 5e-324 if nu == 0 else 1e-150
    assert math.isfinite(bc.sonin_eval("szego", Order(nu), x).S)


# out-of-domain calls that each bound used to refuse with an evaluator's
# message; every one now refuses through its own table, by its own name
OWN_TABLE = {
    "bound_watson": ("bound_watson(Order(math.nan), 1.0)", "bound_watson(Order(-1.0), 1.0)",
                     "bound_watson(Order(2.5), 300.0)", "bound_watson(Order(2.5), math.nan)"),
    "bound_envelope": ("bound_envelope(Order(math.nan), 1.0)",
                       "bound_envelope(Order(math.inf), 1.0)", "bound_envelope(Order(-1.0), 1.0)",
                       "bound_envelope(Order(2.5), 300.0)", "bound_envelope(Order(2.5), math.nan)",
                       "bound_envelope(Order(2.5), 0.0)", "bound_envelope(Order(1e200), 1.0)"),
    "bound_derivative": ("bound_derivative(Order(2.5), 300.0)",),
    "bound_log_derivative": ("bound_log_derivative(Order(math.inf), 0.1)",),
    "bound_airy_envelope": ("bound_airy_envelope(130.0)", "bound_airy_envelope(math.nan)"),
    "bound_wronskian_kernel": ("bound_wronskian_kernel(0.25, 300.0, 1.0)",
                               "bound_wronskian_kernel(0.25, 1.0, math.nan)",
                               "bound_wronskian_kernel(0.25, 0.0, 1.0)"),
    "sonin szego": ("sonin_eval('szego', Order(math.nan), 1.0)",
                    "sonin_eval('szego', Order(0.25), 300.0)",
                    "sonin_eval('szego', Order(0.25), math.nan)"),
    "sonin envelope": ("sonin_eval('envelope', Order(math.nan), 10.0)",
                       "sonin_eval('envelope', Order(2.5), 300.0)",
                       "sonin_eval('envelope', Order(2.5), math.nan)"),
    "sonin airy": ("sonin_eval('airy', Order(0.0), 130.0)",
                   "sonin_eval('airy', Order(0.0), math.nan)"),
    "bound_monotonic": ("bound_monotonic(Order(math.nan), 0.5)",
                        "bound_monotonic(Order(0.1), 5e-324)"),
    "bound_near_first_zero": ("bound_near_first_zero(Order(math.nan))",),
    "olenko_sup": ("olenko_sup(Order(math.nan), 50.0)", "olenko_sup(Order(math.inf), 50.0)",
                   "olenko_sup(Order(-1.0), 50.0)", "olenko_sup(Order(2.5), math.nan)"),
}


@pytest.mark.parametrize("name, call", [(name, call) for name, calls in OWN_TABLE.items()
                                        for call in calls], ids=lambda v: v)
def test_bounds_refuse_by_their_own_name(name, call):
    with pytest.raises(DomainError) as info:
        eval(call, NAMESPACE)
    assert str(info.value).startswith(f"{name}: "), str(info.value)
