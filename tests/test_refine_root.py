"""refine_root on its own: a budget of calls on J_0, plain bisection's double
on one simple root and on a tolerance below one ulp of the root, a few calls
past plain bisection on a multiple root, where the secant converges slowly,
the calls an exact zero at the secant iterate ends the descent in, and
tools/search_calls.py's exact counts per search family."""

from hypothesis import given, seed, settings, strategies as st
import pytest

from besselcert import Order, bessel_j_ref, refine_root
from plain_bisection import plain_bisection
import search_calls


def test_budget_refine_root_on_j0():
    calls = []

    def f(t):
        calls.append(t)
        return bessel_j_ref(Order(0.0), t).value
    refine_root(f, (2.0, 3.0), 1e-12)
    assert len(calls) <= 10


@pytest.mark.parametrize("n", [3, 9])
def test_a_multiple_root_costs_at_most_ten_calls_past_plain_bisection(n):
    # t^n's root at 0 has multiplicity n, so the secant converges linearly
    # and each of its steps is a call plain bisection does not make
    calls, plain_calls = [], []
    root = refine_root(lambda t: (calls.append(t), t ** n)[1], (-1.0, 2.0), 1e-12)
    plain = plain_bisection(lambda t: (plain_calls.append(t), t ** n)[1], (-1.0, 2.0), 1e-12)
    assert root.hex() == plain.hex()
    assert len(calls) <= len(plain_calls) + 10


@pytest.mark.parametrize("root,calls", [(2.0, 3), (2.5, 3), (1.5, 4), (2.25, 4)])
def test_an_exact_zero_at_the_secant_iterate_ends_the_descent_to_its_cell(root, calls):
    # the secant lands on the root at once, and each root here is a
    # bisection midpoint of (1, 3): the descent to the iterate's cell reads
    # its cached 0 there and stops.  That 0 reads as lo's side, so the
    # descent to the final cell calls f at each midpoint it meets between
    # the root and 3 on its way down: none for 2.0 and 2.5, one for 1.5
    # (at 2) and for 2.25 (at 2.5)
    seen = []
    assert refine_root(lambda t: (seen.append(t), t - root)[1], (1.0, 3.0), 1e-12) == root
    assert len(seen) == calls


def test_search_calls_counts():
    # tools/search_calls.py's exact (roots, series misses, calls of f) per
    # family, so that a change to a search moves them on purpose
    assert {name: search_calls.counts(search)
            for name, search in search_calls.FAMILIES.items()} == {
        "bessel_zero": (40, 708, 362),
        "airy_zero": (50, 548, 274),
        "leftmost_max": (4, 132, 44),
        "airy_crest": (50, 1900, 480),
        "olenko_sup": (0, 640, 0),
    }


@pytest.mark.parametrize("root", [1e7 + 0.3, 1e7 + 1 / 3, 123456789.01234])
def test_a_tolerance_below_one_ulp_still_returns_plain_bisections_double(root):
    # tol = 1e-12 is below ulp(1e7) = 1.9e-9: bisection, and the cell the
    # secant lands in, end where a midpoint no longer splits the bracket
    def f(t):
        return 2 * (t - root) + (t - root) ** 3

    bracket = (root - 1.0, root + 1.5)
    assert refine_root(f, bracket, 1e-12) == plain_bisection(f, bracket, 1e-12)


@seed(26)
@settings(max_examples=100, deadline=None)
@given(root=st.floats(-1e3, 1e3), a=st.floats(1.0, 1e3), c=st.floats(0.0, 1e3),
       sign=st.sampled_from((-1.0, 1.0)), below=st.floats(1e-6, 10.0),
       above=st.floats(1e-6, 10.0), tol=st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6)))
def test_one_simple_root_gives_plain_bisections_double(root, a, c, sign, below, above, tol):
    # a >= 1, so a (t - r) never underflows to 0: f's computed sign is its
    # true sign at every t, and f changes sign once, at r
    def f(t):
        d = t - root
        return sign * (a * d + c * d ** 3)

    bracket = (root - below, root + above)
    assert refine_root(f, bracket, tol) == plain_bisection(f, bracket, tol)
