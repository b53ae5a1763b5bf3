"""The exact run adds behind closeness, and the order in which PageRank's
scatter adds the shares of a target with several in-links.

Closeness folds each level's run into its node's sum with ``_add_run``.
Folded over ``(x, n)`` runs from int 0, as ``_run_sum`` does here, it must
return the left-to-right float sum of the terms ``x`` repeated ``n`` times
per run, one rounded add after another: the same float, or int 0 when
there are no terms. That is what the builtin ``sum`` gives before CPython
3.12, on every interpreter. The runs are the ones closeness makes: every
term ``x`` is a finite float ``>= 0`` and the sum stays finite, so no
negative term or run is checked here.
"""

import operator
import struct
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import ceil, frexp, ulp

import pytest

from wikiqe.centrality import _add_run, closeness

from conftest import make_subgraph
from test_centrality_exact import assert_bit_exact, with_sinks


def _run_sum(runs):
    """The runs added one after another, as the closeness sweep adds levels."""
    return reduce(lambda acc, run: _add_run(acc, *run), runs, 0)


def reduce_sum(runs):
    """The fast oracle: the same adds as ``sequential_loop``, looped in C."""
    return reduce(operator.add, chain.from_iterable(repeat(x, n) for x, n in runs), 0)


def sequential_loop(runs):
    """One rounded add after another, from int 0."""
    acc = 0
    for x, n in runs:
        for _ in range(n):
            acc = acc + x
    return acc


def bits(value):
    """Type and exact bits, so 0.0 and -0.0 (or 0 and 0.0) differ."""
    if type(value) is int:
        return int, value
    return float, struct.pack("<d", value)


def adds_below_top(start, x):
    """How many adds of ``x`` from ``start`` land below the top of its binade
    [2**(e-1), 2**e), counted on the float grid: in the binade every add
    moves the sum by ``x`` rounded to a multiple of the spacing ``ulp``."""
    spacing = Fraction(ulp(start))
    steps, rest = divmod(Fraction(x), spacing)
    assert rest != spacing / 2, "x is a tie at this spacing"
    step = (steps + (rest > spacing / 2)) * spacing
    top = Fraction(2) ** frexp(start)[1]
    return ceil((top - Fraction(start)) / step) - 1


ODD = 1.0 + 3 * ulp(1.0)  # its last mantissa bit is odd
# 1/112 from 1.0: K adds stay in [1, 2), the K+1-th crosses 2 and rounds
# otherwise than an add of the same step would.
K = adds_below_top(1.0, 1.0 / 112)
# 2.0 - 15 * 2**-52 climbs by exact 3 * 2**-52 adds to exactly 2.0, where
# the same term is 1.5 ulps: every later add is a round-half-even tie.
BELOW_TWO = 2.0 - 15 * 2.0 ** -52
CASES = {
    "empty": [],
    "zero-counts": [(0.5, 0), (1.0 / 3, 0)],
    "zero-terms": [(0.0, 3)],
    "closeness-shaped": [(1.0, 7), (0.5, 40), (1.0 / 3, 900), (0.25, 6000), (0.2, 100)],
    "long-third": [(1.0 / 3, 100_000)],
    "tie-from-odd": [(ODD, 1), (1.5 * ulp(1.0), 5000)],
    "tie-at-half-ulp": [(ODD, 1), (0.5 * ulp(1.0), 9)],
    "below-half-ulp": [(1e6, 1), (0.49 * ulp(1e6), 100_000), (1.0 / 7, 3)],
    "absorbed-then-large": [(2.0 ** 60, 1), (1.0, 50_000), (2.0 ** 9, 50)],
    "tiny": [(5e-324, 1000), (1e-310, 300)],
    "exact-to-a-power-then-ties": [(BELOW_TWO, 1), (3 * 2.0 ** -52, 105)],
    "k-adds-below-the-top": [(1.0, 1), (1.0 / 112, K)],
    "k+1-adds-cross-the-top": [(1.0, 1), (1.0 / 112, K + 1)],
    "k+2-adds-one-past-the-top": [(1.0, 1), (1.0 / 112, K + 2)],
    "starts-at-a-power": [(2.0 ** 10, 1), (1.0 / 3, 5000)],
    "third-run-crosses-three-binades": [(1.0, 2), (0.5, 4), (1.0 / 3, 120)],
}


@pytest.mark.parametrize("runs", CASES.values(), ids=CASES.keys())
def test_run_sum_matches_builtin_sum_and_both_loops(runs):
    # The builtin sum before 3.12, spelled out and looped in C.
    assert bits(_run_sum(runs)) == bits(sequential_loop(runs)) == bits(reduce_sum(runs))


def test_binade_cases_sit_where_their_names_say():
    # K is the boundary: K adds stay below 2.0, K + 1 reach it.
    assert K >= 100
    assert sequential_loop(CASES["k-adds-below-the-top"]) < 2.0
    assert sequential_loop(CASES["k+1-adds-cross-the-top"]) >= 2.0
    # Five exact adds reach 2.0 itself; at 2.0 the term is a tie.
    assert sequential_loop([(BELOW_TWO, 1), (3 * 2.0 ** -52, 5)]) == 2.0
    assert Fraction(3 * 2.0 ** -52) / Fraction(ulp(2.0)) == Fraction(3, 2)
    # The thirds start at 4.0 and end past 32.0.
    assert sequential_loop(CASES["third-run-crosses-three-binades"][:2]) == 4.0
    assert sequential_loop(CASES["third-run-crosses-three-binades"]) > 32.0


def test_empty_run_lists_give_int_zero_like_sum():
    for runs in ([], [(1.0, 0)]):
        result = _run_sum(runs)
        assert result == 0 and type(result) is int


def test_closeness_adds_left_to_right_where_a_compensated_sum_rounds_otherwise():
    # Ten adds of 0.1 round to just below 1.0; a compensated sum gives 1.0.
    assert _run_sum([(0.1, 10)]) == 0.9999999999999999
    # "a" reaches b at 1, c at 2 and six leaves at 3: 1 + 1/2 + 6 * 1/3
    # adds up to 3.5000000000000004 one add at a time, 3.5 compensated.
    sub = make_subgraph({"a": ["b"], "b": ["c"], "c": [f"leaf {i}" for i in range(6)]})
    assert bits(closeness(sub)["a"]) == bits(3.5000000000000004)


# ---------------------------------------------------------------------------
# random run lists
# ---------------------------------------------------------------------------

def _run_lists(st, max_count):
    counts = st.one_of(st.integers(0, 3), st.integers(0, 300), st.integers(0, max_count))

    @st.composite
    def run_lists(draw):
        runs = []
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(["reciprocal", "tie", "below-half-ulp", "any"]))
            # The accumulator the next run starts from.
            acc = reduce_sum(runs) or 1.0
            if kind == "reciprocal":
                x = 1.0 / draw(st.integers(1, 60))
            elif kind == "tie":  # (m + 1/2) ulps of the accumulator
                x = (draw(st.integers(0, 9)) + 0.5) * ulp(acc)
            elif kind == "below-half-ulp":
                x = draw(st.floats(0.01, 0.4999)) * ulp(acc)
            else:
                x = draw(st.floats(0.0, 1e6))
            runs.append((x, draw(counts)))
        return runs

    return run_lists()


def test_run_sum_matches_builtin_sum_on_random_run_lists():
    # The builtin sum before 3.12, looped in C: counts reach 100k.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_run_lists(st, 100_000))
    def check(runs):
        assert bits(_run_sum(runs)) == bits(reduce_sum(runs))

    check()


def _runs_below_a_power_of_two(st):
    """A sum a few ulps below a power of two, then runs that climb across it:
    grid multiples (exact below the top), terms that are exact below the top
    and ties above it, terms below half an ulp, and fractions of the top."""

    @st.composite
    def run_lists(draw):
        top = 2.0 ** draw(st.integers(-30, 60))
        below = ulp(top / 2)  # the spacing just below the top
        runs = [(top - draw(st.integers(1, 9)) * below, 1)]
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["grid", "tie-above", "below-half-ulp", "fraction"]))
            if kind == "grid":
                x = draw(st.integers(1, 9)) * below
            elif kind == "tie-above":  # (m + 1/2) ulps of the top's binade
                x = (2 * draw(st.integers(0, 4)) + 1) * below
            elif kind == "below-half-ulp":
                x = draw(st.floats(0.01, 0.4999)) * below
            else:
                x = top / draw(st.integers(3, 5000))
            runs.append((x, draw(st.integers(1, 3000))))
        return runs

    return run_lists()


def test_run_sum_matches_both_loops_across_a_power_of_two():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=250, deadline=None)
    @hypothesis.given(_runs_below_a_power_of_two(st))
    def check(runs):
        assert bits(_run_sum(runs)) == bits(sequential_loop(runs)) == bits(reduce_sum(runs))

    check()


# ---------------------------------------------------------------------------
# PageRank's per-edge order
# ---------------------------------------------------------------------------

def test_pagerank_leaf_run_broken_by_shared_repeated_and_self_links():
    # "shared" has a link from "hub" and one from "other", "d" is linked
    # twice by "hub" and "c" has a link from "hub" and one from itself:
    # each adds its two shares to base by +=, in source order and then in
    # the order the source lists its links, as the reference does.
    adjacency = {
        "hub": ["a", "b", "shared", "c", "d", "d", "e"],
        "other": ["shared", "f", "g"],
        "c": ["c"],
    }
    sub = make_subgraph(adjacency)
    assert sub.nodes == ("hub", "a", "b", "shared", "c", "d", "e", "other", "f", "g")
    assert_bit_exact(sub, with_sinks(adjacency))
