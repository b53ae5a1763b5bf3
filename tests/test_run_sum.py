"""The exact run sum behind closeness, and PageRank's leaf-run scatter.

``_run_sum(runs)`` must return what the builtin ``sum`` returns for the
terms ``x`` repeated ``n`` times per ``(x, n)`` run: the same float, or int
0 when there are no terms. Each branch is also compared with a plain loop
that spells out its arithmetic, so the branch this interpreter does not
use is checked too.
"""

import platform
import struct
import sys
from itertools import chain, repeat
from math import isfinite, ulp

import pytest

from wikiqe import centrality
from wikiqe.centrality import _compensated_run_sum, _run_sum, _sequential_run_sum

from conftest import make_subgraph
from test_centrality_exact import assert_bit_exact


def builtin_sum(runs):
    return sum(chain.from_iterable(repeat(x, n) for x, n in runs))


def sequential_loop(runs):
    """CPython < 3.12: one rounded add after another, from int 0."""
    acc = 0
    for x, n in runs:
        for _ in range(n):
            acc = acc + x
    return acc


def neumaier_loop(runs):
    """CPython 3.12+: the first float replaces the int 0 start; every
    later add feeds its rounding error to ``c``, added once at the end."""
    s, c, first = 0, 0.0, True
    for x, n in runs:
        for _ in range(n):
            if first:
                s, first = 0 + x, False
                continue
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
    if c and isfinite(c):
        s += c
    return s


def bits(value):
    """Type and exact bits, so 0.0 and -0.0 (or 0 and 0.0) differ."""
    if type(value) is int:
        return int, value
    return float, struct.pack("<d", value)


ODD = 1.0 + 3 * ulp(1.0)  # its last mantissa bit is odd
CASES = {
    "empty": [],
    "zero-counts": [(0.5, 0), (1.0 / 3, 0)],
    "zero-terms": [(0.0, 3), (-0.0, 2)],
    "closeness-shaped": [(1.0, 7), (0.5, 40), (1.0 / 3, 900), (0.25, 6000), (0.2, 100)],
    "long-third": [(1.0 / 3, 100_000)],
    "tie-from-odd": [(ODD, 1), (1.5 * ulp(1.0), 5000)],
    "tie-at-half-ulp": [(ODD, 1), (0.5 * ulp(1.0), 9)],
    "below-half-ulp": [(1e6, 1), (0.49 * ulp(1e6), 100_000), (1.0 / 7, 3)],
    "absorbed-then-large": [(2.0 ** 60, 1), (1.0, 50_000), (2.0 ** 9, 50)],
    "mixed-signs": [(1.0, 1), (1.0 / 3, 1000), (-1.0 / 7, 3000), (1.0 / 11, 5000), (-0.1, 20_000)],
    "toward-zero": [(1000.0, 1), (-1.0 / 3, 2990), (-1.0 / 3, 20)],
    "sign-change": [(1.0, 1), (-0.3, 10), (0.7, 4)],
    "tiny": [(5e-324, 1000), (1e-310, 300), (-3e-320, 100)],
}


@pytest.mark.parametrize("runs", CASES.values(), ids=CASES.keys())
def test_run_sum_matches_builtin_sum_and_both_loops(runs):
    assert bits(_run_sum(runs)) == bits(builtin_sum(runs))
    assert bits(_sequential_run_sum(runs)) == bits(sequential_loop(runs))
    assert bits(_compensated_run_sum(runs)) == bits(neumaier_loop(runs))


def test_empty_run_lists_give_int_zero_like_sum():
    for runs in ([], [(1.0, 0)]):
        for helper in (_run_sum, _sequential_run_sum, _compensated_run_sum):
            result = helper(runs)
            assert result == 0 and type(result) is int


def test_probe_picks_this_interpreters_sum():
    if platform.python_implementation() != "CPython":
        pytest.skip("the 3.12 switch to a compensated sum is CPython's")
    compensated = sys.version_info >= (3, 12)
    assert centrality._run_sum is (_compensated_run_sum if compensated else _sequential_run_sum)


# ---------------------------------------------------------------------------
# random run lists
# ---------------------------------------------------------------------------

def _run_lists(st, max_count):
    counts = st.one_of(st.integers(0, 3), st.integers(0, 300), st.integers(0, max_count))
    sign = st.sampled_from([1.0, -1.0])

    @st.composite
    def run_lists(draw):
        runs = []
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(["reciprocal", "tie", "below-half-ulp", "any"]))
            # The accumulator the next run starts from, as the builtin has it.
            acc = builtin_sum(runs) or 1.0
            if kind == "reciprocal":
                x = 1.0 / draw(st.integers(1, 60))
            elif kind == "tie":  # (m + 1/2) ulps of the accumulator
                x = (draw(st.integers(0, 9)) + 0.5) * ulp(acc)
            elif kind == "below-half-ulp":
                x = draw(st.floats(0.01, 0.4999)) * ulp(acc)
            else:
                x = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
            runs.append((draw(sign) * x, draw(counts)))
        return runs

    return run_lists()


def test_run_sum_matches_builtin_sum_on_random_run_lists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_run_lists(st, 100_000))
    def check(runs):
        assert bits(_run_sum(runs)) == bits(builtin_sum(runs))

    check()


def test_both_branches_match_their_loops_on_random_run_lists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_run_lists(st, 3000))
    def check(runs):
        assert bits(_sequential_run_sum(runs)) == bits(sequential_loop(runs))
        assert bits(_compensated_run_sum(runs)) == bits(neumaier_loop(runs))

    check()


# ---------------------------------------------------------------------------
# PageRank's leaf runs
# ---------------------------------------------------------------------------

def test_pagerank_leaf_run_broken_by_shared_repeated_and_self_links():
    # "hub" lists a to e side by side, but "shared" also has a link from
    # "other", "d" is linked twice and "c" links itself: each has two
    # in-links, breaks the run of single-in-link leaves and takes its
    # shares by +=.
    sub = make_subgraph({
        "hub": ["a", "b", "shared", "c", "d", "d", "e"],
        "other": ["shared", "f", "g"],
        "c": ["c"],
    })
    assert sub.nodes == ("hub", "a", "b", "shared", "c", "d", "e", "other", "f", "g")
    assert_bit_exact(sub)
