"""Degree, closeness and PageRank scores over a concept subgraph.

All three functions are pure and operate on an immutable ConceptSubgraph,
so they can safely run in parallel across subgraphs.

Conventions that matter here:

* degree is OUT-degree: the number of outgoing links a node has.
* closeness is harmonic closeness over outgoing shortest paths,
  C(v) = sum(1/d(v, u)) over nodes u reachable from v. Unreachable nodes
  contribute 0, which keeps the score well defined on the disconnected,
  tree-ish graphs Wikipedia crawls produce.
* PageRank redistributes the rank of dangling nodes (no outlinks)
  uniformly over ALL nodes. Concept graphs are usually much more like
  trees than cycles, so most of their nodes dangle and this choice
  dominates the resulting scores -- change it and every ranking moves.

Both kernels read ``subgraph.targets``, each node's outlinks as positions
in ``subgraph.nodes``, built by the closure walk. Closeness runs one
level-synchronous, bit-parallel reachability pass for all sources at once
(the bit-parallel BFS idea of Akiba, Iwata & Yoshida, SIGMOD 2013): every
node with outlinks ("inner" node) holds the set of nodes within distance d
as a Python int used as a bitset, and level d + 1 ORs in the level-d sets
of its inner out-neighbours. The popcount differences between levels give
the number of nodes at each distance. A level costs (active inner edges) x
n/30 digit operations (CPython ints hold 30-bit digits), and the number of
levels is the largest eccentricity, so a tree-ish crawl pays a few levels
instead of one dict BFS per node. Leaves (no outlinks) hold no set: they
reach only themselves and score int 0.

A score is the float sum a BFS from its node produces: 1/d added once per
node at distance d, in increasing d, one rounded add after another from
int 0 -- the bits the builtin ``sum`` gives before CPython 3.12, on every
interpreter. ``_run_sum`` returns exactly that float from the runs
``(1/d, count_d)`` without adding term by term. Inside one binade (the
floats between two powers of two are evenly spaced) an add of the same
term moves the sum by the same rounded step, so a run of adds is one
exact multiply-add per binade, with single adds at binade crossings and
at round-half-even ties, and a run none of whose adds rounds is a single
add. A node with thousands of nodes in reach costs a few dozen float
operations instead of thousands of adds.

PageRank's leaves mostly have a single in-link, and a breadth-first node
order lists a page's new leaves side by side. Each iteration fills such
index ranges with one slice assignment of ``base + share`` -- the bits of
``base`` followed by its one ``+= share`` -- and keeps the ordered ``+=``
only for nodes with more than one in-link. Its sums are the builtin
``sum``, which is compensated from CPython 3.12 on, so PageRank's low bits
differ between interpreters before and after 3.12.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass
from math import frexp, isfinite, ldexp
from operator import sub

from .graph import ConceptSubgraph

__all__ = [
    "PageRankParams",
    "PageRankResult",
    "CentralityTable",
    "degree",
    "closeness",
    "pagerank",
    "build_table",
]


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.85
    tolerance: float = 1e-8  # L1 norm of the per-iteration change
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class PageRankResult:
    scores: dict[str, float]
    converged: bool
    iterations: int


@dataclass
class CentralityTable:
    """Per-node scores of the three centralities.

    A ranking is derived from its score map, not stored:
    ``ranked_prefix(table.degree, n)`` lists the best ``n`` titles by
    descending score with ties broken by title, so identical graphs always
    produce identical lists.
    """

    degree: dict[str, int]
    closeness: dict[str, float]
    pagerank: dict[str, float]
    pagerank_converged: bool = True

    def to_csv(self) -> str:
        """Dump as ``title,degree,closeness,pagerank`` rows (12 significant
        digits for the real-valued scores)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["title", "degree", "closeness", "pagerank"])
        for title in self.degree:
            writer.writerow([
                title,
                self.degree[title],
                f"{self.closeness[title]:.12g}",
                f"{self.pagerank[title]:.12g}",
            ])
        return buf.getvalue()


def degree(subgraph: ConceptSubgraph) -> dict[str, int]:
    """Out-degree of every node in the subgraph."""
    return {node: len(out) for node, out in zip(subgraph.nodes, subgraph.targets)}


def closeness(subgraph: ConceptSubgraph) -> dict[str, float]:
    """Harmonic closeness over outgoing shortest paths, per node."""
    nodes = subgraph.nodes
    targets = subgraph.targets
    inner = [i for i, out in enumerate(targets) if out]
    slot = {i: j for j, i in enumerate(inner)}
    # Level 1: the node itself and its outlinks.
    reach = []
    for i in inner:
        bits = 1 << i
        for v in targets[i]:
            bits |= 1 << v
        reach.append(bits)
    seen = [bits.bit_count() for bits in reach]
    counts = [[size - 1] for size in seen]  # nodes at distance 1, 2, ...
    feeds = [[slot[v] for v in targets[i] if v in slot] for i in inner]
    active = [j for j, feed in enumerate(feeds) if feed]
    while active:
        grown = []
        for j in active:
            bits = reach[j]
            for k in feeds[j]:
                bits |= reach[k]
            size = bits.bit_count()
            if size > seen[j]:
                grown.append((j, bits, size))
        # Commit after the sweep so every node reads the previous level.
        for j, bits, size in grown:
            counts[j].append(size - seen[j])
            reach[j] = bits
            seen[j] = size
        active = [j for j, _, _ in grown]
    scores = {node: 0 for node in nodes}
    for i, per_level in zip(inner, counts):
        scores[nodes[i]] = _run_sum([(1.0 / d, c) for d, c in enumerate(per_level, start=1)])
    return scores


# ---------------------------------------------------------------------------
# exact run sums
# ---------------------------------------------------------------------------

def _steady_adds(acc, x: float, t: float, n: int) -> int:
    """How many of ``n`` float adds of ``x`` to ``acc`` each move it by the
    first add's step ``t - acc`` (``t == acc + x``); at least 1.

    Inside one binade [2**(e-1), 2**e) the floats are evenly spaced, so an
    add of ``x`` rounds to the same step wherever it starts, unless ``x`` is
    a tie at that spacing; then round-half-even fixes the step from the
    second add on. So when the second add repeats the first step, every add
    that lands strictly inside the binade repeats it too. ``|x| <= |acc|``
    keeps ``t - acc`` exact.
    """
    step = t - acc
    if n < 2 or abs(x) > abs(acc) or t + x - t != step:
        return 1  # one add, x outweighing acc, a tie or a crossing: add singly
    m, e = frexp(acc)  # acc == m * 2**e, 0.5 <= |m| < 1
    if (m > 0) == (step > 0):  # away from zero: up to the binade's top
        room = ldexp(1.0 - abs(m), e)
    else:  # toward zero: down to its bottom, below which the spacing halves
        room = ldexp(abs(m) - 0.5, e)
    # The most adds that land strictly inside: never on the edge itself.
    return max(1, min(n, int(-(-room // abs(step))) - 1))


def _add_run(acc, x: float, n: int):
    """``acc`` after ``n`` sequential ``acc += x``, float for float."""
    while n:
        t = acc + x
        if t == acc:  # x no longer moves acc, and never will
            return t
        if isfinite(t):
            # On the finest grid of acc and x, every partial sum is an
            # integer between the first and the last: if both fit in 53
            # bits, no add rounds, and the run is one exact sum.
            a, p = acc.as_integer_ratio()
            b, q = x.as_integer_ratio()
            if p < q:
                a, p = a * (q // p), q
            else:
                b *= p // q
            last = a + n * b
            if max(abs(a), abs(last)) <= 1 << 53:
                return last / p
        k = _steady_adds(acc, x, t, n)
        acc = acc + k * (t - acc) if k > 1 else t  # k * step is exact
        n -= k
    return acc


def _run_sum(runs: list[tuple[float, int]]):
    """The left-to-right float sum of ``runs`` (``(x, count)`` pairs): one
    rounded add after another from int 0, so no terms give int 0."""
    acc = 0
    for x, n in runs:
        acc = _add_run(acc, x, n)
    return acc


def pagerank(subgraph: ConceptSubgraph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration with damping and uniform dangling redistribution.

    Starts from the uniform vector and stops once the L1 change drops
    below ``params.tolerance``; if ``max_iterations`` passes first, the
    last iterate is returned with ``converged=False``. Scores sum to 1.
    Every sum runs in node order, so results do not depend on hashing.

    A node with a single in-link (repeated links and self-links counted)
    gets ``base + share`` in one add, so a source writes those of its
    targets at consecutive indices with one slice assignment; the other
    targets take their shares by ``+=`` in the order the edges list them.
    Every score keeps the bits of the plain edge-by-edge scatter.
    """
    params = params or PageRankParams()
    nodes = subgraph.nodes
    n = len(nodes)
    if n == 0:
        raise ValueError("pagerank needs a non-empty subgraph")
    d = params.damping
    targets = subgraph.targets
    in_links = [0] * n  # repeated links and self-links counted
    for out in targets:
        for v in out:
            in_links[v] += 1
    dangling = [i for i, out in enumerate(targets) if not out]
    linked = []  # (source, out-degree, [lo, hi) ranges of sole targets, other targets)
    for i, out in enumerate(targets):
        if out:
            ranges, shared = [], []
            for v in out:
                if in_links[v] > 1:
                    shared.append(v)
                elif ranges and ranges[-1][1] == v:
                    ranges[-1][1] = v + 1
                else:
                    ranges.append([v, v + 1])
            linked.append((i, len(out), ranges, shared))
    rank = [1.0 / n] * n
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        base = (1.0 - d) / n + d * sum(map(rank.__getitem__, dangling)) / n
        nxt = [base] * n
        for i, out_degree, ranges, shared in linked:
            share = d * rank[i] / out_degree
            if ranges:  # a node with one in-link is base plus one share
                value = base + share
                for lo, hi in ranges:
                    nxt[lo:hi] = [value] * (hi - lo)
            for v in shared:
                nxt[v] += share
        delta = sum(map(abs, map(sub, nxt, rank)))
        rank = nxt
        if delta < params.tolerance:
            converged = True
            break
    return PageRankResult(scores=dict(zip(nodes, rank)), converged=converged, iterations=iterations)


def ranked_prefix(scores: dict[str, float], want: int) -> list[str]:
    """The best titles of ``scores`` by descending score, ties broken by
    title: every title that scores at least the ``want``-th best score, or
    all titles when ``want >= len(scores)``.

    Keeping every title tied with the ``want``-th best makes the result an
    exact prefix of the full ranking, at least ``want`` long, for one pass
    over the scores and a sort of the prefix alone.
    """
    if want < len(scores):
        cut = heapq.nlargest(want, scores.values())[-1]
        titles = [title for title, score in scores.items() if score >= cut]
    else:
        titles = list(scores)
    titles.sort(key=lambda title: (-scores[title], title))
    return titles


def build_table(subgraph: ConceptSubgraph, params: PageRankParams | None = None) -> CentralityTable:
    """Compute the three score maps; rankings are derived from them
    (:func:`ranked_prefix`)."""
    deg = degree(subgraph)
    clo = closeness(subgraph)
    pr = pagerank(subgraph, params)
    return CentralityTable(
        degree=deg,
        closeness=clo,
        pagerank=pr.scores,
        pagerank_converged=pr.converged,
    )
