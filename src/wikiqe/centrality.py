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
interpreter. ``_add_run`` adds a level's count_d terms 1/d to a node's
sum in a few float operations: one exact check per run, then per turn one
binade's steady adds as one exact ``k * step`` (floats are evenly spaced
between two powers of two) and the add that crosses its top; a
round-half-even tie or a term larger than the sum takes one add a turn.

PageRank iterates only the kept nodes: the nodes with outlinks and the
leaves whose in-link count, repeated links counted, is not 1. A leaf with
exactly one in-link, a tail, holds ``base + share`` of its parent in every
iteration, one rounded add, so all the tails of one parent are one value
and a count (the dangling-node reduction of Langville & Meyer 2006 and
Ipsen & Selee 2007, kept bit for bit). Every kept node starts at
``base``, and each source with outlinks adds its share to its kept
targets by ``+=``, in node order and then in the order its edges list
them: each kept node receives the adds it would if every node were
iterated, in the same order. The dangling mass and the L1 change are
``math.fsum``, the correctly rounded sum (Shewchuk 1997), over the kept
terms and each tail group's value or change times its count, written as
exact products (``_times``): the same sums of the same multisets as if
every tail were listed, so PageRank too gives the same bits on every
interpreter.
"""

from __future__ import annotations

import heapq
from itertools import chain
from math import frexp, fsum, ldexp
from operator import mul, sub

from ._value import FrozenValue, Value
from .graph import ConceptSubgraph
from .text import _csv_text

__all__ = [
    "PageRankParams",
    "PageRankResult",
    "CentralityTable",
    "degree",
    "closeness",
    "pagerank",
    "build_table",
]


class PageRankParams(FrozenValue):
    def __init__(self, damping: float = 0.85, tolerance: float = 1e-8, max_iterations: int = 100):
        # tolerance bounds the L1 norm of the per-iteration change
        super().__init__(damping, tolerance, max_iterations)
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class PageRankResult(Value):
    def __init__(self, scores: dict[str, float], converged: bool, iterations: int):
        self.scores = scores
        self.converged = converged
        self.iterations = iterations


class CentralityTable(Value):
    """Per-node scores of the three centralities.

    A ranking is derived from its score map, not stored:
    ``ranked_prefix(table.degree, n)`` lists the best ``n`` titles by
    descending score with ties broken by title, so identical graphs always
    produce identical lists.
    """

    def __init__(self, degree: dict[str, int], closeness: dict[str, float],
                 pagerank: dict[str, float], pagerank_converged: bool = True):
        self.degree = degree
        self.closeness = closeness
        self.pagerank = pagerank
        self.pagerank_converged = pagerank_converged

    def to_csv(self) -> str:
        """Dump as ``title,degree,closeness,pagerank`` rows."""
        return _csv_text(["title", "degree", "closeness", "pagerank"], (
            [title, self.degree[title], self.closeness[title], self.pagerank[title]]
            for title in self.degree
        ))


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
    sums = [_add_run(0, 1.0, size - 1) for size in seen]
    feeds = [[slot[v] for v in targets[i] if v in slot] for i in inner]
    active = [j for j, feed in enumerate(feeds) if feed]
    d = 1
    while active:
        d += 1
        x = 1.0 / d
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
            sums[j] = _add_run(sums[j], x, size - seen[j])
            reach[j] = bits
            seen[j] = size
        active = [j for j, _, _ in grown]
    scores = dict.fromkeys(nodes, 0)
    scores.update(zip([nodes[i] for i in inner], sums))
    return scores


# ---------------------------------------------------------------------------
# exact run sums
# ---------------------------------------------------------------------------

def _add_run(acc, x: float, n: int):
    """``acc`` after ``n`` sequential ``acc += x``, float for float, for
    ``acc >= 0`` (int 0 before level 1), ``x >= 0`` and a finite sum: one
    exact check per run, then one turn per binade that the run crosses."""
    if not n:
        return acc
    # On the finest grid of acc and x, every partial sum is an integer: if
    # the last fits in 53 bits, no add rounds and the run is one exact sum.
    a, p = acc.as_integer_ratio()
    b, q = x.as_integer_ratio()
    if p < q:
        a, p = a * (q // p), q
    else:
        b *= p // q
    last = a + n * b
    if last <= 1 << 53:
        return last / p
    while n:
        t = acc + x
        if t == acc:  # x no longer moves acc, and never will
            return t
        # Unless x is a tie at the spacing of acc's binade [2**(e-1), 2**e),
        # which the second add shows, or x > acc, the k adds that land below
        # the top repeat the first step exactly; the next add crosses it.
        step = t - acc
        k = 0
        if n > 1 and x <= acc and t + x - t == step:
            m, e = frexp(acc)  # acc == m * 2**e, 0.5 <= m < 1
            k = int(-(-ldexp(1.0 - m, e) // step)) - 1
            if n <= k:
                return acc + n * step
        acc = acc + k * step + x if k else t
        n -= k + 1
    return acc


# 2**27 + 1, Veltkamp's constant: it splits a float into two halves of at
# most 26 significant bits each.
_SPLIT = 134217729.0


def _times(values: list[float], counts: list[int]):
    """Floats whose exact sum is that of each ``values[g]`` taken
    ``counts[g]`` times, for values ``0 <= v <= 1`` (ranks and their
    changes) and counts ``0 <= c < 2**27``.

    Each value splits exactly into ``high + low``, each of at most 26
    significant bits, so ``high * c`` and ``low * c`` are exact products.
    ``fsum`` over them, with any other terms, is the correctly rounded sum
    of the whole multiset.
    """
    big = [v * _SPLIT for v in values]
    high = list(map(sub, big, map(sub, big, values)))
    return chain(map(mul, high, counts), map(mul, map(sub, values, high), counts))


def pagerank(subgraph: ConceptSubgraph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration with damping and uniform dangling redistribution.

    Starts from the uniform vector and stops once the L1 change drops
    below ``params.tolerance``; if ``max_iterations`` passes first, the
    last iterate is returned with ``converged=False``. Scores sum to 1.
    Every sum runs in node order or is exact, so results do not depend on
    hashing: each source adds its share to its targets by ``+=`` in the
    order the edges list them, repeated links and self-links included.
    Only the kept nodes are iterated. A tail, a leaf with exactly one
    in-link, scores ``base + share`` of its parent in every iteration, so
    each parent's tails are one value and a count; the dangling mass and
    the L1 change count each such value as often as it has tails, exactly.
    """
    params = params or PageRankParams()
    nodes = subgraph.nodes
    n = len(nodes)
    if n == 0:
        raise ValueError("pagerank needs a non-empty subgraph")
    d = params.damping
    targets = subgraph.targets
    inlinks = [0] * n
    for v in chain.from_iterable(targets):
        inlinks[v] += 1
    # slot[i]: node i's place in rank, or -1 for a tail until its parent's
    # row gives it the place of its group's value, after the ranks.
    slot = []
    inner = []  # (place, outlinks) of each node with outlinks
    sinks = []  # places of the kept leaves
    kept = 0
    for out, count in zip(targets, inlinks):
        if not out and count == 1:
            slot.append(-1)
            continue
        if out:
            inner.append((kept, out))
        else:
            sinks.append(kept)
        slot.append(kept)
        kept += 1
    rows = []  # (place, kept targets' places, out-degree, tails) per node with outlinks
    counts = []  # tails per group, in node order of the parents
    for k, out in inner:
        row = [t for t in map(slot.__getitem__, out) if t >= 0]
        c = len(out) - len(row)
        if c:
            group = kept + len(counts)
            for v in out:
                if slot[v] < 0:
                    slot[v] = group
            counts.append(c)
        rows.append((k, row, len(out), c))
    rank = [1.0 / n] * kept
    tails = [1.0 / n] * len(counts)
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        dangling = fsum(chain(map(rank.__getitem__, sinks), _times(tails, counts)))
        base = (1.0 - d) / n + d * dangling / n
        nxt = [base] * kept
        new = []
        for k, row, size, c in rows:
            share = d * rank[k] / size
            for t in row:
                nxt[t] += share
            if c:
                new.append(base + share)
        change = list(map(abs, map(sub, new, tails)))
        delta = fsum(chain(map(abs, map(sub, nxt, rank)), _times(change, counts)))
        rank, tails = nxt, new
        if delta < params.tolerance:
            converged = True
            break
    values = rank + tails
    scores = dict(zip(nodes, map(values.__getitem__, slot)))
    return PageRankResult(scores=scores, converged=converged, iterations=iterations)


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
