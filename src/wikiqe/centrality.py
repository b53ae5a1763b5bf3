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

Both kernels index the nodes by their position in ``subgraph.nodes``.
Closeness runs one level-synchronous, bit-parallel reachability pass for
all sources at once (the bit-parallel BFS idea of Akiba, Iwata & Yoshida,
SIGMOD 2013): every node with outlinks ("inner" node) holds the set of
nodes within distance d as a Python int used as a bitset, and level d + 1
ORs in the level-d sets of its inner out-neighbours. The popcount
differences between levels give the number of nodes at each distance. A
level costs (active inner edges) x n/30 digit operations (CPython ints
hold 30-bit digits), and the number of levels is the largest
eccentricity, so a tree-ish crawl pays a few levels instead of one dict
BFS per node. Leaves (no outlinks) hold no
set: they reach only themselves and score int 0. The score adds 1/d once
per node at distance d, in increasing d -- the float sequence a BFS from
that node produces -- so ``sum`` returns the same bits as a per-node BFS
on any CPython, including the compensated ``sum`` of 3.12+.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass
from itertools import chain, repeat

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

    The node lists ``degree_list``, ``closeness_list`` and ``pagerank_list``
    are derived on each access, not stored: each sorts the whole node set
    by descending score with ties broken by title (:func:`ranked_prefix`),
    so identical graphs always produce byte-identical lists.
    """

    degree: dict[str, int]
    closeness: dict[str, float]
    pagerank: dict[str, float]
    pagerank_converged: bool = True

    @property
    def degree_list(self) -> list[str]:
        return ranked_prefix(self.degree, len(self.degree))

    @property
    def closeness_list(self) -> list[str]:
        return ranked_prefix(self.closeness, len(self.closeness))

    @property
    def pagerank_list(self) -> list[str]:
        return ranked_prefix(self.pagerank, len(self.pagerank))

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
    return {node: len(subgraph.adjacency[node]) for node in subgraph.nodes}


def closeness(subgraph: ConceptSubgraph) -> dict[str, float]:
    """Harmonic closeness over outgoing shortest paths, per node."""
    nodes = subgraph.nodes
    adjacency = subgraph.adjacency
    index = {node: i for i, node in enumerate(nodes)}
    inner = [node for node in nodes if adjacency[node]]
    slot = {node: j for j, node in enumerate(inner)}
    # Level 1: the node itself and its outlinks.
    reach = []
    for node in inner:
        bits = 1 << index[node]
        for target in adjacency[node]:
            bits |= 1 << index[target]
        reach.append(bits)
    seen = [bits.bit_count() for bits in reach]
    counts = [[size - 1] for size in seen]  # nodes at distance 1, 2, ...
    feeds = [[slot[t] for t in adjacency[node] if t in slot] for node in inner]
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
    for node, per_level in zip(inner, counts):
        scores[node] = sum(chain.from_iterable(
            repeat(1.0 / d, c) for d, c in enumerate(per_level, start=1)
        ))
    return scores


def pagerank(subgraph: ConceptSubgraph, params: PageRankParams | None = None) -> PageRankResult:
    """Power iteration with damping and uniform dangling redistribution.

    Starts from the uniform vector and stops once the L1 change drops
    below ``params.tolerance``; if ``max_iterations`` passes first, the
    last iterate is returned with ``converged=False``. Scores sum to 1.
    Every sum runs in node order, so results do not depend on hashing.
    """
    params = params or PageRankParams()
    nodes = subgraph.nodes
    n = len(nodes)
    if n == 0:
        raise ValueError("pagerank needs a non-empty subgraph")
    d = params.damping
    adjacency = subgraph.adjacency
    index = {node: i for i, node in enumerate(nodes)}
    dangling = [i for i, node in enumerate(nodes) if not adjacency[node]]
    linked = [
        (i, [index[v] for v in adjacency[node]]) for i, node in enumerate(nodes) if adjacency[node]
    ]
    rank = [1.0 / n] * n
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        base = (1.0 - d) / n + d * sum([rank[i] for i in dangling]) / n
        nxt = [base] * n
        for i, out in linked:
            share = d * rank[i] / len(out)
            for v in out:
                nxt[v] += share
        delta = sum([abs(a - b) for a, b in zip(nxt, rank)])
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
    """Compute the three score maps; the ranked node lists are derived from
    them on demand (:class:`CentralityTable`)."""
    deg = degree(subgraph)
    clo = closeness(subgraph)
    pr = pagerank(subgraph, params)
    return CentralityTable(
        degree=deg,
        closeness=clo,
        pagerank=pr.scores,
        pagerank_converged=pr.converged,
    )
