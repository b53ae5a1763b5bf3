"""Shared test helpers: direct subgraph construction, random graphs, the
breadth-first hop oracle, the crawl-cache file name and the fixture
queries' root closures."""

import hashlib
import random
from pathlib import Path

import pytest

from wikiqe.graph import ConceptSubgraph, OntologyGraph


def make_subgraph(adjacency: dict[str, list[str]], root: str | None = None) -> ConceptSubgraph:
    """Build a ConceptSubgraph straight from an adjacency mapping.

    Targets missing from the keys become sink nodes. Node order is
    first-seen order, matching what a breadth-first closure would give.
    Each row of ``targets`` numbers the mapping's own list for its node,
    repeats and self-links included.
    """
    position: dict[str, int] = {}
    for node, targets in adjacency.items():
        for title in (node, *targets):
            position.setdefault(title, len(position))
    nodes = tuple(position)
    rows = tuple(tuple(position[t] for t in adjacency.get(node, ())) for node in nodes)
    return ConceptSubgraph(root=root or nodes[0], nodes=nodes, targets=rows)


def fixture_root_subgraphs():
    """``(graph, subgraph, pagerank params)`` for the closure of every root of
    every fixture query's crawl, in query and root order: 42 closures (the
    30 queries share 10 crawls of 14 distinct roots)."""
    from wikiqe.config import RunConfig
    from wikiqe.ingest import PageCache, WikiSource

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    config = RunConfig.load(fixtures / "config.json")
    source = WikiSource(PageCache(config.snapshot_dir))
    for query in filter(None, (fixtures / "queries.txt").read_text(encoding="utf-8").split("\n")):
        graph = source.build_graph(query, config.crawl)
        for root in graph.roots:
            yield graph, graph.isolate_subgraph(root), config.pagerank


def bfs_hops(graph: OntologyGraph) -> dict[str, int]:
    """Oracle: multi-source breadth-first distances over the graph's edges."""
    hops = {root: 0 for root in graph.roots}
    queue = list(graph.roots)
    for node in queue:
        for nxt in graph.outlinks(node):
            if nxt not in hops:
                hops[nxt] = hops[node] + 1
                queue.append(nxt)
    return hops


def hashed_name(key: str) -> str:
    """The documented crawl-cache file name for a title or search string."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:24] + ".json"


def random_adjacency(rng: random.Random, n_nodes: int, edge_prob: float) -> dict[str, list[str]]:
    """Random directed graph without self-loops or duplicate edges."""
    names = [f"n{i:03d}" for i in range(n_nodes)]
    adjacency = {name: [] for name in names}
    for u in names:
        for v in names:
            if u != v and rng.random() < edge_prob:
                adjacency[u].append(v)
    return adjacency


@pytest.fixture
def rng():
    return random.Random(20260809)
