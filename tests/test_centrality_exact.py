"""Bit-exactness of the centrality kernels against frozen reference copies,
plus differential checks against networkx.

``reference_closeness`` and ``reference_pagerank`` are the original
per-node BFS and dict-based power iteration, kept verbatim but for their
sums, spelled out as each kernel's one summation rule: closeness adds left
to right, the loop the builtin ``sum`` ran before CPython 3.12 (3.12
compensates it), and PageRank's dangling mass and L1 change are
``math.fsum``, correctly rounded on every release. The library kernels
must return ``==`` scores (same floats, same dict order, same int 0 for
leaves) and the same PageRank ``converged``/``iterations``; the pinned
digests check that every release gives the same bits.

The references walk an adjacency mapping taken from the parent graph's
``outlinks`` or from the test's own dict, never from ``subgraph.targets``,
so a numbering bug in the kernels' input cannot agree with itself.
"""

import hashlib
import random
from collections import deque
from itertools import chain, repeat
from math import fsum

import pytest

from wikiqe.centrality import PageRankParams, _times, build_table, closeness, pagerank

from conftest import fixture_root_subgraphs, make_subgraph, random_adjacency
from reference_links import benchmark_gen
from test_acceptance import crawl_shaped_graph


# ---------------------------------------------------------------------------
# frozen references (do not optimise: they define the expected bits)
# ---------------------------------------------------------------------------

def reference_closeness(subgraph, adjacency):
    scores = {}
    for source in subgraph.nodes:
        dist = _reference_bfs(adjacency, source)
        # Left to right in BFS order, from int 0: closeness's one summation rule.
        total = 0
        for node, d in dist.items():
            if node != source:
                total = total + 1.0 / d
        scores[source] = total
    return scores


def _reference_bfs(adjacency, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def reference_pagerank(subgraph, adjacency, params):
    nodes = subgraph.nodes
    n = len(nodes)
    d = params.damping
    rank = {node: 1.0 / n for node in nodes}
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        dangling = fsum(rank[u] for u in nodes if not adjacency[u])
        base = (1.0 - d) / n + d * dangling / n
        nxt = {node: base for node in nodes}
        for u in nodes:
            out = adjacency[u]
            if out:
                share = d * rank[u] / len(out)
                for v in out:
                    nxt[v] += share
        delta = fsum(abs(nxt[node] - rank[node]) for node in nodes)
        rank = nxt
        if delta < params.tolerance:
            converged = True
            break
    return rank, converged, iterations


def parent_adjacency(graph, subgraph):
    """Each closure node's outlinks as the parent graph lists them."""
    return {node: graph.outlinks(node) for node in subgraph.nodes}


def with_sinks(adjacency):
    """A test's own adjacency dict with every link target as a key."""
    return {**{t: [] for out in adjacency.values() for t in out}, **adjacency}


def assert_bit_exact(subgraph, adjacency, params=None):
    params = params or PageRankParams()
    expected = reference_closeness(subgraph, adjacency)
    actual = closeness(subgraph)
    assert actual == expected
    assert list(actual) == list(expected)
    assert [type(v) for v in actual.values()] == [type(v) for v in expected.values()]
    scores, converged, iterations = reference_pagerank(subgraph, adjacency, params)
    result = pagerank(subgraph, params)
    assert result.scores == scores
    assert list(result.scores) == list(scores)
    assert (result.converged, result.iterations) == (converged, iterations)


# ---------------------------------------------------------------------------
# bit-exactness
# ---------------------------------------------------------------------------

def test_leaves_score_int_zero():
    adjacency = {"hub": ["a", "b"], "a": ["b"], "loop": ["loop"]}
    sub = make_subgraph(adjacency)
    scores = closeness(sub)
    assert scores["b"] == 0 and type(scores["b"]) is int
    # a node whose only link is to itself reaches nothing else either
    assert scores["loop"] == 0 and type(scores["loop"]) is int
    assert type(scores["hub"]) is float
    assert_bit_exact(sub, with_sinks(adjacency))


def test_bit_exact_on_crawl_shaped_graph():
    graph = crawl_shaped_graph()
    for root in graph.roots:
        sub = graph.isolate_subgraph(root)
        assert_bit_exact(sub, parent_adjacency(graph, sub))
    best = graph.select_best_concept()
    adjacency = parent_adjacency(graph, best)
    table = build_table(best)
    assert table.closeness == reference_closeness(best, adjacency)
    assert table.pagerank == reference_pagerank(best, adjacency, PageRankParams())[0]


def test_bit_exact_on_fixture_queries():
    for graph, sub, pagerank_params in fixture_root_subgraphs():
        assert_bit_exact(sub, parent_adjacency(graph, sub), pagerank_params)


def closeness_digest(subgraphs):
    """sha256 of every closeness score's float.hex, in node order."""
    digest = hashlib.sha256()
    for sub in subgraphs:
        for node, score in closeness(sub).items():
            digest.update(f"{node}\t{float(score).hex()}\n".encode("utf-8"))
    return digest.hexdigest()


def pagerank_digest(closures):
    """sha256 of every PageRank score's float.hex, in node order, then of its
    iterations and converged, over ``(subgraph, params)`` pairs."""
    digest = hashlib.sha256()
    for sub, params in closures:
        result = pagerank(sub, params)
        for node, score in result.scores.items():
            digest.update(f"{node}\t{score.hex()}\n".encode("utf-8"))
        digest.update(f"{result.iterations}\t{result.converged}\n".encode("utf-8"))
    return digest.hexdigest()


# Both kernels add their floats one way on every release, so every release
# must give these bits. Closeness over the 42 fixture-root closures:
FIXTURE_CLOSENESS_SHA256 = "0d083d40475a22ce440709fde8c804a63c7cb0087ef52b36e4aa9cbbfed66308"
# PageRank over the 42 fixture-root closures and the roots of crawl_shaped_graph():
PAGERANK_SHA256 = "b003b60b0ebc425a39b0aaf048a50fbf25aea1c8ef0b381d02d76b0da949ec65"
# Both over the best subgraphs of the qe-synthetic benchmark graphs of
# variants 0-3 at 2,500, 5,000 and 10,000 nodes, built as the benchmark does:
BENCHMARK_CLOSENESS_SHA256 = "5e0d2dfd57119fd255b0e6151d0910acd324fea6776cd258579ff84831167a8d"
BENCHMARK_PAGERANK_SHA256 = "27848d69f80cff97737c3735275fa002c02f8fe3741706a7deedbe86ed3b9500"
# Both over the best subgraph of the variant-1 qe-synthetic graph at 50,000
# nodes (39,128 nodes, 38,005 of them leaves with one in-link):
BENCHMARK_50K_CLOSENESS_SHA256 = "5c9be905ff10dc7c7a698bbcc5be74f86379e2e23feaaa41b8fc66213beecf8a"
BENCHMARK_50K_PAGERANK_SHA256 = "f4ba4bce326fa6687bc149eb669550beb8575291777906b0d6f46759cd17afdf"


def test_closeness_bits_are_pinned_across_releases():
    assert closeness_digest(sub for _, sub, _ in fixture_root_subgraphs()) == FIXTURE_CLOSENESS_SHA256


def test_pagerank_bits_are_pinned_across_releases():
    graph = crawl_shaped_graph()
    closures = [*((sub, params) for _, sub, params in fixture_root_subgraphs()),
                *((graph.isolate_subgraph(root), PageRankParams()) for root in graph.roots)]
    assert pagerank_digest(closures) == PAGERANK_SHA256


def test_benchmark_graph_bits_are_pinned_across_releases():
    gen = benchmark_gen()
    best = [gen.concept_graph(random.Random(f"qe-{variant}-{size}"), size)[0].select_best_concept()
            for variant in range(4) for size in (2_500, 5_000, 10_000)]
    assert closeness_digest(best) == BENCHMARK_CLOSENESS_SHA256
    assert pagerank_digest((sub, PageRankParams()) for sub in best) == BENCHMARK_PAGERANK_SHA256


def test_benchmark_50k_bits_are_pinned_across_releases():
    gen = benchmark_gen()
    best = gen.concept_graph(random.Random("qe-1-50000"), 50_000)[0].select_best_concept()
    assert len(best.nodes) == 39_128
    assert closeness_digest([best]) == BENCHMARK_50K_CLOSENESS_SHA256
    assert pagerank_digest([(best, PageRankParams())]) == BENCHMARK_50K_PAGERANK_SHA256


def test_bit_exact_on_random_cyclic_and_disconnected_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 90))
        names = [f"v{i}" for i in range(n)]
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        adjacency = {name: [] for name in draw(st.permutations(names))}
        for u, v in edges:  # self-links and repeats kept: the kernels must agree anyway
            adjacency[names[u]].append(names[v])
        return adjacency

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        graphs(),
        st.sampled_from([1e-15, 1e-8, 1e-3]),
        st.integers(1, 60),
    )
    def check(adjacency, tolerance, max_iterations):
        sub = make_subgraph(adjacency)
        assert_bit_exact(sub, adjacency, PageRankParams(tolerance=tolerance, max_iterations=max_iterations))

    check()


# ---------------------------------------------------------------------------
# PageRank's tails: leaves with one in-link, one value and a count per parent
# ---------------------------------------------------------------------------

def test_star_makes_one_tail_group_with_a_large_count():
    adjacency = {"hub": [f"leaf {i}" for i in range(5_000)]}
    assert_bit_exact(make_subgraph(adjacency), with_sinks(adjacency))


def test_leaf_listed_twice_by_one_parent_is_no_tail():
    # "twice" has two in-links, both from "p", and is iterated; "once" is
    # p's one tail.
    adjacency = {"root": ["p", "q"], "p": ["twice", "once", "twice"], "q": ["p"]}
    sub = make_subgraph(adjacency)
    assert sub.targets[sub.nodes.index("p")].count(sub.nodes.index("twice")) == 2
    assert_bit_exact(sub, with_sinks(adjacency))


def test_leaf_linked_from_two_parents_is_no_tail():
    adjacency = {"root": ["a", "b"], "a": ["shared", "x", "y"], "b": ["z", "shared"]}
    assert_bit_exact(make_subgraph(adjacency), with_sinks(adjacency))


@pytest.mark.parametrize("adjacency", [{"solo": []}, {"loop": ["loop"]}])
def test_single_node_and_only_self_link(adjacency):
    assert_bit_exact(make_subgraph(adjacency), adjacency)


def test_cycle_has_no_tails():
    adjacency = {"a": ["b"], "b": ["c"], "c": ["d", "a"], "d": ["a"]}
    for params in (PageRankParams(), PageRankParams(tolerance=1e-15, max_iterations=7)):
        assert_bit_exact(make_subgraph(adjacency), adjacency, params)


def test_times_sums_a_value_count_multiset_exactly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # [0, 1], with 0, the subnormals and the smallest normal drawn often.
    values = st.one_of(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 ** -1022),
        st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0]),
    )

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.lists(values, max_size=8),
        st.lists(st.tuples(values, st.integers(0, 2 ** 20)), max_size=4),
    )
    def check(kept, groups):
        tails = [value for value, _ in groups]
        counts = [count for _, count in groups]
        expected = fsum(chain(kept, chain.from_iterable(map(repeat, tails, counts))))
        assert fsum(chain(kept, _times(tails, counts))).hex() == expected.hex()

    check()


# ---------------------------------------------------------------------------
# networkx as an independent oracle
# ---------------------------------------------------------------------------

def _nx_graphs():
    rng = random.Random(11)
    for n, p in ((1, 0.0), (12, 0.0), (40, 0.03), (60, 0.08), (80, 0.2)):
        yield random_adjacency(rng, n, p)
    small = crawl_shaped_graph(n_target=600, branching=8, seed=5)
    yield parent_adjacency(small, small.select_best_concept())


def _to_networkx(nx, sub, adjacency):
    graph = nx.DiGraph()
    graph.add_nodes_from(sub.nodes)
    graph.add_edges_from((u, v) for u, out in adjacency.items() for v in out)
    return graph


def test_closeness_matches_networkx_harmonic_on_reversed_graph():
    nx = pytest.importorskip("networkx")
    for adjacency in _nx_graphs():
        sub = make_subgraph(adjacency)
        expected = nx.harmonic_centrality(_to_networkx(nx, sub, adjacency).reverse())
        actual = closeness(sub)
        for node in sub.nodes:
            # relative: networkx adds the same terms in another order, which
            # moves a score of ~160 by about 1e-12
            assert actual[node] == pytest.approx(expected[node], rel=1e-12, abs=1e-12)


def test_pagerank_matches_networkx_uniform_dangling():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")  # networkx's pagerank runs on scipy.sparse
    for adjacency in _nx_graphs():
        sub = make_subgraph(adjacency)
        expected = nx.pagerank(_to_networkx(nx, sub, adjacency), alpha=0.85, tol=1e-12, max_iter=1000)
        actual = pagerank(sub).scores
        for node in sub.nodes:
            assert actual[node] == pytest.approx(expected[node], abs=1e-6)
