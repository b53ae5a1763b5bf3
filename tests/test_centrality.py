"""Centrality scores against independent brute-force oracles."""

import random

import numpy as np
import pytest

from wikiqe.centrality import PageRankParams, build_table, closeness, degree, pagerank, ranked_prefix

from conftest import make_subgraph, random_adjacency


# ---------------------------------------------------------------------------
# oracles (kept deliberately independent of the library implementations)
# ---------------------------------------------------------------------------

def oracle_degree(adjacency):
    """Count outgoing edges straight off an explicit edge list."""
    edges = [(u, v) for u, targets in adjacency.items() for v in targets]
    counts = {node: 0 for node in adjacency}
    for u, _ in edges:
        counts[u] += 1
    return counts


def oracle_closeness(adjacency):
    """Harmonic closeness from Floyd-Warshall all-pairs distances."""
    nodes = list(adjacency)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, targets in adjacency.items():
        for v in targets:
            dist[index[u]][index[v]] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return {
        u: sum(1.0 / dist[index[u]][j] for j in range(n) if j != index[u] and dist[index[u]][j] < inf)
        for u in nodes
    }


def oracle_pagerank(adjacency, params: PageRankParams):
    """Dense power iteration on the explicit column-stochastic matrix."""
    nodes = list(adjacency)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    matrix = np.zeros((n, n))
    for u, targets in adjacency.items():
        if targets:
            for v in targets:
                matrix[index[v], index[u]] += 1.0 / len(targets)
        else:
            matrix[:, index[u]] = 1.0 / n
    r = np.full(n, 1.0 / n)
    for _ in range(params.max_iterations):
        nxt = params.damping * matrix.dot(r) + (1.0 - params.damping) / n
        if np.abs(nxt - r).sum() < params.tolerance:
            r = nxt
            break
        r = nxt
    return {v: float(r[index[v]]) for v in nodes}


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------

def test_degree_simple_fanout():
    sub = make_subgraph({"a": ["b", "c"]})
    assert degree(sub) == {"a": 2, "b": 0, "c": 0}


def test_degree_sink_is_zero():
    sub = make_subgraph({"a": ["b"], "b": []})
    assert degree(sub)["b"] == 0


def test_degree_complete_digraph_on_four_nodes():
    names = ["a", "b", "c", "d"]
    sub = make_subgraph({u: [v for v in names if v != u] for u in names})
    assert all(d == 3 for d in degree(sub).values())


# ---------------------------------------------------------------------------
# closeness
# ---------------------------------------------------------------------------

def test_closeness_star_center():
    sub = make_subgraph({"c": ["x", "y", "z"]})
    scores = closeness(sub)
    assert scores["c"] == pytest.approx(3.0)
    assert scores["x"] == 0.0


def test_closeness_two_step_path():
    sub = make_subgraph({"a": ["b"], "b": ["c"]})
    assert closeness(sub)["a"] == pytest.approx(1.5)


def test_closeness_matches_oracle_on_random_dag(rng):
    # Random DAG: edges only from lower to higher ids.
    names = [f"n{i:02d}" for i in range(20)]
    adjacency = {u: [] for u in names}
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < 0.2:
                adjacency[u].append(v)
    sub = make_subgraph(adjacency)
    expected = oracle_closeness(adjacency)
    actual = closeness(sub)
    for node in names:
        assert actual[node] == pytest.approx(expected[node], abs=1e-12)


# ---------------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------------

def test_pagerank_two_node_cycle_splits_evenly():
    sub = make_subgraph({"a": ["b"], "b": ["a"]})
    result = pagerank(sub)
    assert result.scores["a"] == pytest.approx(0.5, abs=1e-9)
    assert result.scores["b"] == pytest.approx(0.5, abs=1e-9)
    assert result.converged


def test_pagerank_single_node():
    sub = make_subgraph({"solo": []})
    result = pagerank(sub)
    assert result.scores == {"solo": pytest.approx(1.0)}


def test_pagerank_matches_dense_oracle_on_fixture_graph():
    adjacency = {
        "a": ["b", "c"], "b": ["c", "d"], "c": ["a"], "d": ["e", "f"],
        "e": [], "f": ["a", "g"], "g": ["h"], "h": ["f", "i"], "i": [], "j": ["a"],
    }
    sub = make_subgraph(adjacency)
    params = PageRankParams()
    expected = oracle_pagerank(adjacency, params)
    actual = pagerank(sub, params).scores
    for node in adjacency:
        assert actual[node] == pytest.approx(expected[node], abs=1e-6)


def test_pagerank_sums_to_one_on_random_graphs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 200)
        adjacency = random_adjacency(rng, n, rng.choice([0.01, 0.05, 0.3]))
        total = sum(pagerank(make_subgraph(adjacency)).scores.values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pagerank_nonconvergence_flag():
    sub = make_subgraph({"a": ["b"], "b": []})
    result = pagerank(sub, PageRankParams(tolerance=1e-15, max_iterations=3))
    assert not result.converged
    assert result.iterations == 3
    assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_rejects_bad_params():
    with pytest.raises(ValueError):
        PageRankParams(damping=1.0)
    with pytest.raises(ValueError):
        PageRankParams(max_iterations=0)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def full_ranking(scores):
    """Every title of ``scores``, ranked: the longest prefix ``ranked_prefix`` gives."""
    return ranked_prefix(scores, len(scores))


def test_table_star_graph_puts_center_first():
    sub = make_subgraph({"m": ["a", "b", "c"]})
    table = build_table(sub)
    assert full_ranking(table.degree)[0] == "m"
    assert full_ranking(table.closeness)[0] == "m"


def test_table_isolated_nodes_sort_lexicographically():
    sub = make_subgraph({"zeta": [], "beta": [], "alpha": []})
    table = build_table(sub)
    expected = ["alpha", "beta", "zeta"]
    assert full_ranking(table.degree) == expected
    assert full_ranking(table.closeness) == expected
    assert full_ranking(table.pagerank) == expected


def test_table_lists_equal_oracle_sorting_of_oracle_scores(rng):
    adjacency = random_adjacency(rng, 30, 0.1)
    sub = make_subgraph(adjacency)
    table = build_table(sub)

    def oracle_sort(scores):
        return sorted(scores, key=lambda v: (-scores[v], v))

    assert full_ranking(table.degree) == oracle_sort(oracle_degree(adjacency))
    assert full_ranking(table.closeness) == oracle_sort(oracle_closeness(adjacency))
    assert full_ranking(table.pagerank) == oracle_sort(oracle_pagerank(adjacency, PageRankParams()))


def test_relabeling_nodes_permutes_scores(rng):
    adjacency = random_adjacency(rng, 25, 0.15)
    rename = {name: f"x-{name[::-1]}" for name in adjacency}
    renamed = {rename[u]: [rename[v] for v in vs] for u, vs in adjacency.items()}
    base = build_table(make_subgraph(adjacency))
    remapped = build_table(make_subgraph(renamed))
    for node in adjacency:
        assert base.degree[node] == remapped.degree[rename[node]]
        assert base.closeness[node] == pytest.approx(remapped.closeness[rename[node]], abs=1e-12)
        assert base.pagerank[node] == pytest.approx(remapped.pagerank[rename[node]], abs=1e-9)


def test_lists_are_deterministic(rng):
    adjacency = random_adjacency(rng, 40, 0.08)
    first = build_table(make_subgraph(adjacency))
    second = build_table(make_subgraph(adjacency))
    for name in ("degree", "closeness", "pagerank"):
        assert full_ranking(getattr(first, name)) == full_ranking(getattr(second, name))


def test_csv_dump_has_stable_columns():
    sub = make_subgraph({"hub, the": ["leaf"]})
    text = build_table(sub).to_csv()
    lines = text.splitlines()
    assert lines[0] == "title,degree,closeness,pagerank"
    assert lines[1].startswith('"hub, the",1,')
    assert len(lines) == 3
