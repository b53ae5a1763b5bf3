"""Concept graph construction, subgraph isolation and serialization."""

import random

import pytest

from wikiqe.graph import GraphError, OntologyGraph, normalize_title

from conftest import random_adjacency


# ---------------------------------------------------------------------------
# title normalization
# ---------------------------------------------------------------------------

def test_normalize_basic_forms():
    assert normalize_title("Substance_abuse") == "substance abuse"
    assert normalize_title("Alcohol%20and%20health") == "alcohol and health"
    assert normalize_title("Alcoholism#Causes") == "alcoholism"
    assert normalize_title("  Binge   drinking ") == "binge drinking"


def test_normalize_is_idempotent():
    samples = [
        "Alcohol_consumption_by_youth_in_the_United_States",
        "100%25_Design",
        "C%2B%2B_(programming_language)",
        "Java (programming language)",
        "café OLE",
        # nine levels of percent-encoding; decoding used to stop after eight
        "%" + "25" * 9 + "41",
    ]
    for raw in samples:
        once = normalize_title(raw)
        assert normalize_title(once) == once


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_title("#fragment-only")


# ---------------------------------------------------------------------------
# add_page
# ---------------------------------------------------------------------------

def test_single_root_no_links():
    graph = OntologyGraph(["alcoholism"], hop_bound=3)
    graph.add_page("alcoholism", [], hop=0)
    assert graph.node_count == 1
    assert graph.edge_count == 0
    assert graph.hop("alcoholism") == 0


def test_two_level_insertion():
    graph = OntologyGraph(["a"], hop_bound=3)
    graph.add_page("a", ["b", "c"], hop=0)
    graph.add_page("b", ["c"], hop=1)
    assert graph.node_count == 3
    assert graph.edge_count == 3
    assert graph.hop("b") == 1
    assert graph.hop("c") == 1


def test_re_adding_is_idempotent():
    graph = OntologyGraph(["a"], hop_bound=3)
    graph.add_page("a", ["b", "c"], hop=0)
    before = (graph.node_count, graph.edge_count, graph.dumps())
    graph.add_page("a", ["b", "c"], hop=0)
    assert (graph.node_count, graph.edge_count, graph.dumps()) == before
    # Re-adding with other links appends only the ones the page lacks.
    graph.add_page("a", ["c", "d", "b", "d"], hop=0)
    assert graph.outlinks("a") == ["b", "c", "d"]
    assert graph.edge_count == 3


def test_duplicate_and_self_links_collapse():
    graph = OntologyGraph(["a"], hop_bound=3)
    graph.add_page("a", ["b", "b", "a", "b"], hop=0)
    assert graph.edge_count == 1
    assert graph.outlinks("a") == ["b"]


def test_rejects_hop_past_bound():
    graph = OntologyGraph(["a"], hop_bound=2)
    with pytest.raises(GraphError):
        graph.add_page("deep", [], hop=3)
    with pytest.raises(GraphError):
        graph.add_page("edge-at-bound", ["overflow"], hop=2)


def test_hop_decrease_propagates_to_descendants():
    graph = OntologyGraph(["r", "s"], hop_bound=3)
    # First discover c via a long path from s, then a short path from r.
    graph.add_page("s", ["b"], hop=0)
    graph.add_page("b", ["c"], hop=1)
    assert graph.hop("c") == 2
    graph.add_page("r", ["c"], hop=0)
    assert graph.hop("c") == 1


def test_hops_match_fresh_bfs_on_random_graphs(rng):
    # Oracle: multi-source BFS over the final edge set.
    for trial in range(25):
        adjacency = random_adjacency(rng, rng.randint(2, 30), 0.15)
        names = list(adjacency)
        roots = rng.sample(names, rng.randint(1, min(3, len(names))))
        graph = OntologyGraph(roots, hop_bound=len(names) + 1)
        # Insert pages in BFS order from the roots, as a crawl would.
        frontier = list(graph.roots)
        seen = set(frontier)
        while frontier:
            page = frontier.pop(0)
            graph.add_page(page, adjacency.get(page, []), graph.hop(page))
            for nxt in adjacency.get(page, []):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

        expected = {root: 0 for root in graph.roots}
        queue = list(graph.roots)
        while queue:
            node = queue.pop(0)
            for nxt in graph.outlinks(node):
                if nxt not in expected:
                    expected[nxt] = expected[node] + 1
                    queue.append(nxt)
        assert graph.nodes == expected, f"trial {trial}"


# ---------------------------------------------------------------------------
# isolate_subgraph
# ---------------------------------------------------------------------------

def build_graph(edges: dict[str, list[str]], roots: list[str], hop_bound=10) -> OntologyGraph:
    graph = OntologyGraph(roots, hop_bound=hop_bound)
    order = list(roots) + [n for n in edges if n not in roots]
    for node in order:
        hop = graph.hop(node) if node in graph else hop_bound - 1
        graph.add_page(node, edges.get(node, []), hop)
    return graph


def test_isolate_reachability():
    graph = build_graph({"a": ["b"], "b": ["c"], "x": ["y"]}, roots=["a", "x"])
    sub = graph.isolate_subgraph("a")
    assert set(sub.nodes) == {"a", "b", "c"}
    assert sub.graph_degree == 2


def test_isolate_sink_node():
    graph = build_graph({"x": ["y"]}, roots=["x"])
    sub = graph.isolate_subgraph("y")
    assert sub.nodes == ("y",)
    assert sub.graph_degree == 0


def test_isolate_terminates_on_cycle():
    graph = build_graph({"a": ["b"], "b": ["a"]}, roots=["a"])
    sub = graph.isolate_subgraph("a")
    assert set(sub.nodes) == {"a", "b"}
    assert sub.graph_degree == 2


def test_isolate_unknown_root_names_concept():
    graph = build_graph({"a": ["b"]}, roots=["a"])
    with pytest.raises(GraphError, match="ghost"):
        graph.isolate_subgraph("ghost")


# ---------------------------------------------------------------------------
# select_best_concept
# ---------------------------------------------------------------------------

def test_select_highest_degree_root():
    graph = build_graph(
        {"r1": ["a", "b"], "a": ["b", "c"], "b": ["c"], "r2": ["z"], "z": ["w"]},
        roots=["r1", "r2"],
    )
    assert graph.select_best_concept().root == "r1"


def test_select_tie_prefers_earlier_root():
    graph = build_graph({"r1": ["a"], "r2": ["b"]}, roots=["r1", "r2"])
    assert graph.select_best_concept().root == "r1"


def test_select_single_root():
    graph = build_graph({"only": ["x"]}, roots=["only"])
    assert graph.select_best_concept().root == "only"


def test_select_beats_every_other_root_brute_force(rng):
    for _ in range(20):
        adjacency = random_adjacency(rng, rng.randint(3, 50), 0.1)
        names = list(adjacency)
        roots = rng.sample(names, rng.randint(2, min(6, len(names))))
        graph = OntologyGraph(roots, hop_bound=len(names) + 1)
        for node in names:
            hop = graph.hop(node) if node in graph else 1
            graph.add_page(node, adjacency[node], hop)
        best = graph.select_best_concept()
        for root in graph.roots:
            assert best.graph_degree >= graph.isolate_subgraph(root).graph_degree
        # The winner has the most edges (ties: the earlier root), and the
        # result is exactly its closure.
        ranked = sorted(
            (-graph.isolate_subgraph(root).graph_degree, position, root)
            for position, root in enumerate(graph.roots)
        )
        winner = graph.isolate_subgraph(ranked[0][2])
        assert (best.root, best.nodes, best.adjacency) == (
            winner.root, winner.nodes, winner.adjacency
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_round_trip_is_bit_exact():
    graph = build_graph(
        {"alcoholism": ["ethanol", "substance abuse"], "ethanol": ["alcohol (drug)"]},
        roots=["alcoholism"],
        hop_bound=3,
    )
    text = graph.dumps()
    clone = OntologyGraph.loads(text, hop_bound=3)
    assert clone.dumps() == text
    assert clone.roots == graph.roots
    assert clone.nodes == graph.nodes


def test_round_trip_random_graphs(rng):
    for _ in range(10):
        adjacency = random_adjacency(rng, rng.randint(2, 25), 0.2)
        names = list(adjacency)
        graph = OntologyGraph([names[0]], hop_bound=len(names) + 1)
        for node in names:
            hop = graph.hop(node) if node in graph else 1
            graph.add_page(node, adjacency[node], hop)
        text = graph.dumps()
        assert OntologyGraph.loads(text).dumps() == text


def test_loads_rejects_malformed_lines():
    with pytest.raises(GraphError, match="fields"):
        OntologyGraph.loads("only-one-field\n")
    with pytest.raises(GraphError, match="hop"):
        OntologyGraph.loads("title\tnot-a-number\t\n")


@pytest.mark.parametrize("text, hop_bound, message", [
    # a link to a title without a record used to load, then crash later
    # in select_best_concept with KeyError
    ("a\t0\tb|ghost\nb\t1\t\n", None, r"line 1: link to 'ghost', which has no record"),
    ("a\t0\tb\nb\t5\t\n", 3, "line 2: hop 5 exceeds bound 3"),
    ("a\t0\tb\nb\t-1\t\n", None, "line 2: negative hop -1"),
    # a hop longer than the shortest path used to load unchecked
    ("a\t0\tb\nb\t7\t\n", None, "line 2: 'b' at hop 7, but 'a' at hop 0 links to it"),
])
def test_loads_rejects_inconsistent_records(text, hop_bound, message):
    with pytest.raises(GraphError, match=message):
        OntologyGraph.loads(text, hop_bound=hop_bound)


def test_reserved_characters_rejected():
    graph = OntologyGraph(["a"], hop_bound=2)
    with pytest.raises(GraphError):
        graph.add_page("a", ["bad|title"], hop=0)


# Every line boundary of str.splitlines, which loads uses to split records.
@pytest.mark.parametrize(
    "char", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_line_boundaries_in_titles_rejected(char):
    assert len(f"b{char}c".splitlines()) == 2
    graph = OntologyGraph(["a"], hop_bound=2)
    with pytest.raises(GraphError, match="reserved character"):
        graph.add_page("a", [f"b{char}c"], hop=0)
    with pytest.raises(GraphError, match="reserved character"):
        OntologyGraph([f"b{char}c"])
    assert graph.dumps() == "a\t0\t\n"
