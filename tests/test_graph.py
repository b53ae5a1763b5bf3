"""Concept graph construction, subgraph isolation and serialization."""

import random
import urllib.parse
from pathlib import Path

import pytest

from wikiqe import PageCache, RunConfig, WikiClient, WikiSource
from wikiqe.graph import _FORBIDDEN, GraphError, OntologyGraph, normalize_title
from wikiqe.text import benchmark_queries

from conftest import bfs_hops, random_adjacency
from reference_links import synthetic_wiki

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_casefold_keeps_a_round_without_percent_final():
    """What lets normalize_title stop after a round that leaves no "%":
    casefold maps each code point on its own, is idempotent on it, and
    never yields "%", "#", "_" or whitespace from any other code point."""
    special = {"%", "#", "_"}
    for code in range(0x110000):
        char = chr(code)
        folded = char.casefold()
        assert folded.casefold() == folded, hex(code)
        if char in special or char.isspace():
            continue
        assert not any(out in special or out.isspace() for out in folded), hex(code)


def test_pipe_is_the_one_reserved_character_a_normalized_title_keeps():
    """What lets ``WikiClient.page`` test a normalized link for "|" alone:
    every other reserved character is whitespace, which normalization
    collapses, raw or percent-encoded."""
    for char in _FORBIDDEN:
        for raw in (f"a{char}b", "a" + urllib.parse.quote(char) + "b"):
            assert _FORBIDDEN & set(normalize_title(raw)) <= {"|"}, repr(raw)


# ---------------------------------------------------------------------------
# add_page
# ---------------------------------------------------------------------------

def build_graph(edges: dict[str, list[str]], roots: list[str], hop_bound=10) -> OntologyGraph:
    """Add every page the roots reach, in breadth-first order, as a crawl does."""
    graph = OntologyGraph(roots, hop_bound=hop_bound)
    queue = list(graph.roots)
    for page in queue:
        queue.extend(graph.add_page(page, edges.get(page, []), graph.hop(page)))
    return graph


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


def test_add_page_returns_the_targets_it_adds_in_link_order():
    graph = OntologyGraph(["a", "r"], hop_bound=2)
    # Repeated links, the self-link and the link to the other root add nothing.
    assert graph.add_page("a", ["c", "b", "c", "a", "r", "b", "d"], hop=0) == ["c", "b", "d"]
    assert graph.add_page("r", ["b", "g", "b"], hop=0) == ["g"]
    # Links to existing nodes are edges, not new nodes.
    assert graph.add_page("b", ["b", "e", "a", "c", "e", "f"], hop=1) == ["e", "f"]
    assert graph.add_page("c", ["f", "b"], hop=1) == []
    assert graph.add_page("a", ["d", "h"], hop=0) == ["h"]
    assert graph.add_page("e", [], hop=2) == []
    assert graph.outlinks("c") == ["f", "b"]
    assert list(graph.nodes) == ["a", "r", "c", "b", "d", "g", "e", "f", "h"]


def test_rejects_hop_past_bound():
    graph = OntologyGraph(["a"], hop_bound=2)
    with pytest.raises(GraphError):
        graph.add_page("deep", [], hop=3)
    with pytest.raises(GraphError):
        graph.add_page("edge-at-bound", ["overflow"], hop=2)


def test_link_out_of_breadth_first_order_is_rejected():
    graph = OntologyGraph(["r", "s"], hop_bound=3)
    # c is reached first by a long path from s; r's shorter link comes too late.
    graph.add_page("s", ["b"], hop=0)
    graph.add_page("b", ["c"], hop=1)
    before = graph.dumps()
    with pytest.raises(GraphError, match="'c' at hop 2, but 'r' at hop 0 links to it"):
        graph.add_page("r", ["x", "c"], hop=0)
    assert graph.dumps() == before


@pytest.mark.parametrize("page, outlinks, hop, message", [
    ("a", ["b", "bad|x"], 0, "reserved character"),
    ("m", ["b", "bad\x85x"], 1, "reserved character"),
    ("ghost", [], 1, "'ghost' is not a node at hop 1"),
    ("m", ["b"], 0, "'m' is not a node at hop 0"),
    ("n", ["b"], 2, "'n' at hop 2 must be a leaf"),
    ("n", [], 1, "'n' is not a node at hop 1"),
    ("a", [], -1, "'a' is not a node at hop -1"),
    ("x", [], 3, "'x' is not a node at hop 3"),
    ("a", ["b", ""], 0, "empty concept title"),
    ("m", ["", "b"], 1, "empty concept title"),
    ("a", ["b", "n"], 0, "'n' at hop 2, but 'a' at hop 0 links to it"),
    ("a", ["n", "bad|x"], 0, "'n' at hop 2, but 'a' at hop 0 links to it"),
])
def test_rejected_add_page_changes_nothing(page, outlinks, hop, message):
    graph = OntologyGraph(["a"], hop_bound=2)
    graph.add_page("a", ["m"], hop=0)
    graph.add_page("m", ["n"], hop=1)
    before = graph.dumps()
    with pytest.raises(GraphError, match=message):
        graph.add_page(page, outlinks, hop)
    assert graph.dumps() == before


def test_hops_match_fresh_bfs_on_random_graphs(rng):
    for trial in range(25):
        adjacency = random_adjacency(rng, rng.randint(2, 30), 0.15)
        names = list(adjacency)
        roots = rng.sample(names, rng.randint(1, min(3, len(names))))
        graph = build_graph(adjacency, roots, hop_bound=len(names) + 1)
        assert graph.nodes == bfs_hops(graph), f"trial {trial}"


# ---------------------------------------------------------------------------
# isolate_subgraph
# ---------------------------------------------------------------------------

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


def test_targets_number_outlinks_by_node_position_once():
    graph = build_graph({"a": ["c", "b"], "b": ["a", "c"]}, roots=["a"])
    sub = graph.isolate_subgraph("a")
    assert sub.nodes == ("a", "c", "b")
    assert sub.targets == ((1, 2), (), (0, 1))


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


def test_select_isolates_each_root_once(monkeypatch):
    graph = build_graph({"r1": ["a"], "r2": ["a", "b"], "r3": ["r1"]}, roots=["r1", "r2", "r3"])
    isolated = []
    isolate_subgraph = OntologyGraph.isolate_subgraph

    def counting_isolate_subgraph(self, root):
        isolated.append(root)
        return isolate_subgraph(self, root)

    monkeypatch.setattr(OntologyGraph, "isolate_subgraph", counting_isolate_subgraph)
    best = graph.select_best_concept()
    assert isolated == ["r1", "r2", "r3"]
    # r2 and r3 tie at 2 edges; the earlier root wins.
    assert (best.root, best.nodes, best.graph_degree) == ("r2", ("r2", "a", "b"), 2)


def test_select_single_root():
    graph = build_graph({"only": ["x"]}, roots=["only"])
    assert graph.select_best_concept().root == "only"


def test_select_beats_every_other_root_brute_force(rng):
    for _ in range(20):
        adjacency = random_adjacency(rng, rng.randint(3, 50), 0.1)
        names = list(adjacency)
        roots = rng.sample(names, rng.randint(2, min(6, len(names))))
        graph = build_graph(adjacency, roots, hop_bound=len(names) + 1)
        best = graph.select_best_concept()
        for root in graph.roots:
            sub = graph.isolate_subgraph(root)
            assert best.graph_degree >= sub.graph_degree
            # Each row names, by position, exactly the parent's outlinks.
            for node, row in zip(sub.nodes, sub.targets, strict=True):
                assert [sub.nodes[j] for j in row] == graph.outlinks(node)
        # The winner has the most edges (ties: the earlier root), and the
        # result is exactly its closure.
        ranked = sorted(
            (-graph.isolate_subgraph(root).graph_degree, position, root)
            for position, root in enumerate(graph.roots)
        )
        winner = graph.isolate_subgraph(ranked[0][2])
        assert (best.root, best.nodes, best.targets) == (winner.root, winner.nodes, winner.targets)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def load_dump(text: str, hop_bound: int) -> OntologyGraph:
    """Feed a dump's records, in file order, back to add_page. Roots are the
    hop-0 records. A dump of a graph built in breadth-first order holds the
    whole graph, in an order add_page accepts."""
    records = [line.split("\t") for line in text.splitlines()]
    graph = OntologyGraph([title for title, hop, _ in records if hop == "0"], hop_bound=hop_bound)
    for title, hop, links in records:
        graph.add_page(title, links.split("|") if links else [], int(hop))
    return graph


def test_round_trip_is_bit_exact():
    graph = build_graph(
        {"alcoholism": ["ethanol", "substance abuse"], "ethanol": ["alcohol (drug)"]},
        roots=["alcoholism"],
        hop_bound=3,
    )
    text = graph.dumps()
    assert text == (
        "alcoholism\t0\tethanol|substance abuse\n"
        "ethanol\t1\talcohol (drug)\n"
        "substance abuse\t1\t\n"
        "alcohol (drug)\t2\t\n"
    )
    clone = load_dump(text, hop_bound=3)
    assert clone.dumps() == text
    assert clone.roots == graph.roots
    assert clone.nodes == graph.nodes


def test_round_trip_random_graphs(rng):
    for _ in range(10):
        adjacency = random_adjacency(rng, rng.randint(2, 25), 0.2)
        names = list(adjacency)
        graph = build_graph(adjacency, [names[0]], hop_bound=len(names) + 1)
        text = graph.dumps()
        assert load_dump(text, graph.hop_bound).dumps() == text
        # A page no link reaches is not a node, and adding it changes nothing.
        for name in names:
            if name not in graph.nodes:
                with pytest.raises(GraphError, match="not a node"):
                    graph.add_page(name, adjacency[name], 1)
        assert graph.dumps() == text


def crawl_graphs(tmp_path, wiki):
    """The graphs the CLI crawls: every fixture query from the snapshot, or
    every query of one crawl-synthetic wiki through its fake API."""
    crawl = RunConfig.load(FIXTURES / "config.json").crawl
    if wiki == "fixtures":
        source, queries = WikiSource(PageCache(FIXTURES / "snapshot")), benchmark_queries()
    else:
        wiki = synthetic_wiki(wiki)
        client = WikiClient(transport=wiki.transport, request_interval=0, sleep=lambda s: None)
        source, queries = WikiSource(PageCache(tmp_path), client), wiki.queries
    return [source.build_graph(query, crawl) for query in queries]


@pytest.mark.parametrize("wiki", ["fixtures", 0, 7, 15])
def test_crawl_graphs_round_trip_at_breadth_first_hops(tmp_path, wiki):
    for graph in crawl_graphs(tmp_path, wiki):
        text = graph.dumps()
        assert load_dump(text, graph.hop_bound).dumps() == text
        assert graph.nodes == bfs_hops(graph)


def test_reserved_characters_rejected():
    graph = OntologyGraph(["a"], hop_bound=2)
    with pytest.raises(GraphError):
        graph.add_page("a", ["bad|title"], hop=0)


# Every line boundary of str.splitlines, which would split a dump record.
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


@pytest.mark.parametrize("wiki", ["fixtures", 7])
def test_crawl_graphs_load_at_their_crawl_bound(tmp_path, wiki):
    """No hop in a crawl's dump passes the crawl's bound, and only pages
    below it have links."""
    for graph in crawl_graphs(tmp_path, wiki):
        text = graph.dumps()
        records = [line.split("\t") for line in text.splitlines()]
        assert all(int(hop) <= graph.hop_bound for _, hop, _ in records)
        assert all(not links for _, hop, links in records if int(hop) == graph.hop_bound)
        assert load_dump(text, graph.hop_bound).dumps() == text
