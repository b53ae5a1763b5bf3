"""Property tests: Borda permutation invariance, normalize_url idempotence,
graph dumps/loads round-trip, add_page invariants and the normalize_title
fixpoint."""

from collections import deque

import pytest

from wikiqe.expand import borda_combine
from wikiqe.fusion import normalize_url
from wikiqe.graph import GraphError, OntologyGraph, normalize_title

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=100, deadline=None)

ranked_lists = st.lists(st.lists(st.sampled_from("abcdefgh"), unique=True), min_size=1, max_size=6)


@settings
@hypothesis.given(st.data())
def test_borda_ignores_list_order(data):
    lists = data.draw(ranked_lists)
    shuffled = data.draw(st.permutations(lists))
    assert borda_combine(shuffled) == borda_combine(lists)


@st.composite
def urls(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "Https"]))
    host = draw(st.from_regex(r"[A-Za-z0-9]{1,8}(\.[A-Za-z0-9]{1,8}){0,2}", fullmatch=True))
    port = draw(st.one_of(st.none(), st.sampled_from([80, 443, 8080]), st.integers(0, 65535)))
    user = draw(st.one_of(st.none(), st.from_regex(r"[a-z]{1,5}(:[a-z0-9]{1,5})?", fullmatch=True)))
    path = draw(st.from_regex(r"(/[A-Za-z0-9%._~-]{0,8}){0,3}", fullmatch=True))
    query = draw(st.from_regex(r"(\?[a-z0-9=&]{0,10})?", fullmatch=True))
    fragment = draw(st.from_regex(r"(#[a-z0-9]{0,6})?", fullmatch=True))
    netloc = (f"{user}@" if user else "") + host + (f":{port}" if port is not None else "")
    return f"{scheme}://{netloc}{path}{query}{fragment}"


@settings
@hypothesis.given(urls())
def test_normalize_url_is_idempotent(url):
    once = normalize_url(url)
    assert normalize_url(once) == once


@settings
@hypothesis.given(st.text())
def test_normalize_title_is_a_fixpoint(raw):
    try:
        once = normalize_title(raw)
    except ValueError:
        return
    assert normalize_title(once) == once


def _title_or_none(raw):
    try:
        return normalize_title(raw)
    except ValueError:
        return None


titles = st.text(max_size=12).map(_title_or_none).filter(lambda t: t and "|" not in t)


@st.composite
def crawl_graphs(draw):
    """A graph built the way a crawl builds it: breadth-first from the
    roots, pages at the hop bound kept as leaves."""
    names = draw(st.lists(titles, min_size=1, max_size=25, unique=True))
    adjacency = {
        name: draw(st.lists(st.sampled_from(names), max_size=5)) for name in names
    }
    roots = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    hop_bound = draw(st.integers(1, 4))
    graph = OntologyGraph(roots, hop_bound=hop_bound)
    queue, seen = deque(roots), set(roots)
    while queue:
        page = queue.popleft()
        hop = graph.hop(page)
        links = adjacency[page] if hop < hop_bound else []
        graph.add_page(page, links, hop)
        for target in links:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return graph


@settings
@hypothesis.given(crawl_graphs())
def test_dumps_loads_round_trip(graph):
    text = graph.dumps()
    clone = OntologyGraph.loads(text, hop_bound=graph.hop_bound)
    assert clone.dumps() == text
    assert clone.roots == graph.roots
    assert clone.nodes == graph.nodes


@st.composite
def add_page_sequences(draw):
    """Roots, a hop bound and valid add_page calls in any order: pages
    repeat, links repeat or point back at the page, and a page at the hop
    bound has no links."""
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, unique=True))
    roots = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    hop_bound = draw(st.integers(1, 4))
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        page = draw(st.sampled_from(names))
        hop = draw(st.integers(0 if page in roots else 1, hop_bound))
        links = [] if hop == hop_bound else draw(st.lists(st.sampled_from(names), max_size=6))
        calls.append((page, links, hop))
    return roots, hop_bound, calls


@settings
@hypothesis.given(add_page_sequences())
# b gets its link at hop 2 and only then drops to hop 1, so c must follow.
@hypothesis.example((["r"], 3, [("b", ["c"], 2), ("r", ["b", "b", "r"], 0)]))
def test_add_page_keeps_hops_consistent_and_edges_distinct(sequence):
    roots, hop_bound, calls = sequence
    graph = OntologyGraph(roots, hop_bound=hop_bound)
    expected: dict[str, list[str]] = {}
    for page, links, hop in calls:
        graph.add_page(page, links, hop)
        known = expected.setdefault(page, [])
        known.extend(t for t in dict.fromkeys(links) if t != page and t not in known)
    assert all(graph.hop(root) == 0 for root in roots)
    for page in graph.nodes:
        assert graph.outlinks(page) == expected.get(page, [])
        assert all(graph.hop(t) <= graph.hop(page) + 1 for t in graph.outlinks(page))
    assert graph.edge_count == len({(p, t) for p, links, _ in calls for t in links if t != p})
    text = graph.dumps()
    clone = OntologyGraph.loads(text, hop_bound=hop_bound)
    assert clone.dumps() == text
    assert clone.nodes == graph.nodes


@settings
@hypothesis.given(crawl_graphs(), st.data())
def test_loads_rejects_a_lengthened_hop(graph, data):
    lines = graph.dumps().splitlines()
    linked = [i for i, line in enumerate(lines) if line.split("\t")[1] != "0"]
    hypothesis.assume(linked)
    i = data.draw(st.sampled_from(linked))
    title, hop, links = lines[i].split("\t")
    lines[i] = f"{title}\t{int(hop) + 1}\t{links}"
    with pytest.raises(GraphError, match=f"line {i + 1}: "):
        OntologyGraph.loads("\n".join(lines) + "\n")
