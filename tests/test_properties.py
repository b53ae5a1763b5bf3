"""Property tests: Borda permutation invariance, normalize_url idempotence,
graph dumps rebuilt through add_page, add_page invariants, the
normalize_title fixpoint and its agreement with the loop that ran a
confirming round."""

import urllib.parse
from collections import deque

import pytest

from wikiqe.expand import borda_combine
from wikiqe.fusion import normalize_url
from wikiqe.graph import GraphError, OntologyGraph, normalize_title

from conftest import bfs_hops

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
    host = draw(st.one_of(
        st.from_regex(r"[A-Za-z0-9]{1,8}(\.[A-Za-z0-9]{1,8}){0,2}", fullmatch=True),
        st.ip_addresses(v=6).map("[{}]".format),
    ))
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


def reference_normalize_title(title):
    """normalize_title as it was before it stopped on a round without "%":
    every call ran one more round to confirm the fixpoint (kept verbatim)."""
    text = title
    while True:
        prev = text
        text = urllib.parse.unquote(text)
        text = text.split("#", 1)[0]
        text = text.replace("_", " ")
        text = " ".join(text.split())
        text = text.casefold()
        if text == prev:
            break
    if not text:
        raise ValueError(f"title normalizes to empty string: {title!r}")
    return text


title_text = st.one_of(
    st.text(),
    st.text(st.sampled_from("%25%2A%5F%23_#  \t\u00a0\u2028aZß\u0130ﬁ")),
    st.lists(st.sampled_from(["%", "%25", "%2", "%41", "%5f", "%23", "%20", "%C3%9F", "%E2%80%A8",
                              "_", "#", " ", "A", "é", "ẞ"]))
    .map("".join),
)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(title_text)
def test_normalize_title_matches_the_confirming_loop(raw):
    try:
        expected = reference_normalize_title(raw)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            normalize_title(raw)
        assert str(raised.value) == str(exc)
        return
    assert normalize_title(raw) == expected


def _title_or_none(raw):
    try:
        return normalize_title(raw)
    except ValueError:
        return None


titles = st.text(max_size=12).map(_title_or_none).filter(lambda t: t and "|" not in t)


def crawl(roots, adjacency, hop_bound):
    """The graph a breadth-first crawl of ``adjacency`` from ``roots``
    builds, pages at the hop bound kept as leaves."""
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


def links_among(draw, names):
    return {name: draw(st.lists(st.sampled_from(names), max_size=5)) for name in names}


@st.composite
def crawl_graphs(draw):
    """A graph built the way a crawl builds it."""
    names = draw(st.lists(titles, min_size=1, max_size=25, unique=True))
    adjacency = links_among(draw, names)
    roots = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    return crawl(roots, adjacency, draw(st.integers(1, 4)))


@st.composite
def far_links(draw):
    """A crawl graph, a page below the hop bound and a node more than one
    hop past it. The first root links to a page that links to a third no
    root links to, at a hop bound of 2 or more: the third lands at hop 2,
    so every graph has such a pair and none is filtered out."""
    # Upper case, so that no drawn title, which is case-folded, equals one.
    root, near, far = "Root", "Near", "Far"
    others = draw(st.lists(titles, max_size=22, unique=True))
    adjacency = links_among(draw, [root, near, far, *others])
    roots = [root]
    if others:
        roots += draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    for page in roots:
        adjacency[page] = [target for target in adjacency[page] if target != far]
    adjacency[root].insert(0, near)
    adjacency[near].insert(0, far)
    graph = crawl(roots, adjacency, draw(st.integers(2, 4)))
    pairs = [
        (page, target)
        for page, hop in graph.nodes.items()
        if hop < graph.hop_bound
        for target, target_hop in graph.nodes.items()
        if target_hop > hop + 1
    ]
    return (graph, *draw(st.sampled_from(pairs)))


@settings
@hypothesis.given(crawl_graphs())
def test_dumps_rebuilds_through_add_page(graph):
    """Feeding a crawl's dump back to add_page, record by record in file
    order, rebuilds the same graph: the dump holds every node, hop and
    link, in an order add_page accepts."""
    text = graph.dumps()
    records = [line.split("\t") for line in text.splitlines()]
    clone = OntologyGraph([title for title, hop, _ in records if hop == "0"], graph.hop_bound)
    for title, hop, links in records:
        clone.add_page(title, links.split("|") if links else [], int(hop))
    assert clone.dumps() == text
    assert clone.roots == graph.roots
    assert clone.nodes == graph.nodes


@settings
@hypothesis.given(far_links())
def test_add_page_rejects_a_link_past_the_next_hop(case):
    """A link from a page more than one hop closer to the roots than its
    target would shorten the target's hop: add_page raises and changes
    nothing."""
    graph, page, target = case
    hop, far = graph.hop(page), graph.hop(target)
    before = graph.dumps()
    with pytest.raises(GraphError) as raised:
        graph.add_page(page, [target], hop)
    assert str(raised.value) == f"{target!r} at hop {far}, but {page!r} at hop {hop} links to it"
    assert graph.dumps() == before


@settings
@hypothesis.given(st.data())
def test_add_page_keeps_hops_consistent_and_edges_distinct(data):
    """add_page calls in any order: a call that keeps to breadth-first
    order (the page is a node at that hop, links from the hop bound are
    empty, no link reaches past hop + 1) is applied; any other raises and
    changes nothing. Pages repeat, and links repeat or point back at the
    page."""
    names = "abcdefgh"
    roots = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    hop_bound = data.draw(st.integers(1, 4))
    graph = OntologyGraph(roots, hop_bound=hop_bound)
    expected: dict[str, list[str]] = {}
    for _ in range(data.draw(st.integers(0, 12))):
        page = data.draw(st.sampled_from(list(graph.nodes)) | st.sampled_from(names))
        hop = data.draw(st.just(graph.nodes.get(page, 0)) | st.integers(0, hop_bound))
        links = data.draw(st.lists(st.sampled_from(names), max_size=6))
        in_order = (
            graph.nodes.get(page) == hop
            and (hop < hop_bound or not links)
            and all(graph.nodes.get(t, hop + 1) <= hop + 1 for t in links)
        )
        before = graph.dumps()
        if not in_order:
            with pytest.raises(GraphError):
                graph.add_page(page, links, hop)
            assert graph.dumps() == before
            continue
        nodes = graph.nodes
        assert graph.add_page(page, links, hop) == [t for t in dict.fromkeys(links) if t not in nodes]
        known = expected.setdefault(page, [])
        known.extend(t for t in dict.fromkeys(links) if t != page and t not in known)
    for page in graph.nodes:
        assert graph.outlinks(page) == expected.get(page, [])
    assert graph.edge_count == sum(map(len, expected.values()))
    assert graph.nodes == bfs_hops(graph)

