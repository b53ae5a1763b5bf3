"""An independent oracle for resolve -> crawl -> select (README steps 1-3).

``reference_crawl`` follows the README over plain link dicts, with no HTML,
cache or graph class: the top ``candidate_count`` search hits with
disambiguation pages replaced by their links, a FIFO crawl from all roots
with each page's links cut to ``max_links_per_page`` before anything else
happens to them, pages at the hop bound kept as leaves, the soft node cap
checked before each fetch, self-links and repeated links dropped, missing
pages kept as leaves, and the earliest root with the most closure edges
winning. The product's graph dump, roots, best concept and the order it
fetches pages in must equal the reference's, on hypothesis wikis and on
every SyntheticWiki variant the crawl-synthetic benchmark serves.
"""

import tempfile
from collections import deque
from dataclasses import dataclass

import pytest

from wikiqe.ingest import (
    CrawlConfig,
    NoConceptError,
    PageCache,
    PageRecord,
    WikiClient,
    WikiSource,
    search_key,
)

from reference_links import VARIANTS, synthetic_wiki


@dataclass
class PlainWiki:
    """Search hits per search string, and each present page's links and
    disambiguation flag; a title without a page is missing."""

    searches: dict[str, list[str]]
    links: dict[str, list[str]]
    disambiguation: set[str]


def reference_crawl(wiki: PlainWiki, query: str, config: CrawlConfig):
    """(dump, roots, (best root, its closure, its edge count, each closure
    node's links as positions in the closure), fetched titles), or None
    when the query resolves to no concept."""
    fetched = []

    def fetch(title):
        fetched.append(title)
        return wiki.links.get(title, [])[:config.max_links_per_page]

    # Step 1: candidates.
    roots = []
    for hit in wiki.searches.get(search_key(query), [])[:config.candidate_count]:
        links = fetch(hit)
        for candidate in links if hit in wiki.disambiguation else [hit]:
            if len(roots) < config.candidate_count and candidate not in roots:
                roots.append(candidate)
        if len(roots) == config.candidate_count:
            break
    if not roots:
        return None

    # Step 2: the crawl.
    hop = {root: 0 for root in roots}
    out = {root: [] for root in roots}
    queue = deque((root, 0) for root in roots)
    while queue:
        page, depth = queue.popleft()
        if depth == config.hop_bound:
            continue  # a leaf
        if len(hop) >= config.max_total_nodes:
            break
        for target in fetch(page):
            if target == page or target in out[page]:
                continue
            out[page].append(target)
            if target not in hop:
                hop[target] = depth + 1
                out[target] = []
                queue.append((target, depth + 1))
    dump = "".join(f"{title}\t{hop[title]}\t{'|'.join(out[title])}\n" for title in hop)

    # Step 3: the best concept.
    best = None
    for root in roots:
        closure, seen = [root], {root}
        for node in closure:
            for target in out[node]:
                if target not in seen:
                    seen.add(target)
                    closure.append(target)
        edges = sum(len(out[node]) for node in closure)
        if best is None or edges > best[2]:
            position = {node: i for i, node in enumerate(closure)}
            rows = tuple(tuple(position[target] for target in out[node]) for node in closure)
            best = (root, tuple(closure), edges, rows)
    return dump, roots, best, fetched


def product_crawl(source: WikiSource, query: str, config: CrawlConfig):
    fetched = []
    fetch_page = source.fetch_page

    def recording_fetch_page(title, config):
        fetched.append(title)
        return fetch_page(title, config)

    source.fetch_page = recording_fetch_page
    try:
        graph = source.build_graph(query, config)
    except NoConceptError:
        return None
    finally:
        del source.fetch_page
    best = graph.select_best_concept()
    return graph.dumps(), graph.roots, (best.root, best.nodes, best.graph_degree, best.targets), fetched


# ---------------------------------------------------------------------------
# hypothesis wikis, served from cache records
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

QUERY = "rocket"


@st.composite
def wikis(draw):
    """Small wikis with cycles, self-links, repeated links, hubs over the
    link cap, disambiguation pages and missing titles."""
    titles = [f"p{i}" for i in range(draw(st.integers(1, 14)))]
    present = draw(st.lists(st.sampled_from(titles), unique=True, max_size=len(titles)))
    pick = st.sampled_from(titles + ["ghost"])
    links = {title: draw(st.lists(pick, max_size=9)) for title in present}
    disambiguation = set(draw(st.lists(st.sampled_from(present), unique=True)) if present else [])
    hits = draw(st.lists(pick, min_size=1, max_size=7))
    return PlainWiki({QUERY: hits}, links, disambiguation)


crawl_configs = st.builds(
    CrawlConfig,
    hop_bound=st.integers(1, 4),
    max_links_per_page=st.integers(1, 6),
    max_total_nodes=st.integers(1, 50),
    candidate_count=st.integers(1, 6),
)


def snapshot_source(root, wiki: PlainWiki) -> WikiSource:
    cache = PageCache(root)
    for key, hits in wiki.searches.items():
        cache.put_search(key, hits)
    for title, links in wiki.links.items():
        cache.put_page(PageRecord(title, links, 0.0, "snapshot",
                                  disambiguation=title in wiki.disambiguation))
    return WikiSource(cache)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(wikis(), crawl_configs)
def test_crawl_and_selection_match_the_reference_on_random_wikis(wiki, config):
    with tempfile.TemporaryDirectory() as root:
        source = snapshot_source(root, wiki)
        assert product_crawl(source, QUERY, config) == reference_crawl(wiki, QUERY, config)


def test_reference_follows_the_spec_on_a_hand_wiki():
    # d is a disambiguation page for a and b; a repeats b and links to
    # itself, b links back to a and to the missing m; c is past the bound.
    wiki = PlainWiki(
        {QUERY: ["d", "e"]},
        {"d": ["a", "b"], "a": ["b", "a", "b", "x"], "b": ["a", "m"], "x": ["c"], "e": []},
        {"d"},
    )
    dump, roots, best, fetched = reference_crawl(wiki, QUERY, CrawlConfig(hop_bound=1))
    assert roots == ["a", "b", "e"]
    assert dump == "a\t0\tb|x\nb\t0\ta|m\ne\t0\t\nx\t1\t\nm\t1\t\n"
    assert best == ("a", ("a", "b", "x", "m"), 4, ((1, 2), (0, 3), (), ()))
    assert fetched == ["d", "e", "a", "b", "e"]
    # Links are cut before repeats are dropped; the cap stops the crawl
    # before a fetch once the roots fill it.
    config = CrawlConfig(max_links_per_page=2, max_total_nodes=3, candidate_count=2)
    dump, roots, best, fetched = reference_crawl(wiki, QUERY, config)
    assert (roots, fetched) == (["a", "b"], ["d", "a", "b"])
    assert dump == "a\t0\tb\nb\t0\ta|m\nm\t1\t\n"
    assert reference_crawl(wiki, QUERY, CrawlConfig(max_total_nodes=2, candidate_count=2))[3] == ["d"]


# ---------------------------------------------------------------------------
# the crawl-synthetic wikis, served through their fake API
# ---------------------------------------------------------------------------

SYNTHETIC_CONFIGS = [
    CrawlConfig(),
    CrawlConfig(hop_bound=2, max_links_per_page=7, max_total_nodes=100, candidate_count=3),
]


def plain_wiki(wiki) -> PlainWiki:
    """A SyntheticWiki's own link lists (tests/test_links.py checks that its
    pages render them), with repeated links collapsed as a page reader does."""
    return PlainWiki(
        {search_key(query): list(dict.fromkeys(hits)) for query, hits in wiki.search_results.items()},
        {title: list(dict.fromkeys(links)) for title, links in wiki.links.items()},
        wiki.disambiguation,
    )


@pytest.mark.parametrize("variant", range(VARIANTS))
def test_crawl_and_selection_match_the_reference_on_synthetic_wikis(tmp_path, variant):
    wiki = synthetic_wiki(variant)
    plain = plain_wiki(wiki)
    client = WikiClient(transport=wiki.transport, request_interval=0, sleep=lambda s: None)
    source = WikiSource(PageCache(tmp_path), client)  # cold for the first config, warm after
    for config in SYNTHETIC_CONFIGS:
        for query in wiki.queries:
            expected = reference_crawl(plain, query, config)
            assert expected[1] == wiki.expected_roots[query][:config.candidate_count]
            assert product_crawl(source, query, config) == expected


def test_synthetic_wikis_exercise_every_rule():
    """The synthetic configs hit the link cap, the node cap, missing pages
    and disambiguation, so the comparison above is not vacuous."""
    wiki = synthetic_wiki(0)
    plain, query = plain_wiki(wiki), wiki.queries[0]
    big, small = SYNTHETIC_CONFIGS
    fetched = reference_crawl(plain, query, big)[3]
    assert any(len(plain.links.get(title, ())) > big.max_links_per_page for title in fetched)
    assert any(title not in plain.links for title in fetched)
    assert set(fetched) & plain.disambiguation
    capped = reference_crawl(plain, query, small)[0].count("\n")
    uncapped = reference_crawl(plain, query, CrawlConfig(
        hop_bound=2, max_links_per_page=7, max_total_nodes=10**4, candidate_count=3))[0].count("\n")
    assert small.max_total_nodes <= capped < uncapped
