"""One plain reference of ``wikiqe expand`` (README steps 1-5).

``reference_expand`` composes the test-side oracles and nothing else of the
package's pipeline: ``reference_crawl`` for resolve, crawl and best concept;
``reference_closeness`` and ``reference_pagerank`` for the scores, with
degree counted from the crawl's own link lists; ``full_sort_windows`` at
k = 100; ``brute_force_borda``; then a plain query-word and stopword filter
over the Borda order, with the stopwords read from the bundled file. Its
exit code, concept, terms (each with its Borda score and sets) and
rewritten query must equal what ``main(["expand", ...])`` prints for a
snapshot of the same wiki, on the fixture snapshot for the 30 benchmark
queries and on hypothesis wikis.
"""

import json
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

import wikiqe
from wikiqe.centrality import PageRankParams
from wikiqe.cli import main
from wikiqe.expand import term_from_title
from wikiqe.ingest import CrawlConfig

from test_centrality_exact import reference_closeness, reference_pagerank
from test_crawl_oracle import PlainWiki, reference_crawl, snapshot_source
from test_expand import SOURCES, brute_force_borda, full_sort_windows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
K = 100  # the window expand uses


def bundled_stopwords() -> frozenset[str]:
    lines = (Path(wikiqe.__file__).parent / "data" / "stopwords.txt").read_text(encoding="utf-8")
    words = (line.strip().casefold() for line in lines.splitlines())
    return frozenset(word for word in words if word and not word.startswith("#"))


STOPWORDS = bundled_stopwords()


def reference_expand(wiki: PlainWiki, query: str, m: int, crawl: CrawlConfig,
                     params: PageRankParams):
    """(exit code, concept, [(term, borda, sets)], rewritten query), or None
    when the query resolves to no concept."""
    found = reference_crawl(wiki, query, crawl)
    if found is None:
        return None
    root, closure, _, rows = found[2]
    adjacency = {node: [closure[j] for j in row] for node, row in zip(closure, rows)}
    nodes = SimpleNamespace(nodes=closure)
    table = SimpleNamespace(
        degree={node: len(adjacency[node]) for node in closure},
        closeness=reference_closeness(nodes, adjacency),
        pagerank=reference_pagerank(nodes, adjacency, params)[0],
    )
    windows = full_sort_windows(table, K)
    blocked = set(query.casefold().split()) | STOPWORDS
    kept = [(term, score) for term, score in brute_force_borda(list(windows.values()))
            if not all(word in blocked for word in term.casefold().split())]
    terms = [(term, score, "+".join(s for s in SOURCES if term in windows[s]))
             for term, score in kept[:m]]
    words = [word for word in query.split() if word.casefold() not in ("and", "or")]
    rewritten = " ".join(words + [term for term, _, _ in terms])
    return (2 if len(terms) < m else 0), root, terms, rewritten


TERM_LINE = re.compile(r"  (\d+)\. (.+)  borda=(\d+) sets=(\S+)")


def product_expand(capsys, snapshot, query: str, m: int, out_dir, config=None):
    """What ``main(["expand", ...])`` returns and prints, in the shape of
    ``reference_expand``; None when it reports that no concept was found."""
    argv = ["expand", query, "--m", str(m), "--snapshot", str(snapshot), "--out", str(out_dir)]
    code = main(argv + (["--config", str(config)] if config else []))
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith("error: no Wikipedia concept for query"), captured.err
        return None
    lines = captured.out.splitlines()
    terms = []
    for i, line in enumerate(lines[3:], start=1):
        match = TERM_LINE.fullmatch(line)
        if match is None:
            break
        assert int(match[1]) == i
        terms.append((match[2], int(match[3]), match[4]))
    assert lines[0] == f"query: {query}"
    assert lines[1].startswith("concept: ")
    assert lines[-1].startswith("rewritten: ")
    return code, lines[1][len("concept: "):], terms, lines[-1][len("rewritten: "):]


# ---------------------------------------------------------------------------
# the fixture snapshot, for the 30 benchmark queries
# ---------------------------------------------------------------------------

def fixture_wiki() -> PlainWiki:
    """The fixture snapshot's records, read as plain JSON."""
    def records(kind):
        return [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted((FIXTURES / "snapshot" / kind).glob("*.json"))]

    pages = [page for page in records("pages") if not page["missing"]]
    return PlainWiki(
        {search["query"]: search["results"] for search in records("searches")},
        {page["title"]: page["outlinks"] for page in pages},
        {page["title"] for page in pages if page["disambiguation"]},
    )


def test_expand_matches_the_reference_on_the_fixture_queries(tmp_path, capsys):
    config = json.loads((FIXTURES / "config.json").read_text(encoding="utf-8"))
    crawl = CrawlConfig(**config["crawl"])
    params = PageRankParams(**config["pagerank"])
    assert config["paths"]["stopwords"] is None  # the bundled list, as STOPWORDS reads it
    wiki = fixture_wiki()
    queries = (FIXTURES / "queries.txt").read_text(encoding="utf-8").splitlines()
    assert len(queries) == 30
    codes = set()
    for query in queries:
        for m in (2, 12):
            expected = reference_expand(wiki, query, m, crawl, params)
            actual = product_expand(capsys, FIXTURES / "snapshot", query, m, tmp_path,
                                    FIXTURES / "config.json")
            assert actual == expected, query
            codes.add(expected[0])
    assert codes == {0, 2}  # some queries run short at m = 12


# ---------------------------------------------------------------------------
# hypothesis wikis, served from a snapshot written for each
# ---------------------------------------------------------------------------

QUERY = "rocket fuel"

# Normalized titles that collapse to one term, hold a query word or a
# stopword, or are stopwords alone.
NAMED = ["rocket", "fuel", "rocket fuel", "the rocket", "fuel (film)", "fuel (novel)",
         "the", "of the", "about", "orbit", "orbit (band)", "launch pad", "the launch"]


@st.composite
def wikis(draw):
    """Small wikis like the crawl oracle's, over the titles above; one or two
    search hits that have a page link on to as many as 130 leaves each, so
    that a best subgraph can hold more terms than the window takes."""
    titles = NAMED + [f"p{i}" for i in range(draw(st.integers(0, 12)))]
    present = draw(st.lists(st.sampled_from(titles), unique=True, min_size=1))
    pick = st.sampled_from(titles + ["ghost"])
    links = {title: draw(st.lists(pick, max_size=8)) for title in present}
    disambiguation = set(draw(st.lists(st.sampled_from(present), unique=True, max_size=2)))
    hits = draw(st.lists(st.sampled_from(present + ["ghost"]), min_size=1, max_size=5))
    for hub in range(draw(st.integers(1, 2))):
        page = draw(st.sampled_from(hits))
        if page in links:
            leaves = draw(st.integers(0, 10) | st.integers(95, 130))
            links[page] = links[page] + [f"leaf {hub} {i}" for i in range(leaves)]
    return PlainWiki({QUERY: hits}, links, disambiguation)


@hypothesis.settings(max_examples=100, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(wikis(), st.integers(1, 6))
def test_expand_matches_the_reference_on_random_wikis(capsys, wiki, m):
    with tempfile.TemporaryDirectory() as root:
        snapshot_source(Path(root) / "snapshot", wiki)
        actual = product_expand(capsys, Path(root) / "snapshot", QUERY, m, Path(root) / "out")
    assert actual == reference_expand(wiki, QUERY, m, CrawlConfig(), PageRankParams())


def test_a_hub_wiki_reaches_past_the_window_and_the_filter(tmp_path, capsys):
    """A wiki of the shape the strategy draws, whose best subgraph holds more
    terms than the window and whose best-connected titles are filtered out."""
    wiki = PlainWiki({"rocket fuel": ["the rocket"]},
                     {"the rocket": ["the", "rocket", "fuel (film)", "p0"]
                      + [f"leaf 0 {i}" for i in range(90)],
                      "p0": [f"leaf 1 {i}" for i in range(30)], "the": ["rocket"]}, set())
    closure = reference_crawl(wiki, QUERY, CrawlConfig())[2][1]
    assert len({term_from_title(title) for title in closure}) > K
    expected = reference_expand(wiki, QUERY, 3, CrawlConfig(), PageRankParams())
    code, root, terms, _ = expected
    assert (code, root, len(terms)) == (0, "the rocket", 3)
    assert not {"the rocket", "the", "rocket", "fuel"} & {term for term, _, _ in terms}
    snapshot_source(tmp_path / "snapshot", wiki)
    assert product_expand(capsys, tmp_path / "snapshot", QUERY, 3, tmp_path / "out") == expected
