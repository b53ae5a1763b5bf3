"""Snapshot/cache behavior, the live client (stubbed transport), graph build."""

import json
from pathlib import Path

import pytest

from conftest import hashed_name
from wikiqe.ingest import (
    CrawlConfig,
    FetchError,
    IngestError,
    NoConceptError,
    PageCache,
    PageRecord,
    WikiClient,
    WikiSource,
)


YOUTH = "alcohol consumption by youth in the united states"
SNAPSHOT = Path(__file__).resolve().parent.parent / "fixtures" / "snapshot"


def files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def make_snapshot(root, searches=None, pages=None, disambiguations=()):
    cache = PageCache(root)
    for query, results in (searches or {}).items():
        cache.put_search(query, results)
    for title, links in (pages or {}).items():
        cache.put_page(PageRecord(
            title=title, outlinks=list(links), fetched_at=1234.5, source="snapshot",
            disambiguation=title in disambiguations,
        ))
    return WikiSource(cache)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def record_fields(record):
    """The six fields of a page record, as its cache file holds them."""
    return {"title": record.title, "outlinks": record.outlinks, "fetched_at": record.fetched_at,
            "source": record.source, "missing": record.missing,
            "disambiguation": record.disambiguation}


def test_cache_page_round_trip(tmp_path):
    cache = PageCache(tmp_path)
    record = PageRecord("ethanol", ["alcohol (drug)"], 7.0, "live")
    cache.put_page(record)
    reloaded = PageCache(tmp_path)  # a fresh cache object reads from disk
    assert record_fields(reloaded.get_page("ethanol")) == record_fields(record)
    assert reloaded.get_page("unknown") is None


@pytest.mark.parametrize("record", [
    PageRecord("ethanol", ["alcohol (drug)", "café", "\u2028 quote \" and \\"], 1234.5, "live"),
    PageRecord("no such page", [], 1.7e9 + 0.25, "live", missing=True),
    PageRecord("mercury", ["mercury (planet)", "mercury (element)"], 0.0, "snapshot",
               disambiguation=True),
], ids=["links", "missing", "disambiguation"])
def test_cache_page_bytes_are_the_record_json(tmp_path, record):
    PageCache(tmp_path).put_page(record)
    written = (tmp_path / "pages" / hashed_name(record.title)).read_bytes()
    expected = json.dumps(record_fields(record), ensure_ascii=False, sort_keys=True, indent=1)
    assert written == expected.encode("utf-8")


def test_cache_put_creates_missing_directories(tmp_path):
    root = tmp_path / "not" / "yet"
    cache = PageCache(root)
    cache.put_page(PageRecord("ethanol", ["alcohol"], 7.0, "live"))
    cache.put_search("ethanol", ["ethanol"])
    assert files_under(root) == [f"pages/{hashed_name('ethanol')}",
                                 f"searches/{hashed_name('ethanol')}"]
    assert PageCache(root).get_page("ethanol").outlinks == ["alcohol"]


def test_cache_search_round_trip(tmp_path):
    cache = PageCache(tmp_path)
    cache.put_search("adolescent alcoholism", ["alcoholism", YOUTH])
    assert PageCache(tmp_path).get_search("adolescent alcoholism") == ["alcoholism", YOUTH]


def test_caches_sharing_a_directory_keep_each_others_entries(tmp_path):
    first, second = PageCache(tmp_path), PageCache(tmp_path)
    first.put_page(PageRecord("alpha", [], 1.0, "live"))
    second.put_page(PageRecord("beta", [], 2.0, "live"))
    first.put_search("a", ["alpha"])
    second.put_search("b", ["beta"])
    fresh = PageCache(tmp_path)
    assert fresh.get_page("alpha").title == "alpha"
    assert fresh.get_page("beta").title == "beta"
    assert fresh.get_search("a") == ["alpha"]
    assert fresh.get_search("b") == ["beta"]


def test_cache_put_writes_only_its_own_record(tmp_path):
    name = hashed_name("ethanol")
    cache = PageCache(tmp_path)
    cache.put_page(PageRecord("ethanol", ["alcohol (drug)"], 7.0, "live"))
    assert files_under(tmp_path) == [f"pages/{name}"]
    cache.put_search("ethanol", ["ethanol"])
    cache.put_page(PageRecord("ethanol", ["alcohol"], 8.0, "live"))  # overwrite in place
    assert files_under(tmp_path) == [f"pages/{name}", f"searches/{name}"]
    assert PageCache(tmp_path).get_page("ethanol").outlinks == ["alcohol"]


def test_cache_failed_write_leaves_no_temp_file(tmp_path):
    (tmp_path / "pages" / hashed_name("ethanol")).mkdir(parents=True)
    with pytest.raises(OSError):  # os.replace cannot put a file over a directory
        PageCache(tmp_path).put_page(PageRecord("ethanol", [], 7.0, "live"))
    assert files_under(tmp_path) == []


@pytest.mark.parametrize("content, match", [
    pytest.param(b'{"title": "ethanol", "outlinks": ["a"', "malformed cache record", id="truncated"),
    pytest.param(b'{"title": "ethanol\xff"}', "malformed cache record", id="not-utf8"),
    pytest.param(b'["ethanol"]', "does not hold the title 'ethanol'", id="not-an-object"),
    pytest.param(json.dumps(record_fields(PageRecord("methanol", [], 0.0, "live"))).encode(),
                 "does not hold the title 'ethanol'", id="other-title"),
    pytest.param(b'{"title": "ethanol"}', "malformed cache record", id="missing-fields"),
    # Deep enough for json to raise RecursionError on every release.
    pytest.param(b'{"title": "ethanol", "outlinks": ' + b"[" * 100_000, "malformed cache record",
                 id="nested-too-deep"),
])
def test_cache_malformed_page_raises_ingest_error_naming_file(tmp_path, content, match):
    cache = PageCache(tmp_path)
    cache.put_page(PageRecord("ethanol", ["a"], 7.0, "live"))
    path = next((tmp_path / "pages").iterdir())
    path.write_bytes(content)
    with pytest.raises(IngestError, match=match) as caught:
        cache.get_page("ethanol")
    assert str(path) in str(caught.value)


def test_cache_malformed_search_raises_ingest_error_naming_file(tmp_path):
    cache = PageCache(tmp_path)
    cache.put_search("ethanol", ["ethanol"])
    path = next((tmp_path / "searches").iterdir())
    path.write_text('{"query": "ethanol"}', encoding="utf-8")
    with pytest.raises(IngestError, match="malformed cache record") as caught:
        cache.get_search("ethanol")
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("kind, field, value, message", [
    pytest.param("pages", "outlinks", None, "outlinks must be a list of strings, not null",
                 id="outlinks-null"),
    pytest.param("pages", "outlinks", [1, 2], "outlinks must be a list of strings, not [1, 2]",
                 id="outlinks-numbers"),
    pytest.param("pages", "outlinks", "ab", 'outlinks must be a list of strings, not "ab"',
                 id="outlinks-string"),
    pytest.param("pages", "fetched_at", "now", 'fetched_at must be a number, not "now"',
                 id="fetched-at-string"),
    pytest.param("pages", "fetched_at", True, "fetched_at must be a number, not true",
                 id="fetched-at-true"),
    pytest.param("pages", "fetched_at", False, "fetched_at must be a number, not false",
                 id="fetched-at-false"),
    pytest.param("pages", "source", 3, "source must be a string, not 3", id="source-number"),
    pytest.param("pages", "missing", 0, "missing must be true or false, not 0", id="missing-number"),
    pytest.param("pages", "disambiguation", None, "disambiguation must be true or false, not null",
                 id="disambiguation-null"),
    pytest.param("searches", "results", "ethanol",
                 'results must be a list of strings, not "ethanol"', id="results-string"),
    pytest.param("searches", "results", [1], "results must be a list of strings, not [1]",
                 id="results-numbers"),
])
def test_cache_record_with_a_mistyped_field_raises_ingest_error_naming_file(
    tmp_path, kind, field, value, message
):
    cache = PageCache(tmp_path)
    cache.put_page(PageRecord("ethanol", ["a"], 7.0, "live"))
    cache.put_search("ethanol", ["ethanol"])
    path = tmp_path / kind / hashed_name("ethanol")
    record = json.loads(path.read_text(encoding="utf-8"))
    record[field] = value
    path.write_text(json.dumps(record), encoding="utf-8")
    get = cache.get_page if kind == "pages" else cache.get_search
    with pytest.raises(IngestError) as caught:
        get("ethanol")
    assert str(caught.value) == f"malformed cache record {path}: {message}"


PAGE = {"title": "ethanol", "outlinks": ["a"], "fetched_at": 7.0, "source": "live"}


@pytest.mark.parametrize("kind, record, problem", [
    # The page ones used to surface PageRecord's TypeError, the search one a
    # KeyError; a search record took an unknown field, and read a page field.
    pytest.param("pages", {"title": "ethanol"}, "missing field 'outlinks'", id="page-missing"),
    pytest.param("pages", {**PAGE, "extra": 1}, "unknown field 'extra'", id="page-unknown"),
    pytest.param("searches", {"query": "ethanol"}, "missing field 'results'", id="search-missing"),
    pytest.param("searches", {"query": "ethanol", "results": [], "extra": 1},
                 "unknown field 'extra'", id="search-unknown"),
    pytest.param("searches", {"query": "ethanol", "results": [], "outlinks": 5},
                 "unknown field 'outlinks'", id="search-with-a-page-field"),
])
def test_cache_record_with_a_missing_or_unknown_field_raises_ingest_error_naming_file(
    tmp_path, kind, record, problem
):
    cache = PageCache(tmp_path)
    path = tmp_path / kind / hashed_name("ethanol")
    path.parent.mkdir()
    path.write_text(json.dumps(record), encoding="utf-8")
    get = cache.get_page if kind == "pages" else cache.get_search
    with pytest.raises(IngestError) as caught:
        get("ethanol")
    assert str(caught.value) == f"malformed cache record {path}: {problem}"


def test_a_page_record_may_leave_out_the_fields_with_a_default(tmp_path):
    path = tmp_path / "pages" / hashed_name("ethanol")
    path.parent.mkdir()
    path.write_text(json.dumps(PAGE), encoding="utf-8")
    assert PageCache(tmp_path).get_page("ethanol") == PageRecord("ethanol", ["a"], 7.0, "live")


def test_every_fixture_record_resolves_through_its_hashed_path():
    cache = PageCache(SNAPSHOT)
    pages = sorted((SNAPSHOT / "pages").iterdir())
    searches = sorted((SNAPSHOT / "searches").iterdir())
    assert len(pages) == 75 and len(searches) == 10
    for path in pages:
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == hashed_name(stored["title"])
        assert record_fields(cache.get_page(stored["title"])) == stored
    for path in searches:
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == hashed_name(stored["query"])
        assert cache.get_search(stored["query"]) == stored["results"]


# ---------------------------------------------------------------------------
# snapshot mode
# ---------------------------------------------------------------------------

def test_snapshot_fetch_echoes_fixture(tmp_path):
    source = make_snapshot(tmp_path, pages={"ethanol": ["a", "b", "c"]})
    record = source.fetch_page("ethanol", CrawlConfig())
    assert record.outlinks == ["a", "b", "c"]
    assert record.source == "snapshot"
    assert not record.missing


def test_snapshot_fetch_truncates_to_cap(tmp_path):
    links = [f"page {i:03d}" for i in range(500)]
    source = make_snapshot(tmp_path, pages={"hub": links})
    record = source.fetch_page("hub", CrawlConfig(max_links_per_page=100))
    assert record.outlinks == links[:100]


def test_snapshot_missing_page_is_flagged_not_fatal(tmp_path):
    source = make_snapshot(tmp_path)
    record = source.fetch_page("ghost page", CrawlConfig())
    assert record.missing
    assert record.outlinks == []


def test_snapshot_mode_makes_zero_network_calls(tmp_path, monkeypatch):
    import requests

    def explode(*args, **kwargs):
        raise AssertionError("network touched in snapshot mode")

    monkeypatch.setattr(requests, "get", explode)
    source = make_snapshot(
        tmp_path,
        searches={"adolescent alcoholism": ["alcoholism"]},
        pages={"alcoholism": ["ethanol"], "ethanol": []},
    )
    graph = source.build_graph("adolescent alcoholism", CrawlConfig(hop_bound=2))
    assert graph.node_count == 2
    assert source.network_calls == 0


# ---------------------------------------------------------------------------
# candidate resolution
# ---------------------------------------------------------------------------

def candidate_snapshot(tmp_path):
    return make_snapshot(
        tmp_path,
        searches={"adolescent alcoholism": ["alcoholism", YOUTH, "adolescence"]},
        pages={
            "alcoholism": ["ethanol"],
            YOUTH: ["binge drinking"],
            "adolescence": [],
        },
    )


def test_resolver_returns_reference_candidate(tmp_path):
    source = candidate_snapshot(tmp_path)
    candidates = source.resolve_candidates("adolescent alcoholism", CrawlConfig())
    assert YOUTH in candidates
    assert candidates[0] == "alcoholism"


def test_resolver_operators_do_not_change_search_key(tmp_path):
    source = candidate_snapshot(tmp_path)
    plain = source.resolve_candidates("adolescent alcoholism", CrawlConfig())
    with_ops = source.resolve_candidates("adolescent and alcoholism", CrawlConfig())
    assert plain == with_ops


def test_resolver_single_match(tmp_path):
    source = make_snapshot(
        tmp_path,
        searches={"roadmap plan": ["technology roadmap"]},
        pages={"technology roadmap": []},
    )
    assert source.resolve_candidates("roadmap plan", CrawlConfig()) == ["technology roadmap"]


def test_resolver_unknown_query_errors(tmp_path):
    source = make_snapshot(tmp_path, searches={})
    with pytest.raises(NoConceptError, match="no Wikipedia concept"):
        source.resolve_candidates("zzqx-nonexistent", CrawlConfig())


def test_resolver_empty_search_result_errors(tmp_path):
    source = make_snapshot(tmp_path, searches={"ghost idea": []})
    with pytest.raises(NoConceptError):
        source.resolve_candidates("ghost idea", CrawlConfig())


def test_resolver_expands_disambiguation_pages(tmp_path):
    source = make_snapshot(
        tmp_path,
        searches={"mercury": ["mercury"]},
        pages={
            "mercury": ["mercury (element)", "mercury (planet)", "mercury (mythology)"],
            "mercury (element)": [],
            "mercury (planet)": [],
            "mercury (mythology)": [],
        },
        disambiguations={"mercury"},
    )
    candidates = source.resolve_candidates("mercury", CrawlConfig(candidate_count=2))
    assert candidates == ["mercury (element)", "mercury (planet)"]


@pytest.mark.parametrize("title, problem", [
    pytest.param("a|b", "title contains reserved character: 'a|b'", id="reserved"),
    pytest.param("", "empty concept title", id="empty"),
    # The graph takes these as they stand, but they name no page: they
    # normalize to nothing or to a title the graph rejects.
    pytest.param(" ", "cannot fetch ' ': title normalizes to empty string: ' '", id="blank"),
    pytest.param("a%7Cb", "cannot fetch 'a%7Cb': title contains reserved character: 'a|b'",
                 id="escaped-reserved"),
])
@pytest.mark.parametrize("kind, key", [
    pytest.param("searches", "mercury", id="search-results"),
    pytest.param("pages", "mercury", id="disambiguation-links"),
    pytest.param("pages", "mercury (element)", id="crawled-links"),
])
def test_build_graph_names_the_cache_record_holding_a_title_the_graph_rejects(
    tmp_path, kind, key, title, problem
):
    searches = {"mercury": ["mercury"]}
    pages = {"mercury": ["mercury (element)", "mercury (planet)"], "mercury (element)": ["venus"]}
    (searches if kind == "searches" else pages)[key].insert(0, title)
    source = make_snapshot(tmp_path, searches, pages, disambiguations={"mercury"})
    with pytest.raises(IngestError) as caught:
        source.build_graph("mercury", CrawlConfig())
    assert str(caught.value) == f"malformed cache record {tmp_path / kind / hashed_name(key)}: {problem}"


@pytest.mark.parametrize("title, problem", [
    pytest.param(" ", "title normalizes to empty string: ' '", id="blank"),
    pytest.param("a%7Cb", "title contains reserved character: 'a|b'", id="escaped-reserved"),
    pytest.param("", "title normalizes to empty string: ''", id="empty"),
    pytest.param("a|b", "title contains reserved character: 'a|b'", id="reserved"),
])
def test_fetch_page_names_a_title_no_page_can_have(tmp_path, title, problem):
    source = make_snapshot(tmp_path)
    with pytest.raises(IngestError) as caught:
        source.fetch_page(title, CrawlConfig())
    assert str(caught.value) == f"cannot fetch {title!r}: {problem}"


def test_build_graph_fetches_no_link_at_the_hop_bound(tmp_path):
    # A link no page can have is harmless where the crawl never reads it.
    source = make_snapshot(tmp_path, {"mercury": ["mercury"]}, {"mercury": [" ", "venus"]})
    graph = source.build_graph("mercury", CrawlConfig(hop_bound=1))
    assert graph.outlinks("mercury") == [" ", "venus"]


def test_build_graph_checks_only_the_links_it_reads(tmp_path):
    # A bad title past the link cap is cut before the graph sees it.
    source = make_snapshot(tmp_path, {"mercury": ["mercury"]}, {"mercury": ["venus", "a|b"]})
    graph = source.build_graph("mercury", CrawlConfig(max_links_per_page=1))
    assert graph.outlinks("mercury") == ["venus"]


def test_resolver_rejects_stopword_only_query(tmp_path):
    source = make_snapshot(tmp_path)
    with pytest.raises(IngestError, match="stopword"):
        source.resolve_candidates("the of and", CrawlConfig())


# ---------------------------------------------------------------------------
# graph build
# ---------------------------------------------------------------------------

def bfs_snapshot(tmp_path):
    return make_snapshot(
        tmp_path,
        searches={"rocket": ["r"]},
        pages={"r": ["a", "b"], "a": ["c"], "b": [], "c": []},
    )


def test_build_graph_hop_bound_one_keeps_leaves(tmp_path):
    source = bfs_snapshot(tmp_path)
    graph = source.build_graph("rocket", CrawlConfig(hop_bound=1))
    assert set(graph.nodes) == {"r", "a", "b"}
    assert graph.edge_count == 2


def test_build_graph_hop_bound_two_expands_one_more_level(tmp_path):
    source = bfs_snapshot(tmp_path)
    graph = source.build_graph("rocket", CrawlConfig(hop_bound=2))
    assert set(graph.nodes) == {"r", "a", "b", "c"}
    assert graph.edge_count == 3
    assert graph.hop("c") == 2


def test_build_graph_is_deterministic(tmp_path):
    source = bfs_snapshot(tmp_path)
    first = source.build_graph("rocket", CrawlConfig(hop_bound=2)).dumps()
    second = source.build_graph("rocket", CrawlConfig(hop_bound=2)).dumps()
    assert first == second


def test_build_graph_respects_node_budget(tmp_path):
    pages = {"hub": [f"n{i}" for i in range(50)]}
    pages.update({f"n{i}": [f"m{i}"] for i in range(50)})
    source = make_snapshot(tmp_path, searches={"hub": ["hub"]}, pages=pages)
    config = CrawlConfig(hop_bound=3, max_total_nodes=30)
    graph = source.build_graph("hub", config)
    # The budget stops expansion (hub's links land in one batch), so the
    # second level never fans out.
    assert graph.node_count == 51
    assert all(hop <= 1 for hop in graph.nodes.values())
    # The cap is soft: the last page expanded adds all its outlinks, so
    # the graph passes it by at most max_links_per_page - 1, as here.
    assert graph.node_count <= config.max_total_nodes + config.max_links_per_page - 1
    tight = CrawlConfig(hop_bound=3, max_total_nodes=2, max_links_per_page=50)
    assert source.build_graph("hub", tight).node_count == 2 + 50 - 1


def test_build_graph_collapses_repeated_self_and_back_links(tmp_path):
    # r repeats a and links to itself; a links back to the queued r and
    # repeats c; b links back to a, which is queued but not yet expanded.
    messy = {"r": ["a", "b", "a", "r", "b"], "a": ["a", "b", "r", "c", "c"],
             "b": ["a", "b"], "c": []}
    clean = {"r": ["a", "b"], "a": ["b", "r", "c"], "b": ["a"], "c": []}
    dumps = []
    for name, pages in (("messy", messy), ("clean", clean)):
        source = make_snapshot(tmp_path / name, searches={"rocket": ["r"]}, pages=pages)
        fetched = []
        fetch_page = source.fetch_page

        def recording_fetch_page(title, config):
            fetched.append(title)
            return fetch_page(title, config)

        source.fetch_page = recording_fetch_page
        dumps.append(source.build_graph("rocket", CrawlConfig(hop_bound=3)).dumps())
        # Resolution reads r once; the crawl then expands each page once.
        assert fetched == ["r", "r", "a", "b", "c"]
    assert dumps[0] == dumps[1] == "r\t0\ta|b\na\t1\tb|r|c\nb\t1\ta\nc\t2\t\n"


def test_build_graph_never_exceeds_hop_bound(tmp_path):
    chain = {f"p{i}": [f"p{i + 1}"] for i in range(10)}
    chain["p10"] = []
    source = make_snapshot(tmp_path, searches={"p0": ["p0"]}, pages=chain)
    for bound in (1, 2, 3):
        graph = source.build_graph("p0", CrawlConfig(hop_bound=bound))
        assert max(graph.nodes.values()) <= bound


# ---------------------------------------------------------------------------
# live client via stub transport
# ---------------------------------------------------------------------------

PARSE_HTML = (
    '<div><p><a href="/wiki/Substance_abuse">abuse</a>'
    '<a href="/wiki/Category:Health">cat</a>'
    '<a href="/wiki/Alcohol_and_health#Section">health</a>'
    '<a href="https://other.site/x">ext</a>'
    '<a href="/wiki/Substance_abuse">dup</a>'
    '<a href="/wiki/Binge_drinking">binge</a></p></div>'
)


def parse_payload(html=PARSE_HTML, properties=()):
    return {
        "parse": {
            "title": "ignored",
            "text": {"*": html},
            "properties": [{"name": name, "*": ""} for name in properties],
        }
    }


def test_client_page_extracts_article_links_in_order():
    client = WikiClient(transport=lambda params: parse_payload(), request_interval=0)
    record = client.page("alcoholism")
    assert record.outlinks == ["substance abuse", "alcohol and health", "binge drinking"]
    assert not record.disambiguation


def test_client_page_detects_disambiguation():
    client = WikiClient(
        transport=lambda params: parse_payload(properties=["disambiguation"]),
        request_interval=0,
    )
    assert client.page("mercury").disambiguation


def test_client_page_missing_title():
    client = WikiClient(
        transport=lambda params: {"error": {"code": "missingtitle"}}, request_interval=0
    )
    record = client.page("no such page")
    assert record.missing
    assert record.outlinks == []


@pytest.mark.parametrize("payload", [
    {"batchcomplete": ""},
    {"error": "missingtitle"},
    {"parse": {"title": "x", "text": PARSE_HTML}},
    {"parse": {"title": "x", "text": {"*": PARSE_HTML}, "properties": ["disambiguation"]}},
    {"parse": {"title": "x", "text": {"*": None}}},
    {"parse": {"title": "x", "text": {"*": ["<a href='/wiki/A'>a</a>"]}}},
    ["parse"],
], ids=["no-parse", "error-string", "text-string", "property-string", "html-none",
        "html-list", "not-an-object"])
def test_client_page_malformed_payload_is_a_fetch_error_naming_the_title(payload):
    client = WikiClient(transport=lambda params: payload, request_interval=0)
    with pytest.raises(FetchError, match="malformed parse response for 'alcoholism'"):
        client.page("alcoholism")


@pytest.mark.parametrize("payload", [
    {"query": {"search": [{"title": "Alcoholism"}, {"ns": 0, "pageid": 7}]}},
    {"query": {"search": ["Alcoholism"]}},
    {"query": {"search": [{"title": " _ "}]}},
    {"query": {"search": {"title": "Alcoholism"}}},
    {"query": "search"},
], ids=["hit-without-title", "hit-string", "empty-title", "hits-object", "query-string"])
def test_client_search_malformed_payload_is_a_fetch_error_naming_the_query(payload):
    client = WikiClient(transport=lambda params: payload, request_interval=0)
    with pytest.raises(FetchError, match="malformed search response for 'binge'"):
        client.search("binge", 5)


def test_client_search_normalizes_titles():
    payload = {"query": {"search": [{"title": "Binge_drinking"}, {"title": "Alcoholism"}]}}
    client = WikiClient(transport=lambda params: payload, request_interval=0)
    assert client.search("binge", 5) == ["binge drinking", "alcoholism"]


def test_client_retries_then_succeeds():
    calls = {"n": 0}

    def flaky(params):
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("boom")
        return parse_payload()

    clock = FakeClock()
    client = WikiClient(transport=flaky, max_retries=3, clock=clock, sleep=clock.sleep,
                        request_interval=0)
    record = client.page("x")
    assert not record.missing
    assert client.request_count == 3


def test_client_gives_up_after_bounded_retries():
    def always_down(params):
        raise OSError("socket closed")

    clock = FakeClock()
    client = WikiClient(transport=always_down, max_retries=3, clock=clock,
                        sleep=clock.sleep, request_interval=0)
    with pytest.raises(FetchError, match="3 attempts"):
        client.page("x")


def test_client_that_gives_up_names_the_page_or_search():
    def always_down(params):
        raise OSError("reset by peer")

    clock = FakeClock()
    client = WikiClient(transport=always_down, max_retries=3, clock=clock,
                        sleep=clock.sleep, request_interval=0)
    with pytest.raises(FetchError) as caught:
        client.page("alcoholism")
    assert str(caught.value) == "request for page 'alcoholism' failed after 3 attempts: reset by peer"
    with pytest.raises(FetchError) as caught:
        client.search("adolescent alcoholism", 5)
    assert str(caught.value) == ("request for search 'adolescent alcoholism' "
                                 "failed after 3 attempts: reset by peer")


def test_request_pacing_with_mock_clock():
    clock = FakeClock()
    stamps = []

    def transport(params):
        stamps.append(clock.now)
        return parse_payload()

    client = WikiClient(transport=transport, request_interval=0.5,
                        clock=clock, sleep=clock.sleep)
    for title in ("a", "b", "c", "d"):
        client.page(title)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert all(gap >= 0.5 - 1e-9 for gap in gaps)


@pytest.mark.parametrize("interval, message", [
    (float("nan"), "request_interval must be finite, got nan"),
    (float("inf"), "request_interval must be finite, got inf"),
    (-5, "request_interval must be >= 0, got -5"),
], ids=["nan", "inf", "negative"])
def test_client_takes_a_request_interval_under_the_crawl_config_rule(interval, message):
    # A NaN interval used to construct, and the pacer then never slept.
    for build in (
        lambda: CrawlConfig(request_interval=interval),
        lambda: WikiClient(request_interval=interval),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_an_interval_too_large_for_a_float_is_rejected_before_any_request():
    # Taken, it would make every paced request raise OverflowError.
    for build in (
        lambda: CrawlConfig(request_interval=10**400),
        lambda: WikiClient(request_interval=10**400, transport=lambda params: parse_payload()),
    ):
        with pytest.raises(ValueError, match="^request_interval must be finite, got an integer "
                                             "too large for a float$"):
            build()
    assert WikiClient(request_interval=10**300, transport=lambda params: parse_payload(),
                      sleep=lambda s: None).page("alcoholism").outlinks


def test_live_fetch_caches_and_second_call_skips_network(tmp_path):
    client = WikiClient(transport=lambda params: parse_payload(), request_interval=0)
    source = WikiSource(PageCache(tmp_path), client)
    config = CrawlConfig()
    first = source.fetch_page("alcoholism", config)
    assert source.network_calls == 1
    second = source.fetch_page("alcoholism", config)
    assert source.network_calls == 1
    assert record_fields(first) == record_fields(second)


def wiki_transport(pages, hits):
    """A fake API: ``hits`` for every search, ``pages[title]`` (HTML) for a parse."""
    def transport(params):
        if params["action"] == "query":
            return {"query": {"search": [{"title": title} for title in hits]}}
        return parse_payload(pages[params["page"]])

    return transport


def test_live_crawl_drops_links_the_graph_rejects(tmp_path):
    pages = {
        "alcoholism": '<a href="/wiki/A%7CB">x</a><a href="/wiki/C|D">y</a>'
                      '<a href="/wiki/Binge_drinking">binge</a>',
        "binge drinking": '<a href="/wiki/Alcoholism">back</a><a href="/wiki/E%7cF">z</a>',
    }
    client = WikiClient(transport=wiki_transport(pages, ["Alcoholism"]), request_interval=0)
    config = CrawlConfig(hop_bound=2)
    live = WikiSource(PageCache(tmp_path), client).build_graph("alcoholism", config)
    assert live.outlinks("alcoholism") == ["binge drinking"]
    for name in files_under(tmp_path):
        record = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert not [t for t in record.get("outlinks", record.get("results")) if "|" in t]
    rerun = WikiSource(PageCache(tmp_path)).build_graph("alcoholism", config)
    assert rerun.dumps() == live.dumps()


def test_live_search_hit_the_graph_rejects_is_a_fetch_error_and_not_cached(tmp_path):
    client = WikiClient(transport=wiki_transport({}, ["Binge", "A|B"]), request_interval=0)
    source = WikiSource(PageCache(tmp_path), client)
    with pytest.raises(FetchError, match=r"malformed search response for 'binge': .*'a\|b'"):
        source.search("binge", 5)
    assert not (tmp_path / "searches").exists()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_crawl_config_rejects_bad_caps():
    with pytest.raises(ValueError):
        CrawlConfig(hop_bound=0)
    with pytest.raises(ValueError):
        CrawlConfig(max_links_per_page=0)
    with pytest.raises(ValueError):
        CrawlConfig(candidate_count=0)
