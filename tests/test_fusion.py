"""Weighted Borda fusion, URL normalization, adapters and metasearch runs."""

import json
from pathlib import Path

import pytest

from wikiqe.expand import RankedTermList, source_term_lists
from wikiqe.fusion import (
    DEFAULT_ENGINES,
    SIX_SOURCE_WEIGHTS,
    EngineConfig,
    EngineError,
    FixtureEngineAdapter,
    FusionError,
    GOLD_M,
    KnowledgeWeights,
    ResultList,
    engine_weight,
    gold_source_lists,
    gold_variants,
    normalize_url,
    run_mse,
    serp_fixture_name,
    wbf_merge,
)

from test_expand import fixture_table


def result_list(engine, query, urls):
    return ResultList(engine=engine, query=query, urls=list(urls))


def write_serp(directory, engine, query, urls):
    payload = {
        "engine": engine,
        "query": query,
        "results": [{"rank": i, "url": u, "title": f"r{i}"} for i, u in enumerate(urls, 1)],
    }
    (directory / serp_fixture_name(engine, query)).write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# URL normalization
# ---------------------------------------------------------------------------

def test_normalize_url_case_ports_fragments():
    assert normalize_url("HTTPS://Example.COM:443/Path?q=1#frag") == "https://example.com/Path?q=1"
    assert normalize_url("http://example.com:80/") == "http://example.com/"
    assert normalize_url("http://example.com:8080/x") == "http://example.com:8080/x"


def test_normalize_url_keeps_query_string():
    assert normalize_url("https://a.b/c?id=5&x=Y") == "https://a.b/c?id=5&x=Y"


def test_normalize_url_idempotent():
    samples = [
        "HTTP://WWW.Site.org:80/A/B#sec",
        "https://host/path%20x?y=Z",
        "https://user:pw@Host.net:444/q",
    ]
    for url in samples:
        once = normalize_url(url)
        assert normalize_url(once) == once


# ---------------------------------------------------------------------------
# engine weights
# ---------------------------------------------------------------------------

def test_engine_weight_reference_values():
    assert engine_weight(30, 30) == 9.0
    assert engine_weight(10, 10) == 1.0
    assert engine_weight(0, 25) == 0.0


def test_engine_weight_rejects_negative():
    with pytest.raises(ValueError):
        engine_weight(-1, 10)


def test_full_weight_matrix():
    confidences = {"google": 30, "lycos": 25, "bing": 20, "ask": 15, "exalead": 10}
    weights = SIX_SOURCE_WEIGHTS.as_map()
    assert {e.engine_id: e.confidence for e in DEFAULT_ENGINES} == confidences
    for engine, conf in confidences.items():
        for source, w in weights.items():
            assert engine_weight(w, conf) == w * conf / 100


def test_knowledge_weights_validation():
    with pytest.raises(ValueError):
        KnowledgeWeights()  # all zero
    with pytest.raises(ValueError):
        KnowledgeWeights(degree=-1, closeness=1)


# ---------------------------------------------------------------------------
# result lists
# ---------------------------------------------------------------------------

def test_result_list_rejects_duplicate_urls():
    with pytest.raises(ValueError, match="duplicate URL in result list: https://a/1"):
        ResultList("e", "q", ["https://a/1", "https://a/1"])


def test_from_raw_normalizes_and_dedups():
    urls = ["HTTPS://A.com/x#top", "https://a.com/x", "https://b.com/y"]
    rl = ResultList.from_raw("e", "q", urls)
    assert rl.urls == ["https://a.com/x", "https://b.com/y"]


# ---------------------------------------------------------------------------
# wbf_merge
# ---------------------------------------------------------------------------

def test_merge_single_list_identity():
    rl = result_list("e", "q", ["https://u/1", "https://u/2", "https://u/3"])
    fused = wbf_merge([(rl, 1.0)], cap=3)
    assert fused.urls() == ["https://u/1", "https://u/2", "https://u/3"]
    assert [s for _, s in fused.entries] == [3.0, 2.0, 1.0]


def test_merge_hand_enumerated():
    l1 = result_list("e1", "q", ["https://u/1", "https://u/2"])
    l2 = result_list("e2", "q", ["https://u/2", "https://u/1"])
    fused = wbf_merge([(l1, 2.0), (l2, 1.0)], cap=2)
    # u1: 2*2 + 1*1 = 5 ; u2: 2*1 + 1*2 = 4
    assert fused.entries == [("https://u/1", 5.0), ("https://u/2", 4.0)]


def test_merge_scaling_weights_preserves_order(rng):
    urls = [f"https://site/{i}" for i in range(40)]
    lists = []
    for e in range(6):
        picks = rng.sample(urls, rng.randint(5, 40))
        lists.append((result_list(f"e{e}", "q", picks), rng.choice([0.5, 1.0, 4.0, 9.0])))
    base = wbf_merge(lists, cap=25)
    doubled = wbf_merge([(rl, w * 2) for rl, w in lists], cap=25)
    assert doubled.urls() == base.urls()
    for (u1, s1), (u2, s2) in zip(base.entries, doubled.entries):
        assert u1 == u2
        assert s2 == pytest.approx(2 * s1)


def test_merge_empty_list_changes_nothing():
    rl = result_list("e", "q", ["https://u/1"])
    empty = result_list("void", "q", [])
    assert wbf_merge([(rl, 1.0)]) == wbf_merge([(rl, 1.0), (empty, 3.0)])


def test_merge_all_empty_inputs():
    fused = wbf_merge([(result_list("e", "q", []), 1.0)])
    assert fused.entries == []
    assert fused.contributing_lists == 0


def brute_force_wbf(lists, cap):
    """Independent per-URL score table."""
    table = {}
    for rl, weight in lists:
        for rank, url in enumerate(rl.urls, 1):
            if rank > cap:
                continue
            table.setdefault(url, 0.0)
            table[url] += weight * (cap - rank + 1)
    return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))


def test_merge_matches_score_table_oracle(rng):
    urls = [f"https://d{i}.org/p" for i in range(300)]
    lists = []
    for e in range(6):
        picks = rng.sample(urls, 200)
        lists.append((result_list(f"e{e}", "q", picks), rng.choice([1.0, 2.0, 4.5, 9.0])))
    fused = wbf_merge(lists, cap=200)
    assert fused.entries == brute_force_wbf(lists, 200)


def test_merge_truncates_to_cap():
    rl = result_list("e", "q", [f"https://u/{i}" for i in range(1, 11)])
    fused = wbf_merge([(rl, 1.0)], cap=3)
    assert len(fused.entries) == 3
    assert fused.urls() == ["https://u/1", "https://u/2", "https://u/3"]


def test_fused_csv_format():
    rl = result_list("e", "q", ["https://u/1", "https://u/2"])
    text = wbf_merge([(rl, 1.5)], cap=2).to_csv()
    assert text.splitlines()[0] == "rank,url,score"
    assert text.splitlines()[1] == "1,https://u/1,3"


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def test_fixture_adapter_roundtrip(tmp_path):
    write_serp(tmp_path, "google", "some query", ["https://a/1", "https://b/2"])
    adapter = FixtureEngineAdapter(tmp_path)
    rl = adapter.search("google", "some query", 10)
    assert rl.engine == "google"
    assert rl.urls == ["https://a/1", "https://b/2"]


def test_fixture_adapter_missing_file(tmp_path):
    adapter = FixtureEngineAdapter(tmp_path)
    with pytest.raises(EngineError, match="no SERP fixture"):
        adapter.search("google", "unknown", 10)


def test_fixture_adapter_respects_limit(tmp_path):
    write_serp(tmp_path, "bing", "q", [f"https://u/{i}" for i in range(1, 8)])
    rl = FixtureEngineAdapter(tmp_path).search("bing", "q", 3)
    assert len(rl.urls) == 3


@pytest.mark.parametrize("bad_url", ["http://x.org:99999/p", 5])
def test_fixture_adapter_bad_url_names_the_file(tmp_path, bad_url):
    write_serp(tmp_path, "google", "q", ["https://a/1", bad_url])
    with pytest.raises(EngineError, match=serp_fixture_name("google", "q")):
        FixtureEngineAdapter(tmp_path).search("google", "q", 10)


# ---------------------------------------------------------------------------
# run_mse / gold standard
# ---------------------------------------------------------------------------

def test_run_mse_single_engine_single_source_equals_plain_merge(tmp_path):
    urls = [f"https://u/{i}" for i in range(1, 6)]
    write_serp(tmp_path, "google", "q degree-terms", urls)
    adapter = FixtureEngineAdapter(tmp_path)
    weights = KnowledgeWeights(degree=30)
    outcome = run_mse(
        adapter, {"degree": "q degree-terms"}, [EngineConfig("google", 30)], weights, cap=5
    )
    expected = wbf_merge([(adapter.search("google", "q degree-terms", 5), 9.0)], cap=5)
    assert outcome.fused == expected
    assert outcome.failures == []


def test_run_mse_matches_weighted_table_oracle(tmp_path, rng):
    urls = [f"https://d{i}.net/x" for i in range(30)]
    engines = [EngineConfig("google", 30), EngineConfig("bing", 20)]
    variants = {"degree": "q dv", "closeness": "q cv"}
    for engine in engines:
        for variant in variants.values():
            write_serp(tmp_path, engine.engine_id, variant, rng.sample(urls, 15))
    adapter = FixtureEngineAdapter(tmp_path)
    weights = KnowledgeWeights(degree=30, closeness=20)
    outcome = run_mse(adapter, variants, engines, weights, cap=10)

    collected = []
    for engine in engines:
        for source, variant in variants.items():
            rl = adapter.search(engine.engine_id, variant, 10)
            collected.append((rl, weights.as_map()[source] * engine.confidence / 100))
    assert outcome.fused.entries == brute_force_wbf(collected, 10)


def test_run_mse_zero_weight_source_contributes_nothing(tmp_path):
    write_serp(tmp_path, "google", "q a", ["https://u/1", "https://u/2"])
    write_serp(tmp_path, "google", "q b", ["https://u/3"])
    adapter = FixtureEngineAdapter(tmp_path)
    engines = [EngineConfig("google", 30)]
    with_zero = run_mse(
        adapter, {"degree": "q a", "moby": "q b"},
        engines, KnowledgeWeights(degree=30, moby=0),
    )
    without = run_mse(adapter, {"degree": "q a"}, engines, KnowledgeWeights(degree=30))
    assert with_zero.fused == without.fused


def test_run_mse_partial_engine_failure_is_reported(tmp_path):
    write_serp(tmp_path, "google", "q x", ["https://u/1"])
    adapter = FixtureEngineAdapter(tmp_path)
    engines = [EngineConfig("google", 30), EngineConfig("lycos", 25)]
    outcome = run_mse(adapter, {"degree": "q x"}, engines, KnowledgeWeights(degree=30))
    assert len(outcome.failures) == 1
    assert "lycos" in outcome.failures[0]
    assert outcome.fused.urls() == ["https://u/1"]


def test_run_mse_total_failure_raises(tmp_path):
    adapter = FixtureEngineAdapter(tmp_path)
    with pytest.raises(FusionError, match="every engine fetch failed"):
        run_mse(adapter, {"degree": "q"}, [EngineConfig("google", 30)], KnowledgeWeights(degree=30))


def test_run_mse_requires_variant_for_weighted_source(tmp_path):
    adapter = FixtureEngineAdapter(tmp_path)
    with pytest.raises(FusionError, match="closeness"):
        run_mse(adapter, {"degree": "q"}, [EngineConfig("g", 10)],
                KnowledgeWeights(degree=1, closeness=1))


def test_gold_variants_use_top_m_terms():
    sources = [
        RankedTermList("degree", ["ethanol", "addiction", "dmoz"]),
        RankedTermList("wordnet", ["stripling"]),
    ]
    variants = gold_variants("adolescent and alcoholism", sources, m=2)
    assert variants["degree"] == "adolescent alcoholism ethanol addiction"
    assert variants["wordnet"] == "adolescent alcoholism stripling"


def test_run_mse_bad_serp_url_drops_only_that_list(tmp_path):
    write_serp(tmp_path, "google", "q x", ["https://u/1", "https://u/2"])
    write_serp(tmp_path, "bing", "q x", ["https://u/3", "http://x.org:99999/p"])
    adapter = FixtureEngineAdapter(tmp_path)
    engines = [EngineConfig("google", 30), EngineConfig("bing", 20)]
    outcome = run_mse(adapter, {"degree": "q x"}, engines, KnowledgeWeights(degree=30))
    assert outcome.fused.urls() == ["https://u/1", "https://u/2"]
    assert len(outcome.failures) == 1
    assert outcome.failures[0].startswith("bing/degree: malformed SERP fixture")
    assert "Port out of range" in outcome.failures[0]


FIXTURE_DICTS = {
    name: Path(__file__).resolve().parent.parent / "fixtures" / "dicts" / f"{name}.txt"
    for name in ("wordnet", "wikisynonyms", "moby")
}


def test_gold_source_lists_cover_weighted_sources_in_order():
    table = fixture_table()
    lists = gold_source_lists(table, "adolescent alcoholism", SIX_SOURCE_WEIGHTS, FIXTURE_DICTS)
    assert [ranked.source for ranked in lists] == [
        "degree", "closeness", "pagerank", "wordnet", "wikisynonyms", "moby",
    ]
    graph = source_term_lists(table, "adolescent alcoholism")
    assert lists[:3] == list(graph.values())
    for ranked in lists[3:]:
        assert 0 < len(ranked.terms) <= GOLD_M


def test_gold_source_lists_skip_zero_weights_and_need_dictionaries():
    table = fixture_table()
    weights = KnowledgeWeights(closeness=1, moby=1)
    lists = gold_source_lists(table, "adolescent alcoholism", weights, FIXTURE_DICTS)
    assert [ranked.source for ranked in lists] == ["closeness", "moby"]
    with pytest.raises(FusionError, match="'moby' has weight > 0 but no dictionary"):
        gold_source_lists(table, "adolescent alcoholism", weights, {})
