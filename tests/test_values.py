"""The value types: constructors and defaults, fresh mutable defaults,
field-wise ``==`` and ``repr``, the read-only and hashable configuration
types, ``PageRecord.truncated`` and the validation messages."""

from pathlib import Path

import pytest

from wikiqe.centrality import CentralityTable, PageRankParams, PageRankResult
from wikiqe.config import (
    DEFAULT_ENGINES,
    SIX_SOURCE_WEIGHTS,
    ConfigError,
    EngineConfig,
    KnowledgeWeights,
    RunConfig,
)
from wikiqe.expand import ExpansionResult, RankedTermList
from wikiqe.fusion import FusedList, MseResult, ResultList
from wikiqe.graph import ConceptSubgraph
from wikiqe.ingest import CrawlConfig, PageRecord
from wikiqe.metrics import EvalReport

NAN, INF = float("nan"), float("inf")

# (type, positional arguments, the same as keywords, fields left at their
# defaults with those defaults)
CONSTRUCTORS = [
    (ConceptSubgraph, ("a", ("a", "b"), ((1,), ())),
     {"root": "a", "nodes": ("a", "b"), "targets": ((1,), ())}, {}),
    (PageRankParams, (0.5, 1e-6, 7), {"damping": 0.5, "tolerance": 1e-6, "max_iterations": 7},
     {"damping": 0.85, "tolerance": 1e-8, "max_iterations": 100}),
    (PageRankResult, ({"a": 1.0}, True, 3), {"scores": {"a": 1.0}, "converged": True, "iterations": 3},
     {}),
    (CentralityTable, ({"a": 1}, {"a": 0.5}, {"a": 1.0}, False),
     {"degree": {"a": 1}, "closeness": {"a": 0.5}, "pagerank": {"a": 1.0},
      "pagerank_converged": False},
     {"pagerank_converged": True}),
    (RankedTermList, ("degree", ["x", "y"]), {"source": "degree", "terms": ["x", "y"]}, {}),
    (ExpansionResult, (["x"], {"x": 3}, {"x": ["degree"]}, True),
     {"qe_terms": ["x"], "borda_scores": {"x": 3}, "provenance": {"x": ["degree"]}, "shortfall": True},
     {"borda_scores": {}, "provenance": {}, "shortfall": False}),
    (EngineConfig, ("google", 30), {"engine_id": "google", "confidence": 30}, {}),
    (KnowledgeWeights, (1, 2, 3, 4, 5, 6),
     {"degree": 1, "closeness": 2, "pagerank": 3, "wordnet": 4, "wikisynonyms": 5, "moby": 6},
     {"closeness": 0, "pagerank": 0, "wordnet": 0, "wikisynonyms": 0, "moby": 0}),
    (RunConfig, (CrawlConfig(hop_bound=2), PageRankParams(damping=0.5), KnowledgeWeights(moby=1),
                 [EngineConfig("g", 1)], Path("s"), Path("r"), {"wordnet": Path("w")}, Path("x"),
                 Path("o"), 7),
     {"crawl": CrawlConfig(hop_bound=2), "pagerank": PageRankParams(damping=0.5),
      "weights": KnowledgeWeights(moby=1), "engines": [EngineConfig("g", 1)],
      "snapshot_dir": Path("s"), "serp_dir": Path("r"), "dictionaries": {"wordnet": Path("w")},
      "stopwords_path": Path("x"), "output_dir": Path("o"), "seed": 7},
     {"crawl": CrawlConfig(), "pagerank": PageRankParams(), "weights": SIX_SOURCE_WEIGHTS,
      "engines": DEFAULT_ENGINES, "snapshot_dir": None, "serp_dir": None, "dictionaries": {},
      "stopwords_path": None, "output_dir": Path("out"), "seed": 0}),
    (CrawlConfig, (2, 7, 100, 0.0, 3),
     {"hop_bound": 2, "max_links_per_page": 7, "max_total_nodes": 100, "request_interval": 0.0,
      "candidate_count": 3},
     {"hop_bound": 3, "max_links_per_page": 100, "max_total_nodes": 10_000,
      "request_interval": 0.5, "candidate_count": 5}),
    (PageRecord, ("a", ["b"], 1.5, "live", True, True),
     {"title": "a", "outlinks": ["b"], "fetched_at": 1.5, "source": "live", "missing": True,
      "disambiguation": True},
     {"missing": False, "disambiguation": False}),
    (ResultList, (["https://a/1"],), {"urls": ["https://a/1"]}, {}),
    (FusedList, ([("https://a/1", 2.0)], 1), {"entries": [("https://a/1", 2.0)], "contributing_lists": 1},
     {"contributing_lists": 0}),
    (MseResult, (FusedList([]), ["bing: down"]), {"fused": FusedList([]), "failures": ["bing: down"]},
     {"failures": []}),
    (EvalReport, ("graph", {"q": {("P", 5): 0.2}}), {"method": "graph", "values": {"q": {("P", 5): 0.2}}},
     {"values": {}}),
]
IDS = [case[0].__name__ for case in CONSTRUCTORS]
CONFIG_TYPES = (PageRankParams, EngineConfig, KnowledgeWeights, CrawlConfig)
CONFIG_CASES = [case for case in CONSTRUCTORS if case[0] in CONFIG_TYPES]
OTHER_CASES = [case for case in CONSTRUCTORS if case[0] not in CONFIG_TYPES]


@pytest.mark.parametrize("cls, args, kwargs, defaults", CONSTRUCTORS, ids=IDS)
def test_constructor_by_position_and_keyword(cls, args, kwargs, defaults):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, args, kwargs, defaults", CONSTRUCTORS, ids=IDS)
def test_omitted_fields_take_their_defaults(cls, args, kwargs, defaults):
    required = {name: value for name, value in kwargs.items() if name not in defaults}
    if cls is KnowledgeWeights:  # one weight must be positive
        required = {"degree": 1}
    value = cls(**required)
    for name, default in defaults.items():
        assert getattr(value, name) == default


@pytest.mark.parametrize("make, name", [
    (RunConfig, "engines"),
    (RunConfig, "dictionaries"),
    (lambda: ExpansionResult([]), "borda_scores"),
    (lambda: ExpansionResult([]), "provenance"),
    (lambda: MseResult(FusedList([])), "failures"),
    (lambda: EvalReport("graph"), "values"),
])
def test_mutable_defaults_are_fresh_per_instance(make, name):
    first, second = make(), make()
    assert getattr(first, name) is not getattr(second, name)
    getattr(first, name).clear()
    assert getattr(make(), name) == getattr(second, name)


@pytest.mark.parametrize("cls, args, kwargs, defaults", CONSTRUCTORS, ids=IDS)
def test_equality_is_field_wise_and_per_type(cls, args, kwargs, defaults):
    value = cls(*args)
    assert value == cls(*args)
    assert not value != cls(*args)
    assert value != object()
    for name, default in defaults.items():
        if default != kwargs[name]:
            assert value != cls(**{**kwargs, name: default})


def test_equality_reads_fields_left_out_of_the_repr():
    assert ConceptSubgraph("a", ("a", "b"), ((1,), ())) != ConceptSubgraph("a", ("a", "b"), ((), ()))
    assert ResultList(["https://a/1"]) != ResultList(["https://a/2"])
    assert EngineConfig("g", 1) != EngineConfig("g", 2)


def test_repr_lists_the_fields_and_a_subgraph_leaves_out_its_targets():
    assert repr(CrawlConfig()) == ("CrawlConfig(hop_bound=3, max_links_per_page=100, "
                                   "max_total_nodes=10000, request_interval=0.5, candidate_count=5)")
    assert repr(PageRecord("a", ["b"], 1.5, "live")) == (
        "PageRecord(title='a', outlinks=['b'], fetched_at=1.5, source='live', missing=False, "
        "disambiguation=False)")
    assert repr(ResultList(["https://a/1"])) == "ResultList(urls=['https://a/1'])"
    assert repr(ConceptSubgraph("a", ("a", "b"), ((1,), ()))) == (
        "ConceptSubgraph(root='a', nodes=('a', 'b'))")


@pytest.mark.parametrize("cls, args, kwargs, defaults", CONFIG_CASES,
                         ids=[case[0].__name__ for case in CONFIG_CASES])
def test_configuration_types_are_read_only_and_hashable(cls, args, kwargs, defaults):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, kwargs[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == kwargs[name]
    assert hash(value) == hash(cls(**kwargs))
    assert {value: 1}[cls(*args)] == 1


@pytest.mark.parametrize("cls, args, kwargs, defaults", OTHER_CASES,
                         ids=[case[0].__name__ for case in OTHER_CASES])
def test_other_value_types_are_unhashable(cls, args, kwargs, defaults):
    with pytest.raises(TypeError):
        hash(cls(*args))


def test_run_config_fields_can_be_assigned():
    config = RunConfig()
    config.snapshot_dir = Path("elsewhere")
    config.weights = KnowledgeWeights(degree=20, closeness=30, pagerank=20)
    assert (config.snapshot_dir, config.weights.as_map()["closeness"]) == (Path("elsewhere"), 30)


def test_truncated_returns_the_record_under_the_limit_and_a_cut_copy_over_it():
    record = PageRecord("a", ["b", "c", "d"], 1.5, "snapshot", missing=False, disambiguation=True)
    assert record.truncated(3) is record
    assert record.truncated(10) is record
    cut = record.truncated(2)
    assert cut == PageRecord("a", ["b", "c"], 1.5, "snapshot", missing=False, disambiguation=True)
    assert record.outlinks == ["b", "c", "d"]
    cut.outlinks.append("e")
    assert record.outlinks == ["b", "c", "d"]


def rejected(cls, kwargs, message):
    return pytest.param(cls, kwargs, message, id=message)


@pytest.mark.parametrize("cls, kwargs, message", [
    rejected(PageRankParams, {"damping": 1.0}, "damping must be in (0, 1), got 1.0"),
    rejected(PageRankParams, {"damping": 0}, "damping must be in (0, 1), got 0"),
    rejected(PageRankParams, {"tolerance": 0.0}, "tolerance must be positive"),
    rejected(PageRankParams, {"max_iterations": 0}, "max_iterations must be >= 1"),
    rejected(CrawlConfig, {"hop_bound": 0}, "hop_bound must be >= 1"),
    rejected(CrawlConfig, {"max_links_per_page": 0}, "max_links_per_page must be >= 1"),
    rejected(CrawlConfig, {"max_total_nodes": 0}, "max_total_nodes must be >= 1"),
    rejected(CrawlConfig, {"candidate_count": 0}, "candidate_count must be >= 1"),
    rejected(EngineConfig, {"engine_id": "g", "confidence": 0}, "engine confidence must be > 0, got 0"),
    rejected(KnowledgeWeights, {"degree": 1, "moby": -1}, "knowledge weights must be >= 0"),
    rejected(KnowledgeWeights, {}, "at least one knowledge weight must be > 0"),
    rejected(RankedTermList, {"source": "bm25", "terms": []}, "unknown knowledge source: 'bm25'"),
    rejected(RankedTermList, {"source": "moby", "terms": ["x", "x"]}, "duplicate terms in moby list"),
    rejected(ResultList, {"urls": ["u", "v", "u"]}, "duplicate URL in result list: u"),
])
def test_validation_messages(cls, kwargs, message):
    with pytest.raises(ValueError) as caught:
        cls(**kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize("cls, kwargs, message", [
    rejected(CrawlConfig, {"request_interval": NAN}, "request_interval must be finite, got nan"),
    rejected(CrawlConfig, {"request_interval": INF}, "request_interval must be finite, got inf"),
    rejected(CrawlConfig, {"request_interval": -5}, "request_interval must be >= 0, got -5"),
    rejected(CrawlConfig, {"request_interval": -0.5}, "request_interval must be >= 0, got -0.5"),
    rejected(CrawlConfig, {"max_total_nodes": NAN}, "max_total_nodes must be finite, got nan"),
    rejected(PageRankParams, {"tolerance": NAN}, "tolerance must be finite, got nan"),
    rejected(PageRankParams, {"tolerance": INF}, "tolerance must be finite, got inf"),
    rejected(PageRankParams, {"max_iterations": INF}, "max_iterations must be finite, got inf"),
    rejected(PageRankParams, {"damping": NAN}, "damping must be finite, got nan"),
    rejected(EngineConfig, {"engine_id": "g", "confidence": NAN}, "confidence must be finite, got nan"),
    rejected(KnowledgeWeights, {"degree": 1, "moby": NAN}, "moby must be finite, got nan"),
])
def test_configuration_types_reject_non_finite_numbers_and_a_negative_interval(cls, kwargs, message):
    with pytest.raises(ValueError) as caught:
        cls(**kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize("data, message", [
    ({"crawl": {"request_interval": NAN}}, "crawl: request_interval must be finite, got nan"),
    ({"crawl": {"request_interval": -INF}}, "crawl: request_interval must be finite, got -inf"),
    ({"crawl": {"request_interval": -5}}, "crawl: request_interval must be >= 0, got -5"),
    ({"pagerank": {"tolerance": NAN}}, "pagerank: tolerance must be finite, got nan"),
    ({"pagerank": {"damping": INF}}, "pagerank: damping must be finite, got inf"),
])
def test_run_config_reports_a_non_finite_or_negative_value_naming_the_section(data, message):
    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict(data)
    assert str(caught.value) == message


def test_a_zero_request_interval_is_accepted():
    assert RunConfig.from_dict({"crawl": {"request_interval": 0}}).crawl.request_interval == 0
