"""Wikipedia-graph query expansion, metasearch fusion and IR evaluation.

A query is resolved to candidate Wikipedia concepts, a bounded link crawl
builds a directed concept graph, and network properties of the best
concept's subgraph (out-degree, harmonic closeness, PageRank) vote -- via
Borda counting over each ranking's top-k window -- on the expansion terms
appended to the query. Rankings from several engines are merged with weighted
Borda fusion, which also produces the pseudo-relevance gold standard the
evaluation metrics (P@x, S@x, NDCG@k, Cohen's kappa) score against.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. ``import wikiqe`` loads
# no submodule: ``wikiqe.X`` imports X's module on first use (PEP 562), and a
# command loads only the modules its flow runs. A name is looked up in its
# module on every access, never cached here, so a function replaced in its
# module (a tracing wrapper, a test double) is what ``wikiqe.X`` returns.
_EXPORTS = {
    name: module
    for module, names in {
        "graph": ("ConceptSubgraph", "GraphError", "OntologyGraph", "normalize_title"),
        "centrality": (
            "CentralityTable", "PageRankParams", "PageRankResult", "build_table", "closeness",
            "degree", "pagerank",
        ),
        "expand": (
            "ExpansionResult", "RankedTermList", "SynonymDictionary", "borda_combine",
            "expand_query", "filter_terms", "rewrite", "source_term_lists", "thesaurus_expand",
        ),
        "fusion": (
            "EngineError", "FixtureEngineAdapter", "FusedList", "FusionError", "MseResult",
            "ResultList", "engine_weight", "normalize_url", "run_mse", "wbf_merge",
        ),
        "ingest": (
            "CrawlConfig", "FetchError", "IngestError", "NoConceptError", "PageCache",
            "PageRecord", "WikiClient", "WikiSource",
        ),
        "metrics": (
            "EvalReport", "JudgmentSet", "cohens_kappa", "improvement_ratios", "ndcg_at",
            "precision_at", "success_at",
        ),
        "config": ("ConfigError", "EngineConfig", "KnowledgeWeights", "RunConfig"),
        "text": ("benchmark_queries",),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
