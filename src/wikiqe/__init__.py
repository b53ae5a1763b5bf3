"""Wikipedia-graph query expansion, metasearch fusion and IR evaluation.

A query is resolved to candidate Wikipedia concepts, a bounded link crawl
builds a directed concept graph, and network properties of the best
concept's subgraph (out-degree, harmonic closeness, PageRank) vote -- via
Borda counting over each ranking's top-k window -- on the expansion terms
appended to the query. Rankings from several engines are merged with weighted
Borda fusion, which also produces the pseudo-relevance gold standard the
evaluation metrics (P@x, S@x, NDCG@k, Cohen's kappa) score against.
"""

from .graph import ConceptSubgraph, GraphError, OntologyGraph, normalize_title
from .centrality import (
    CentralityTable,
    PageRankParams,
    PageRankResult,
    build_table,
    closeness,
    degree,
    pagerank,
)
from .expand import (
    ExpansionResult,
    RankedTermList,
    SynonymDictionary,
    borda_combine,
    expand_query,
    filter_terms,
    rewrite,
    source_term_lists,
    thesaurus_expand,
)
from .fusion import (
    EngineConfig,
    EngineError,
    FixtureEngineAdapter,
    FusedList,
    FusionError,
    KnowledgeWeights,
    MseResult,
    ResultList,
    SearchHit,
    engine_weight,
    normalize_url,
    run_mse,
    wbf_merge,
)
from .ingest import (
    CrawlConfig,
    FetchError,
    IngestError,
    NoConceptError,
    PageCache,
    PageRecord,
    WikiClient,
    WikiSource,
)
from .metrics import (
    EvalReport,
    JudgmentSet,
    cohens_kappa,
    improvement_ratios,
    ndcg_at,
    precision_at,
    success_at,
    timed,
)
from .config import ConfigError, RunConfig, benchmark_queries

__version__ = "0.1.0"
