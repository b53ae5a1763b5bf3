"""Merge per-engine result lists with weighted Borda fusion.

Each (knowledge source, engine) list gets the weight w_source * SE_conf
/ 100; a URL at rank r inside the top-200 window earns weight * (200 -
r + 1) points from that list. Fusing all six sources across all engines
and keeping the top-k URLs yields the pseudo-relevant gold standard.
"""

from pathlib import Path

from wikiqe import (
    CrawlConfig,
    FixtureEngineAdapter,
    PageCache,
    WikiSource,
    build_table,
    engine_weight,
    run_mse,
    wbf_merge,
)
from wikiqe.config import DEFAULT_ENGINES, SIX_SOURCE_WEIGHTS
from wikiqe.fusion import gold_variants

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
query = "adolescent alcoholism"

print("engine confidences and per-source weights:")
for engine in DEFAULT_ENGINES:
    row = {s: engine_weight(w, engine.confidence) for s, w in SIX_SOURCE_WEIGHTS.as_map().items()}
    cells = "  ".join(f"{s}={v:.1f}" for s, v in row.items())
    print(f"  {engine.engine_id:<8} {cells}")

# Each knowledge source contributes its own expanded query: the three
# graph rankings plus the three thesauruses, ten terms each.
source = WikiSource(PageCache(FIXTURES / "snapshot"))
graph = source.build_graph(query, CrawlConfig(hop_bound=3))
table = build_table(graph.select_best_concept())
dictionaries = {
    name: FIXTURES / "dicts" / f"{name}.txt" for name in ("wordnet", "wikisynonyms", "moby")
}
variants = gold_variants(table, query, SIX_SOURCE_WEIGHTS, dictionaries)
print("\nexpanded query per knowledge source:")
for name, variant in sorted(variants.items()):
    print(f"  {name:<13} {variant}")

adapter = FixtureEngineAdapter(FIXTURES / "serp")

# A small two-list merge first, to see the arithmetic.
left = adapter.search("google", variants["degree"], 5)
right = adapter.search("bing", variants["degree"], 5)
fused = wbf_merge([(left, 2.0), (right, 1.0)], cap=5)
print("\ntwo-list merge of the degree variant, top 3:")
for url, score in fused.entries[:3]:
    print(f"  {score:6.1f}  {url}")

# The full metasearch run: six variants x five engines, thirty lists.
outcome = run_mse(adapter, variants, DEFAULT_ENGINES, SIX_SOURCE_WEIGHTS, cap=200)
print(f"\nfull run fused {outcome.fused.contributing_lists} lists"
      f" into {len(outcome.fused.entries)} URLs; failures: {outcome.failures or 'none'}")
print("pseudo-relevant gold set (top 5):")
for url in outcome.fused.urls()[:5]:
    print(f"  {url}")
