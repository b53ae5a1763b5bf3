"""Turn centrality rankings into query-expansion terms.

The top-k window of each of the three node rankings (degree, closeness,
PageRank) is fused with Borda-count voting, stripped of query words and
stopwords, and the top-m survivors become the expansion. A thesaurus
baseline with first-come-first-served synonym picking is shown for
contrast.
"""

from pathlib import Path

from wikiqe import (
    CrawlConfig,
    PageCache,
    SynonymDictionary,
    WikiSource,
    build_table,
    expand_query,
    rewrite,
    thesaurus_expand,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
query = "adolescent and alcoholism"

source = WikiSource(PageCache(FIXTURES / "snapshot"))
graph = source.build_graph(query, CrawlConfig(hop_bound=3))
table = build_table(graph.select_best_concept())

result = expand_query(table, query, m=3)
print(f"user query: {query!r}")
print("graph-based expansion terms:")
for term in result.qe_terms:
    sets = "+".join(result.provenance[term])
    print(f"  {term:<32} borda={result.borda_scores[term]:<3} from {sets}")
print(f"rewritten query: {rewrite(query, result.qe_terms)!r}\n")

# Thesaurus baselines walk the query's content words in order and take
# the next unused synonym from each word's list, cycling until m terms.
for name, ordering in (("wordnet", "ranked"), ("wikisynonyms", "ranked"), ("moby", "unranked")):
    dictionary = SynonymDictionary.from_file(FIXTURES / "dicts" / f"{name}.txt", ordering=ordering)
    baseline = thesaurus_expand(dictionary, query, m=2, seed=0)
    print(f"{name:<14} m=2 -> {baseline.qe_terms}")
