"""Build a concept graph from the bundled snapshot and pick the best concept.

A query is first resolved to candidate Wikipedia concepts; a bounded
breadth-first crawl over article links then produces a directed graph,
and the candidate whose reachability closure has the most edges becomes
the query's semantic neighborhood.
"""

from pathlib import Path

from wikiqe import CrawlConfig, PageCache, WikiSource

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

source = WikiSource(PageCache(FIXTURES / "snapshot"))
config = CrawlConfig(hop_bound=3, max_links_per_page=100, candidate_count=5)

query = "adolescent alcoholism"
candidates = source.resolve_candidates(query, config)
print(f"candidate concepts for {query!r}:")
for title in candidates:
    print(f"  - {title}")

graph = source.build_graph(query, config)
print(f"\ncrawled graph: {graph.node_count} nodes, {graph.edge_count} edges")
print(f"network calls made (snapshot mode): {source.network_calls}")

# Compare each candidate's closure; the densest one wins.
for root in graph.roots:
    sub = graph.isolate_subgraph(root)
    print(f"  closure of {root!r}: {len(sub)} nodes / {sub.graph_degree} edges")

best = graph.select_best_concept()
print(f"\nbest concept: {best.root!r}")

# Graphs serialize to a line-oriented text format; `expand` writes it to
# its output directory as <slug>.graph.txt.
dump = graph.dumps()
print(f"\nserialized graph is {len(dump.splitlines())} lines; first three:")
for line in dump.splitlines()[:3]:
    print(f"  {line}")
