"""Score the best concept's subgraph with degree, closeness and PageRank.

Degree counts outgoing links; closeness is the harmonic sum of inverse
shortest-path lengths over outgoing paths; PageRank runs power iteration
with dangling mass spread uniformly. Each score yields a descending node
list and the three lists feed the expansion step.
"""

from pathlib import Path

from wikiqe import CrawlConfig, PageCache, PageRankParams, WikiSource, build_table
from wikiqe.centrality import ranked_prefix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

source = WikiSource(PageCache(FIXTURES / "snapshot"))
graph = source.build_graph("adolescent alcoholism", CrawlConfig(hop_bound=3))
best = graph.select_best_concept()

table = build_table(best, PageRankParams(damping=0.85, tolerance=1e-8, max_iterations=100))

print(f"subgraph of {best.root!r}: {len(best)} nodes\n")
header = f"{'node':<48} {'deg':>3} {'closeness':>10} {'pagerank':>10}"
print(header)
print("-" * len(header))
# ranked_prefix(scores, n) ranks the best n titles (and any tied with the
# n-th), by descending score with ties broken by title.
for node in ranked_prefix(table.degree, 8)[:8]:
    print(f"{node:<48} {table.degree[node]:>3} "
          f"{table.closeness[node]:>10.4f} {table.pagerank[node]:>10.6f}")

print("\ntop of each ranking:")
print("  by degree:    ", ", ".join(ranked_prefix(table.degree, 4)[:4]))
print("  by closeness: ", ", ".join(ranked_prefix(table.closeness, 4)[:4]))
print("  by pagerank:  ", ", ".join(ranked_prefix(table.pagerank, 4)[:4]))

print(f"\npagerank converged: {table.pagerank_converged}")
print(f"pagerank mass: {sum(table.pagerank.values()):.12f}")

# The whole table exports as CSV (title,degree,closeness,pagerank).
print("\nCSV head:")
for line in table.to_csv().splitlines()[:4]:
    print(f"  {line}")
