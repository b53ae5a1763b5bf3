"""Spans and counters around wikiqe's public functions, for the traced run.

The wrappers are installed where each function is looked up: ``cli``
imports ``build_table`` by name, so both ``wikiqe.cli.build_table`` and
``wikiqe.centrality.build_table`` are replaced by one wrapper. A span holds
name, start, end, parent and operation id; spans stay in memory until the
run writes them out. A layer's self time is its spans' time minus the time
of their child spans.

This module imports nothing from wikiqe at import time, so the traced CLI
entry script can time ``import wikiqe`` itself.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# What each per-layer metric should move, for the traced-run report.
# BENCHMARK.json's "per_layer" names "<workload>.<metric>" and its unit for
# each workload that reports the metric.
CLI_ALL = "cli_*_p50_s on cli-fixtures"
MOVES = {
    "cli.interpreter_s": "nothing (interpreter floor)",
    "cli.import_s": CLI_ALL,
    "cli.import_requests_s": CLI_ALL,
    "config.load_s": CLI_ALL,
    "text.stopwords_load_s": CLI_ALL,
    "ingest.cache_open_s": "crawl_warm_p50_s, cli_*_p50_s",
    "ingest.cache_get_s": "crawl_warm_p50_s, cli_bench_p50_s",
    "ingest.cache_gets": "crawl_warm_p50_s, cli_bench_p50_s",
    "ingest.cache_hit_ratio": "crawl_warm_p50_s, cli_bench_p50_s",
    "ingest.cache_put_s": "crawl_cold_p50_s, crawl_cold_tail_s",
    "ingest.cache_put_p50_s": "crawl_cold_p50_s, crawl_cold_tail_s",
    "ingest.cache_put_tail_s": "crawl_cold_p50_s, crawl_cold_tail_s",
    "ingest.cache_puts": "crawl_cold_p50_s, crawl_cold_tail_s",
    "ingest.client_page_self_s": "crawl_cold_p50_s",
    "ingest.resolve_s": "crawl_*",
    "ingest.build_graph_self_s": "crawl_*",
    "ingest.requests": "count",
    "ingest.retries": "count",
    "ingest.pages_fetched": "input size",
    "ingest.pages_missing": "input size",
    "ingest.pages_truncated": "input size",
    "ingest.disambiguations_expanded": "input size",
    "ingest.transport_s": "nothing (the benchmark's fake transport)",
    "graph.add_page_s": "crawl_*, setup_s on qe-synthetic",
    "graph.add_page_calls": "crawl_*, setup_s on qe-synthetic",
    "graph.select_best_s": "qe_expand_p50_s",
    "graph.isolate_calls": "qe_expand_p50_s",
    "graph.select_useful_ratio": "qe_expand_p50_s",
    "graph.dumps_s": "cli_expand_p50_s",
    "graph.nodes": "input size",
    "graph.edges": "input size",
    "graph.crawled_nodes": "input size",
    "graph.crawled_edges": "input size",
    "graph.best_nodes": "input size",
    "graph.best_edges": "input size",
    "centrality.degree_s": "qe_expand_* and qe_nodes_per_s, not cli-fixtures",
    "centrality.closeness_s": "qe_expand_* and qe_nodes_per_s, not cli-fixtures",
    "centrality.pagerank_s": "qe_expand_* and qe_nodes_per_s, not cli-fixtures",
    "centrality.build_table_self_s": "qe_expand_* and qe_nodes_per_s, not cli-fixtures",
    "centrality.pagerank_iterations": "qe_expand_* and qe_nodes_per_s",
    "centrality.pagerank_converged_ratio": "qe_expand_* and qe_nodes_per_s",
    "expand.expand_query_s": "qe_expand_*",
    "expand.borda_s": "qe_expand_*",
    "expand.source_term_lists_s": "qe_gold_terms_p50_s",
    "expand.term_lists_calls": "qe_expand_*, qe_gold_terms_p50_s",
    "expand.titles_converted": "qe_expand_*, qe_gold_terms_p50_s",
    "expand.title_useful_ratio": "qe_expand_*, qe_gold_terms_p50_s",
    "expand.filter_s": "cli_gold_p50_s",
    "expand.thesaurus_s": "cli_gold_p50_s",
    "expand.shortfalls": "cli_gold_p50_s",
    "fusion.run_mse_s": "cli_gold_p50_s",
    "fusion.engine_search_s": "cli_gold_p50_s",
    "fusion.engine_searches": "cli_gold_p50_s",
    "fusion.engine_failures": "cli_gold_p50_s",
    "fusion.wbf_merge_s": "cli_gold_p50_s",
    "fusion.lists_fused": "cli_gold_p50_s",
    "fusion.urls_fused": "cli_gold_p50_s",
    "metrics.judgments_load_s": "cli_eval_p50_s",
    "metrics.score_s": "cli_eval_p50_s",
    "metrics.kappa_s": "cli_eval_p50_s",
    "metrics.scores_computed": "cli_eval_p50_s",
    "trace_overhead_s": "nothing (traced minus untraced round time)",
}

# Spans whose metric is self time rather than whole-span time.
SELF_TIME = {"ingest.build_graph", "ingest.client_page", "centrality.build_table"}


class Tracer:
    """In-memory spans and counters; wrappers installed by :func:`install`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.deferred: list = []
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _make(self, func, span, count, after):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            idx = None
            if span:
                idx = len(tracer.spans)
                tracer.spans.append([span, perf_counter(), 0.0,
                                     tracer.stack[-1] if tracer.stack else -1, tracer.op])
                tracer.stack.append(idx)
            try:
                result = func(*args, **kwargs)
            except Exception:
                tracer.counts[f"{span or count}.errors"] += 1
                raise
            finally:
                if idx is not None:
                    tracer.spans[idx][2] = perf_counter()
                    tracer.stack.pop()
            if after:
                after(tracer, result, args)
            return result

        return wrapper

    def wrap_method(self, cls, attr, span=None, count=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._make(raw.__func__, span, count, after))
        else:
            new = self._make(raw, span, count, after)
        setattr(cls, attr, new)
        self._installed.append((cls, attr, raw))

    def wrap_function(self, modules, home, name, span=None, count=None, after=None):
        """Replace ``home.name`` in every module that bound the same object."""
        original = getattr(home, name)
        wrapper = self._make(original, span, count, after)
        for module in modules:
            if module.__dict__.get(name) is original:
                setattr(module, name, wrapper)
                self._installed.append((module, name, original))

    def wrap_callable(self, func, span, count=None):
        return self._make(func, span, count, None)

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def run_deferred(self):
        for task in self.deferred:
            task()
        self.deferred.clear()

    # -- transfer between processes -------------------------------------------

    def dump(self, path):
        self.run_deferred()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "values": self.values}, handle)

    def merge(self, path, op):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.counts.update(data["counts"])
        for key, values in data["values"].items():
            self.values[key].extend(values)

    # -- aggregation -------------------------------------------------------------

    def span_times(self) -> dict[str, float]:
        """Total time per span name; self time for the names in SELF_TIME."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - (child[i] if name in SELF_TIME else 0.0)
        return totals


# ---------------------------------------------------------------------------
# hooks that turn results into counters
# ---------------------------------------------------------------------------

def _cache_get(tracer, result, args):
    tracer.counts["ingest.cache_hits"] += result is not None


def _fetch(tracer, record, args):
    tracer.counts["ingest.pages_missing"] += record.missing
    if record.disambiguation and any(
        tracer.spans[i][0] == "ingest.resolve" for i in tracer.stack
    ):
        tracer.counts["ingest.disambiguations_expanded"] += 1


def _truncated(tracer, result, args):
    record, limit = args
    tracer.counts["ingest.pages_truncated"] += len(record.outlinks) > limit


def _isolate(tracer, sub, args):
    tracer.counts["graph.closure_edges"] += sub.graph_degree


def _select(tracer, best, args):
    graph = args[0]
    tracer.counts["graph.best_closure_edges"] += best.graph_degree
    tracer.counts["graph.nodes"] += graph.node_count
    tracer.counts["graph.edges"] += graph.edge_count
    tracer.counts["graph.best_nodes"] += len(best)
    tracer.counts["graph.best_edges"] += best.graph_degree


def _crawled(tracer, graph, args):
    tracer.counts["graph.crawled_nodes"] += graph.node_count
    tracer.counts["graph.crawled_edges"] += graph.edge_count


def _pagerank(tracer, result, args):
    tracer.counts["centrality.pagerank_iterations"] += result.iterations
    tracer.counts["centrality.pagerank_runs"] += 1
    tracer.counts["centrality.pagerank_converged"] += result.converged


def _shortfall(tracer, result, args):
    tracer.counts["expand.shortfalls"] += result.shortfall


def _wbf(tracer, fused, args):
    tracer.counts["fusion.lists_fused"] += len(args[0])
    tracer.counts["fusion.urls_fused"] += len(fused.entries)


def install(tracer: Tracer) -> None:
    """Wrap wikiqe's public functions wherever they are looked up."""
    import wikiqe
    from wikiqe import centrality, cli, config, expand, fusion, graph, ingest, metrics, text

    modules = (wikiqe, cli, config, text, ingest, graph, centrality, expand, fusion, metrics)
    fn = functools.partial(tracer.wrap_function, modules)
    method = tracer.wrap_method
    term_from_title = expand.term_from_title

    def term_lists(tracer, lists, args):
        # Titles needed to fill each list's top-k window (k = 100, the
        # expand_query default), against titles converted; counted after
        # the round so the extra work stays outside every span.
        table = args[0]

        def count_useful():
            for titles in (table.degree_list, table.closeness_list, table.pagerank_list):
                seen = set()
                for used, title in enumerate(titles, start=1):
                    seen.add(term_from_title(title))
                    if len(seen) >= 100:
                        break
                tracer.counts["expand.titles_useful"] += used if titles else 0

        tracer.deferred.append(count_useful)

    method(config.RunConfig, "load", span="config.load")
    fn(text, "default_stopwords", span="text.stopwords_load")
    fn(text, "load_stopwords", span="text.stopwords_load")

    method(ingest.PageCache, "__init__", span="ingest.cache_open")
    for name in ("get_page", "get_search"):
        method(ingest.PageCache, name, span="ingest.cache_get", count="ingest.cache_gets", after=_cache_get)
    for name in ("put_page", "put_search"):
        method(ingest.PageCache, name, span="ingest.cache_put", count="ingest.cache_puts")
    method(ingest.PageRecord, "truncated", after=_truncated)
    method(ingest.WikiClient, "page", span="ingest.client_page", count="ingest.client_calls")
    method(ingest.WikiClient, "search", span="ingest.client_search", count="ingest.client_calls")
    method(ingest.WikiSource, "fetch_page", count="ingest.pages_fetched", after=_fetch)
    method(ingest.WikiSource, "resolve_candidates", span="ingest.resolve")
    method(ingest.WikiSource, "build_graph", span="ingest.build_graph", after=_crawled)

    method(graph.OntologyGraph, "add_page", span="graph.add_page", count="graph.add_page_calls")
    method(graph.OntologyGraph, "isolate_subgraph", span="graph.isolate",
           count="graph.isolate_calls", after=_isolate)
    method(graph.OntologyGraph, "select_best_concept", span="graph.select_best", after=_select)
    method(graph.OntologyGraph, "dumps", span="graph.dumps")

    fn(centrality, "degree", span="centrality.degree")
    fn(centrality, "closeness", span="centrality.closeness")
    fn(centrality, "pagerank", span="centrality.pagerank", after=_pagerank)
    fn(centrality, "build_table", span="centrality.build_table")

    fn(expand, "term_from_title", count="expand.titles_converted")
    fn(expand, "term_lists", count="expand.term_lists_calls", after=term_lists)
    fn(expand, "borda_combine", span="expand.borda")
    fn(expand, "filter_terms", span="expand.filter")
    fn(expand, "expand_query", span="expand.expand_query", after=_shortfall)
    fn(expand, "source_term_lists", span="expand.source_term_lists")
    fn(expand, "thesaurus_expand", span="expand.thesaurus", after=_shortfall)

    fn(fusion, "run_mse", span="fusion.run_mse")
    fn(fusion, "wbf_merge", span="fusion.wbf_merge", after=_wbf)
    method(fusion.FixtureEngineAdapter, "search", span="fusion.engine_search",
           count="fusion.engine_searches")

    method(metrics.JudgmentSet, "from_csv", span="metrics.judgments_load")
    for name in ("precision_at", "success_at", "ndcg_at"):
        fn(metrics, name, span="metrics.score", count="metrics.scores_computed")
    fn(metrics, "cohens_kappa", span="metrics.kappa")


def layer_values(tracer: Tracer, rounds: int, units: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics (``units`` maps each name to its unit): times and
    counts per traced round, ratios as is, over ``rounds`` traced rounds.
    """
    tracer.run_deferred()
    times = tracer.span_times()
    c = tracer.counts
    per = max(rounds, 1)
    out = {}
    for name, unit in units.items():
        if unit == "s":
            span = name[: -len("_self_s")] if name.endswith("_self_s") else name[: -len("_s")]
            out[name] = times.get(span, 0.0) / per
        elif unit == "count":
            out[name] = c.get(name, 0) / per
    for name in ("cli.interpreter_s", "cli.import_s", "cli.import_requests_s"):
        out[name] = sum(tracer.values.get(name, ())) / per
    puts = sorted(
        end - start for name, start, end, *_ in tracer.spans if name == "ingest.cache_put"
    )
    out["ingest.cache_put_p50_s"] = statistics.median(puts) if puts else 0.0
    out["ingest.cache_put_tail_s"] = tail(puts)[0] if puts else 0.0
    out["ingest.requests"] = tracer.counts.get("ingest.transport_calls", 0) / per
    out["ingest.retries"] = (c.get("ingest.transport_calls", 0) - c.get("ingest.client_calls", 0)) / per
    out["fusion.engine_failures"] = c.get("fusion.engine_search.errors", 0) / per
    out["ingest.cache_hit_ratio"] = _ratio(c.get("ingest.cache_hits", 0), c.get("ingest.cache_gets", 0))
    out["graph.select_useful_ratio"] = _ratio(c.get("graph.best_closure_edges", 0),
                                              c.get("graph.closure_edges", 0))
    out["centrality.pagerank_converged_ratio"] = _ratio(c.get("centrality.pagerank_converged", 0),
                                                        c.get("centrality.pagerank_runs", 0))
    out["expand.title_useful_ratio"] = _ratio(c.get("expand.titles_useful", 0),
                                              c.get("expand.titles_converted", 0))
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def traced_main(entered: float) -> int:
    """Body of the traced CLI entry script (see wikiqe_cli.py)."""
    import os
    import sys

    tracer = Tracer()
    tracer.values["cli.interpreter_s"].append(entered - float(os.environ["WIKIQE_BENCH_SPAWN"]))
    start = perf_counter()
    import requests  # noqa: F401  (timed on its own: only live crawling needs it)
    after_requests = perf_counter()
    import wikiqe.cli
    tracer.values["cli.import_requests_s"].append(after_requests - start)
    tracer.values["cli.import_s"].append(perf_counter() - start)
    install(tracer)
    try:
        return wikiqe.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["WIKIQE_BENCH_TRACE"])
