"""Command-line interface wiring ingestion, expansion, fusion and evaluation.

Subcommands::

    wikiqe expand QUERY --m 2       expand a query, print terms + rewrite
    wikiqe gold QUERY --k 10        write the fused pseudo-relevant gold set
    wikiqe eval --runs D --gold D   score run files against gold files
    wikiqe bench --queries FILE     per-query post-graph QE timing

Every command is reproducible in snapshot/fixture mode: identical inputs
give identical output files (timing columns aside). Exit codes: 0 ok,
1 error, 2 expansion shortfall.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .centrality import build_table
from .config import RunConfig, benchmark_queries, query_slug
from .expand import expand_query, rewrite
from .fusion import (
    FixtureEngineAdapter,
    FusionError,
    KnowledgeWeights,
    gold_source_lists,
    gold_variants,
    run_mse,
)
from .graph import GraphError
from .ingest import IngestError, WikiSource
from .metrics import (
    NDCG_CUTOFFS,
    PRECISION_CUTOFFS,
    EvalReport,
    JudgmentSet,
    cohens_kappa,
    ndcg_at,
    precision_at,
    success_at,
    timed,
)
from .text import default_stopwords, load_stopwords


def _configure(args) -> RunConfig:
    config = RunConfig.load(args.config) if args.config else RunConfig()
    if getattr(args, "preset", None):
        config.apply_preset(args.preset)
    if getattr(args, "weights", None):
        try:
            d, c, p = (int(v) for v in args.weights.split(","))
        except ValueError:
            raise SystemExit("--weights expects three integers: degree,closeness,pagerank")
        config.weights = KnowledgeWeights(degree=d, closeness=c, pagerank=p)
    if getattr(args, "snapshot", None):
        config.snapshot_dir = Path(args.snapshot)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "out", None):
        config.output_dir = Path(args.out)
    return config


def _stopwords(config: RunConfig):
    if config.stopwords_path:
        return load_stopwords(config.stopwords_path)
    return default_stopwords()


def _source(config: RunConfig) -> WikiSource:
    return WikiSource.from_env(
        snapshot_dir=config.snapshot_dir,
        request_interval=config.crawl.request_interval,
    )


def _pipeline_table(config: RunConfig, query: str):
    """Common front half: crawl/load graph, pick concept, score it."""
    source = _source(config)
    graph = source.build_graph(query, config.crawl)
    best = graph.select_best_concept()
    table = build_table(best, config.pagerank)
    return graph, best, table


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    config = _configure(args)
    graph, best, table = _pipeline_table(config, args.query)
    result = expand_query(table, args.query, args.m, _stopwords(config))

    config.output_dir.mkdir(parents=True, exist_ok=True)
    dump_path = config.output_dir / f"{query_slug(args.query)}.graph.txt"
    dump_path.write_text(graph.dumps(), encoding="utf-8")

    print(f"query: {args.query}")
    print(f"concept: {best.root}")
    print(f"graph: {graph.node_count} nodes / {graph.edge_count} edges"
          f" (best subgraph: {len(best)} nodes / {best.graph_degree} edges)")
    for i, term in enumerate(result.qe_terms, start=1):
        sets = "+".join(result.provenance.get(term, [])) or "-"
        print(f"  {i}. {term}  borda={result.borda_scores.get(term, 0)} sets={sets}")
    if result.shortfall:
        print(f"warning: only {len(result.qe_terms)} of {args.m} terms survived filtering")
    print(f"rewritten: {rewrite(args.query, result)}")
    return 2 if result.shortfall else 0


def cmd_gold(args) -> int:
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    config = _configure(args)
    if config.serp_dir is None:
        raise FusionError("gold generation needs a SERP fixture directory (paths.serp_dir)")
    _, _, table = _pipeline_table(config, args.query)
    sources = gold_source_lists(
        table, args.query, config.weights, config.dictionaries, _stopwords(config), config.seed
    )
    variants = gold_variants(args.query, sources)
    adapter = FixtureEngineAdapter(config.serp_dir)
    outcome = run_mse(adapter, variants, config.engines, config.weights, cap=args.cap)
    for failure in outcome.failures:
        print(f"engine failure: {failure}", file=sys.stderr)
    gold_urls = outcome.fused.urls()[: args.k]

    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / f"{query_slug(args.query)}__gold_k{args.k}.urls"
    out_path.write_text("".join(url + "\n" for url in gold_urls), encoding="utf-8")
    fused_path = config.output_dir / f"{query_slug(args.query)}__fused.csv"
    fused_path.write_text(outcome.fused.to_csv(), encoding="utf-8")
    print(out_path)
    return 0


def cmd_eval(args) -> int:
    config = _configure(args)
    runs_dir = Path(args.runs)
    gold_dir = Path(args.gold)
    judgments = JudgmentSet.from_csv(args.judgments) if args.judgments else None
    slug_to_query = (
        {query_slug(q): q for q in judgments.queries()} if judgments else {}
    )

    reports: dict[str, EvalReport] = {}
    for run_file in sorted(runs_dir.glob("*.urls")):
        slug, sep, method = run_file.stem.partition("__")
        if not sep:
            print(f"skipping {run_file.name}: expected <query>__<method>.urls", file=sys.stderr)
            continue
        gold_file = gold_dir / f"{slug}.urls"
        if not gold_file.exists():
            print(f"skipping {run_file.name}: no gold file {gold_file.name}", file=sys.stderr)
            continue
        ranked = [ln.strip() for ln in run_file.read_text(encoding="utf-8").splitlines() if ln.strip()]
        gold = {ln.strip() for ln in gold_file.read_text(encoding="utf-8").splitlines() if ln.strip()}
        report = reports.setdefault(method, EvalReport(method=method))
        for x in PRECISION_CUTOFFS:
            report.record(slug, "P", x, precision_at(ranked, gold, x))
            report.record(slug, "S", x, success_at(ranked, gold, x))
        if judgments and slug in slug_to_query:
            query = slug_to_query[slug]
            judges = [j for j in judgments.judges() if judgments.query_grades(query, j)]
            if judges:
                for k in NDCG_CUTOFFS:
                    scores = [
                        ndcg_at(ranked, judgments.query_grades(query, judge), k)
                        for judge in judges
                    ]
                    report.record(slug, "NDCG", k, sum(scores) / len(scores))

    if judgments:
        agreement = EvalReport(method="judges")
        judges = judgments.judges()
        if len(judges) >= 2:
            for query in judgments.queries():
                a, b = judgments.paired_grades(judges[0], judges[1], query=query)
                if a:
                    agreement.record(query_slug(query), "kappa", 0, cohens_kappa(a, b))
        if agreement.values:
            reports["judges"] = agreement

    lines = ["query,method,metric,cutoff,value"]
    for method in sorted(reports):
        body = reports[method].to_csv().splitlines()[1:]
        lines.extend(body)
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(output, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(output)
    return 0


def cmd_bench(args) -> int:
    config = _configure(args)
    queries = [
        line.strip()
        for line in Path(args.queries).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    stopwords = _stopwords(config)
    source = _source(config)

    rows = []
    for query in queries:
        try:
            graph = source.build_graph(query, config.crawl)
        except IngestError as exc:
            print(f"skipping {query!r}: {exc}", file=sys.stderr)
            continue

        def qe_stage():
            best = graph.select_best_concept()
            table = build_table(best, config.pagerank)
            return expand_query(table, query, args.m, stopwords)

        result, seconds = timed(qe_stage)
        rows.append((query, seconds, " | ".join(result.qe_terms)))

    def write(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["query", "qe_seconds", "qe_terms"])
        for query, seconds, terms in rows:
            writer.writerow([query, f"{seconds:.6f}", terms])

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        print(args.out)
    else:
        write(sys.stdout)
    return 0


def cmd_queries(args) -> int:
    for query in benchmark_queries():
        print(query)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--snapshot", help="snapshot directory (overrides WMS_SNAPSHOT_DIR)")
    parser.add_argument("--preset", choices=["paper", "tuned"], help="weight preset")
    parser.add_argument("--weights", help="graph weights as degree,closeness,pagerank")
    parser.add_argument("--seed", type=int, help="seed for unranked-synonym sampling")
    parser.add_argument("--out", help="output directory (expand/gold) or file (eval/bench)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wikiqe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a query via the concept graph")
    p.add_argument("query")
    p.add_argument("--m", type=int, default=2, help="number of QE terms (default 2)")
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("gold", help="generate the fused pseudo-relevant gold set")
    p.add_argument("query")
    p.add_argument("--k", type=int, default=10, help="gold set size (default 10)")
    p.add_argument("--cap", type=int, default=200, help="per-list merge window (default 200)")
    _add_common(p)
    p.set_defaults(func=cmd_gold)

    p = sub.add_parser("eval", help="score run files against gold files")
    p.add_argument("--runs", required=True, help="dir of <query>__<method>.urls files")
    p.add_argument("--gold", required=True, help="dir of <query>.urls gold files")
    p.add_argument("--judgments", help="CSV of query,url,judge,grade rows")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time post-graph QE per query")
    p.add_argument("--queries", required=True, help="file with one query per line")
    p.add_argument("--m", type=int, default=2, help="number of QE terms (default 2)")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("queries", help="print the 30 benchmark queries")
    p.set_defaults(func=cmd_queries)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, GraphError, FusionError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
