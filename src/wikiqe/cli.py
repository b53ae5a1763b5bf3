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
import sys
from pathlib import Path

from .text import (_csv_text, _read_text, _ReportedError, benchmark_queries, default_stopwords,
                   load_stopwords, query_slug)

# Each command imports the modules its flow runs where it calls them, so a
# run loads only those: ``eval`` never loads the crawl, graph or centrality
# code, ``expand`` never loads fusion or metrics. A name imported in a
# function body is read from its module at call time, which is where
# tracing wrappers sit.


def _configure(args) -> RunConfig:
    from .config import RunConfig

    config = RunConfig.load(args.config) if args.config else RunConfig()
    if args.snapshot:
        config.snapshot_dir = Path(args.snapshot)
    return config


def _stopwords(config: RunConfig):
    if config.stopwords_path:
        return load_stopwords(config.stopwords_path)
    return default_stopwords()


def _source(config: RunConfig) -> WikiSource:
    """A snapshot source if the config names a snapshot directory (IngestError
    if it is not one), else a live source caching in ``~/.cache/wikiqe``."""
    from .ingest import IngestError, PageCache, WikiSource

    if config.snapshot_dir:
        if not config.snapshot_dir.is_dir():
            raise IngestError(f"snapshot {config.snapshot_dir}: not a directory")
        return WikiSource(PageCache(config.snapshot_dir))
    from ._live import WikiClient

    client = WikiClient(request_interval=config.crawl.request_interval)
    return WikiSource(PageCache(Path.home() / ".cache" / "wikiqe"), client)


def _best_table(config: RunConfig, graph):
    """Pick the best concept of a crawled graph and score its subgraph."""
    from .centrality import build_table

    best = graph.select_best_concept()
    return best, build_table(best, config.pagerank)


def _expand(config: RunConfig, graph, query: str, m: int, stopwords):
    """The post-graph QE stage: ``expand`` prints it, ``bench`` times it."""
    from .expand import expand_query

    best, table = _best_table(config, graph)
    return best, expand_query(table, query, m, stopwords)


def _output_dir(args, config: RunConfig) -> Path:
    out_dir = Path(args.out) if args.out else config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_report(out: str | None, text: str) -> None:
    """Write ``text`` to the ``--out`` file and print its path, or to stdout."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        print(out)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    from .expand import rewrite

    if args.m < 1:
        raise ValueError(f"m must be >= 1, got {args.m}")
    config = _configure(args)
    graph = _source(config).build_graph(args.query, config.crawl)
    best, result = _expand(config, graph, args.query, args.m, _stopwords(config))

    dump_path = _output_dir(args, config) / f"{query_slug(args.query)}.graph.txt"
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
    print(f"rewritten: {rewrite(args.query, result.qe_terms)}")
    return 2 if result.shortfall else 0


def cmd_gold(args) -> int:
    from .fusion import FixtureEngineAdapter, FusionError, gold_variants, run_mse

    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    if args.cap < 1:
        raise ValueError(f"cap must be >= 1, got {args.cap}")
    config = _configure(args)
    if config.serp_dir is None:
        raise FusionError("gold generation needs a SERP fixture directory (paths.serp_dir)")
    graph = _source(config).build_graph(args.query, config.crawl)
    _, table = _best_table(config, graph)
    variants = gold_variants(
        table, args.query, config.weights, config.dictionaries, _stopwords(config), config.seed
    )
    adapter = FixtureEngineAdapter(config.serp_dir)
    outcome = run_mse(adapter, variants, config.engines, config.weights, cap=args.cap)
    for failure in outcome.failures:
        print(f"engine failure: {failure}", file=sys.stderr)
    gold_urls = outcome.fused.urls()[: args.k]

    out_dir = _output_dir(args, config)
    out_path = out_dir / f"{query_slug(args.query)}__gold_k{args.k}.urls"
    out_path.write_text("".join(url + "\n" for url in gold_urls), encoding="utf-8")
    fused_path = out_dir / f"{query_slug(args.query)}__fused.csv"
    fused_path.write_text(outcome.fused.to_csv(), encoding="utf-8")
    print(out_path)
    return 0


def _read_urls(path: Path) -> list[str]:
    """The stripped non-blank lines of a URL file."""
    return [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]


def cmd_eval(args) -> int:
    from .metrics import EvalReport, JudgmentSet, csv_table

    for flag, path in (("--runs", args.runs), ("--gold", args.gold)):
        if not Path(path).is_dir():
            raise NotADirectoryError(f"{flag} {path}: not a directory")
    judgments = JudgmentSet.from_csv(args.judgments) if args.judgments else JudgmentSet({})
    by_slug: dict[str, list[str]] = {}  # run files name a query by its slug only
    for query in judgments.queries():
        by_slug.setdefault(query_slug(query), []).append(query)
    judged = {}  # query -> slug, for the slugs exactly one judged query gives
    for slug, queries in by_slug.items():
        if len(queries) > 1:
            *others, last = map(repr, queries)
            print(f"skipping judgments for {slug}: queries {', '.join(others)} and {last} "
                  "share it", file=sys.stderr)
        else:
            judged[queries[0]] = slug
    judge_grades = {  # slug -> one url -> grade map per judge of the query
        slug: [judgments.query_grades(q, judge) for judge in judgments.graders(q)]
        for q, slug in judged.items()
    }

    reports: dict[str, EvalReport] = {}
    for run_file in sorted(Path(args.runs).glob("*.urls")):
        slug, sep, method = run_file.stem.partition("__")
        gold_file = Path(args.gold) / f"{slug}.urls"
        try:
            if not sep:
                raise ValueError("expected <query>__<method>.urls")
            if not gold_file.exists():
                raise ValueError(f"no gold file {gold_file.name}")
            ranked, gold = _read_urls(run_file), set(_read_urls(gold_file))
        except (OSError, ValueError) as exc:
            print(f"skipping {run_file.name}: {exc}", file=sys.stderr)
            continue
        report = reports.setdefault(method, EvalReport(method))
        report.score(slug, ranked, gold, judge_grades.get(slug, []))

    agreement = {judged[q]: {("kappa", 0): k} for q, k in judgments.kappas().items() if q in judged}
    if agreement:
        reports["judges"] = EvalReport("judges", agreement)
    _write_report(args.out, csv_table([reports[method] for method in sorted(reports)]))
    return 0


def cmd_bench(args) -> int:
    from time import perf_counter

    from .ingest import IngestError, search_key

    if args.m < 1:
        raise ValueError(f"m must be >= 1, got {args.m}")
    config = _configure(args)
    lines = (line.strip() for line in _read_text(args.queries).splitlines())
    queries = [line for line in lines if line and not line.startswith("#")]
    stopwords = _stopwords(config)
    source = _source(config)

    graphs = {}  # by search key; a failed crawl is not kept, so each query reports it
    rows = []
    for query in queries:
        try:
            key = search_key(query)
            if key not in graphs:
                graphs[key] = source.build_graph(query, config.crawl)
        except IngestError as exc:
            print(f"skipping {query!r}: {exc}", file=sys.stderr)
            continue
        start = perf_counter()
        _, result = _expand(config, graphs[key], query, args.m, stopwords)
        seconds = perf_counter() - start
        rows.append([query, f"{seconds:.6f}", " | ".join(result.qe_terms)])
    _write_report(args.out, _csv_text(["query", "qe_seconds", "qe_terms"], rows))
    return 0


def cmd_queries(args) -> int:
    for query in benchmark_queries():
        print(query)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--snapshot", help="snapshot directory (overrides paths.snapshot_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wikiqe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    out_dir = "output directory (default: the config's output_dir)"
    out_file = "CSV file to write instead of stdout"

    p = sub.add_parser("expand", help="expand a query via the concept graph")
    p.add_argument("query")
    p.add_argument("--m", type=int, default=2, help="number of QE terms (default 2)")
    _add_run_config(p)
    p.add_argument("--out", help=out_dir)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("gold", help="generate the fused pseudo-relevant gold set")
    p.add_argument("query")
    p.add_argument("--k", type=int, default=10, help="gold set size (default 10)")
    p.add_argument("--cap", type=int, default=200, help="per-list merge window (default 200)")
    _add_run_config(p)
    p.add_argument("--out", help=out_dir)
    p.set_defaults(func=cmd_gold)

    p = sub.add_parser("eval", help="score run files against gold files")
    p.add_argument("--runs", required=True, help="dir of <query>__<method>.urls files")
    p.add_argument("--gold", required=True, help="dir of <query>.urls gold files")
    p.add_argument("--judgments", help="CSV of query,url,judge,grade rows")
    p.add_argument("--out", help=out_file)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time post-graph QE per query")
    p.add_argument("--queries", required=True, help="file with one query per line")
    p.add_argument("--m", type=int, default=2, help="number of QE terms (default 2)")
    _add_run_config(p)
    p.add_argument("--out", help=out_file)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("queries", help="print the 30 benchmark queries")
    p.set_defaults(func=cmd_queries)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_ReportedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
