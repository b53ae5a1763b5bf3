"""wikiqe benchmark: run one workload and print its metrics.

Usage, from the root of a wikiqe checkout::

    python3 benchmark/run.py --workload cli-fixtures --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times, runs rounds of its
operation mix for ``--seconds`` and reports the end-to-end metrics:

* ``main_pass_refs``: the round's main operations -- the ten ``expand``
  invocations (cli-fixtures), select -> build_table -> expand_query on the
  three graphs (qe-synthetic), the cold crawls (crawl-synthetic) -- each
  timed in units of a reference loop run next to it (workloads.
  reference_loop), the median over the run's rounds, summed. The ratio
  holds while the shared machine's own speed drifts, which the seconds do
  not;
* ``other_pass_refs``: the same for the rest of the mix -- ``gold``,
  ``eval`` and ``bench`` (cli-fixtures), source_term_lists (qe-synthetic),
  the warm crawls (crawl-synthetic);
* ``setup_s``: median of the repeated set-ups; ``peak_rss_mb``: peak RSS of
  the process doing the work (the largest child for cli-fixtures).

The report above the last line also gives, per operation kind, the median
and the tail (the highest percentile with ten samples beyond it) with
sample counts, the error rate, the input sizes and the passes in seconds
(``main_pass_s``, ``other_pass_s``: each operation at its fastest
repetition in the run, summed).

``--trace 1`` is the separate traced run: it sets up every workload once
and alternates untraced and traced rounds of each, sharing ``--seconds``
among them, and reports the per-layer metrics of BENCHMARK.json plus the
tracing overhead of each workload. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--record`` rewrites expected.json, the output digests the
checks compare against, from the code in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Set-up is repeated at least this often, and until it has taken this long,
# and setup_s is the median: one short set-up is too noisy to compare.
SETUP_REPEATS = (3, 2.0, 15)
# End-to-end metric names as the workloads' own operation kinds give them.
PREFIX = {"cli-fixtures": "cli", "qe-synthetic": "qe", "crawl-synthetic": "crawl"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PREFIX), default="cli-fixtures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the code in this checkout")
    return parser.parse_args(argv)


def checkout_root() -> Path:
    """The checkout the benchmark runs in: the current directory, which must
    hold the wikiqe sources and the bundled fixtures."""
    root = Path.cwd()
    missing = [p for p in ("src/wikiqe/__init__.py", "fixtures/config.json")
               if not (root / p).is_file()]
    if missing:
        sys.exit(f"benchmark: not a wikiqe checkout ({', '.join(missing)} missing in {root})")
    return root


def source_digest(root: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((root / "src" / "wikiqe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str | None:
    """The checkout's git commit, when it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_rounds(workload, rng, seconds, tracer=None, alternate=False):
    """Rounds until ``seconds`` have passed; with ``alternate``, untraced and
    traced rounds take turns and both kinds run at least once."""
    from tracing import install

    plain, traced = [], []
    start = perf_counter()
    while True:
        use_trace = alternate and len(traced) < len(plain)
        if use_trace and workload.in_process:
            install(tracer)
        try:
            rnd = workload.run_round(rng, tracer if use_trace else None)
        finally:
            if use_trace and workload.in_process:
                tracer.uninstall()
        (traced if use_trace else plain).append(rnd)
        done = perf_counter() - start >= seconds
        if done and (not alternate or traced):
            return plain, traced


def end_to_end(workload, rounds, setups):
    """The gated metrics (BENCHMARK.json end_to_end) and the report rows."""
    kinds = workload.kinds
    samples = {k: [v for r in rounds for (kind, _), v in r.times.items() if kind == k]
               for k in kinds}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # The passes in seconds take each operation of the mix at its fastest
    # repetition in the run and sum them; the gated passes take each
    # operation's median time in reference-loop units and sum them.
    best: dict[tuple, float] = {}
    for rnd in rounds:
        for key, seconds in rnd.times.items():
            best[key] = min(seconds, best.get(key, seconds))
    refs = {key: statistics.median(r.refs[key] for r in rounds if key in r.refs) for key in best}
    gated = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(workload.in_process),
        "main_pass_s": sum(v for (k, _), v in best.items() if k == kinds[0]),
        "other_pass_s": sum(v for (k, _), v in best.items() if k != kinds[0]),
        "main_pass_refs": sum(v for (k, _), v in refs.items() if k == kinds[0]),
        "other_pass_refs": sum(v for (k, _), v in refs.items() if k != kinds[0]),
    }
    from tracing import tail

    prefix = PREFIX[workload.name]
    rows = [("setup_s", gated["setup_s"], "s", len(setups)),
            ("peak_rss_mb", gated["peak_rss_mb"], "MB", 1),
            ("error_rate", failed / attempted, "ratio", attempted)]
    for i, kind in enumerate(kinds):
        values = samples[kind]
        rows.append((f"{prefix}_{kind}_p50_s", statistics.median(values), "s", len(values)))
        if i == 0:
            value, pct = tail(values)
            rows.append((f"{prefix}_{kind}_tail_s", value, f"s (p{pct:.0f})", len(values)))
    if workload.name == "qe-synthetic":
        nodes = sum(r.counts["best_nodes"] for r in rounds)
        rows.append(("qe_nodes_per_s", nodes / sum(samples["expand"]), "nodes/s", len(samples["expand"])))
    rows.append(("round_s", statistics.median(r.busy_s for r in rounds), "s", len(rounds)))
    for name in ("main_pass_s", "other_pass_s", "main_pass_refs", "other_pass_refs"):
        rows.append((name, gated[name], name.rsplit("_", 1)[1], len(rounds)))
    return gated, rows, attempted, failed


def timed_run(args, root, work, expected):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    least, seconds, most = SETUP_REPEATS
    setups = []
    while len(setups) < least or (sum(setups) < seconds and len(setups) < most):
        workload = None  # free the previous set-up's inputs first
        gc.collect()
        workload = cls(root, work, args.seed, expected)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    plain, _ = run_rounds(workload, random.Random(args.seed), args.seconds)
    gated, rows, attempted, failed = end_to_end(workload, plain, setups)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"rounds {len(plain)}  closed loop, 1 client")
    print(f"  {'metric':<24}{'value':>14}  {'unit':<12}{'samples':>8}")
    for name, value, unit, count in rows:
        print(f"  {name:<24}{value:>14.6g}  {unit:<12}{count:>8}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for rnd in plain:
        for error in rnd.errors:
            print(f"  FAILED: {error}")
    print("inputs " + json.dumps({"seed": args.seed, **workload.sizes()}, sort_keys=True))
    return gated, attempted, failed


def traced_run(args, root, work, expected, spec):
    from tracing import MOVES, Tracer, install, layer_values
    from workloads import WORKLOADS

    layer = [(*m["name"].split(".", 1), m["unit"]) for m in spec["per_layer"]]
    units = {metric: unit for _, metric, unit in layer}
    metrics, lines = {}, []
    attempted = failed = 0
    names = [name for name in WORKLOADS if any(w == name for w, _, _ in layer)]
    for name in names:
        workload = WORKLOADS[name](root, work / name, args.seed, expected)
        (work / name).mkdir(parents=True, exist_ok=True)
        setup_tracer, tracer = Tracer(), Tracer()
        if workload.in_process:
            install(setup_tracer)
        try:
            workload.setup()
        finally:
            setup_tracer.uninstall()
        share = args.seconds / len(names)
        plain, traced = run_rounds(workload, random.Random(args.seed), share, tracer, alternate=True)
        # A layer that runs only during set-up (graph construction on
        # qe-synthetic) reports what one set-up does.
        values = layer_values(tracer, len(traced), units)
        for key, value in layer_values(setup_tracer, 1, units).items():
            if not values[key]:
                values[key] = value
        values["trace_overhead_s"] = (statistics.median(r.busy_s for r in traced)
                                      - statistics.median(r.busy_s for r in plain))
        for rnd in plain + traced:
            attempted += rnd.attempted
            failed += rnd.failed
            for error in rnd.errors:
                lines.append(f"  FAILED ({name}): {error}")
        lines.append(f"workload {name}: {len(plain)} untraced and {len(traced)} traced rounds; "
                     f"{len(tracer.spans)} spans")
        for workload, metric, unit in layer:
            if workload == name:
                metrics[f"{name}.{metric}"] = {"value": values[metric], "unit": unit}
                lines.append(f"  {metric:<36}{values[metric]:>14.6g} {unit:<6} should move {MOVES[metric]}")
        span_file = root / ".bench_work" / f"trace-{name}-seed{args.seed}.json"
        tracer.dump(span_file)
        lines.append(f"  spans written to {span_file.relative_to(root)}")
    print("per-layer metrics: times and counts per traced round (set-up-only layers: per set-up)")
    print("\n".join(lines))
    return metrics, attempted, failed


def record(root, work):
    """Digests of the outputs of the code in this checkout, for the checks."""
    from workloads import EXPECTED_PATH, VARIANTS, CliFixtures, CrawlSynthetic, QeSynthetic

    recorded = {}
    cli = CliFixtures(root, work, 0, None)
    cli.setup()
    cli.run_round(random.Random(0))
    recorded.update(cli.recorded)
    for variant in range(VARIANTS):
        for cls in (QeSynthetic, CrawlSynthetic):
            workload = cls(root, work, variant, None)
            workload.setup()
            workload.run_round(random.Random(0))
            recorded.update(workload.recorded)
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {EXPECTED_PATH}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("WMS_SNAPSHOT_DIR", None)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            record(root, work)
            return 0
        from workloads import EXPECTED_PATH

        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.trace:
            metrics, attempted, failed = traced_run(args, root, work, expected, spec)
        else:
            gated, attempted, failed = timed_run(args, root, work, expected)
            metrics = {m["name"]: {"value": gated[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("environment " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(root), "src_sha256": source_digest(root),
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
