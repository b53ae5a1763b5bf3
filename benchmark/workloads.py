"""The three benchmark workloads.

Each is a closed loop with one client. A workload is set up, then runs
rounds until the time is up; a round always completes, so every operation
of the round's fixed mix is sampled equally often. A round returns its
timed samples per operation kind, plus attempted and failed counts; an
operation fails on an exception, an unexpected exit code or an output that
does not match its check.

* cli-fixtures: ``wikiqe`` subprocesses on the bundled fixtures.
* qe-synthetic: in-process post-graph QE on seeded crawl-shaped graphs.
* crawl-synthetic: ``WikiSource.build_graph`` against a seeded synthetic
  Wikipedia, cold (live, writing the cache) then warm (snapshot, reading).
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import wikiqe
from wikiqe.config import BASIC_QUERIES, query_slug

import gen
from tracing import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
# The seed picks one of this many input variants (graph sets, synthetic
# wikis); expected.json holds the outputs of each.
VARIANTS = 16
# Short operations run this often per round and keep their fastest time,
# so that they are sampled about as well as the long ones.
REPEATS = 3


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:32]


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python job of dict updates and a
    breadth-first search, the kind of work wikiqe does.

    A shared machine's speed can drift by half or more over tens of
    seconds (a 2-vCPU VM ran a pure-Python loop in 45 ms and in 77 ms a few
    seconds apart). Timed next to each operation, this job shows how fast
    the machine was just then. The garbage collector is off while it runs,
    so its time does not depend on how much the program keeps alive.
    """
    gc.disable()
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 3000] = counts.get(i % 3000, 0) + i
    adjacency = {i: [(7 * i + 1) % 3000, (13 * i + 5) % 3000] for i in range(3000)}
    seen, order = {0}, [0]
    for node in order:
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


class Round:
    def __init__(self):
        self.times: dict[tuple[str, object], float] = {}  # (kind, operation) -> seconds
        self.refs: dict[tuple[str, object], float] = {}  # ... -> seconds / reference_loop()
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._last_ref: float | None = None

    def record(self, kind: str, key, seconds: float) -> None:
        """One timed operation; ``key`` names it within the round's mix. An
        operation repeated within the round keeps its fastest time. The
        reference loop runs right after it, and the faster of that run and
        the one before the operation is its reference."""
        ref = reference_loop()
        base = min(ref, self._last_ref or ref)
        self._last_ref = ref
        self.times[kind, key] = min(seconds, self.times.get((kind, key), seconds))
        self.refs[kind, key] = min(seconds / base, self.refs.get((kind, key), seconds / base))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def busy_s(self) -> float:
        return sum(self.times.values())


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    in_process = True

    def __init__(self, root: Path, work: Path, seed: int, expected: dict | None):
        self.root = root
        self.work = work
        self.seed = seed
        self.expected = expected  # None while recording the expected outputs
        self.recorded: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rng: random.Random, tracer: Tracer | None = None) -> Round:
        raise NotImplementedError

    def sizes(self) -> dict:
        """Input sizes reported with every result."""
        raise NotImplementedError

    def check(self, key: str, value: str, rnd: Round, what: str) -> None:
        """Compare an output digest with the one recorded on the seed code."""
        if self.expected is None:
            self.recorded[key] = value
        elif self.expected.get(key) != value:
            rnd.fail(f"{what}: output digest {value} != expected {self.expected.get(key)}")


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

GOLD_QUERY = "adolescent alcoholism"


class CliFixtures(Workload):
    """One round: ``expand`` for each basic query, then REPEATS times each
    ``gold`` for the one query with SERPs, ``eval`` over run/gold files made
    at set-up and ``bench`` over the 30 benchmark queries; in a seeded
    order, one at a time."""

    name = "cli-fixtures"
    kinds = ("expand", "gold", "eval", "bench")
    in_process = False

    def setup(self) -> None:
        fixtures = self.root / "fixtures"
        self.config = str(fixtures / "config.json")
        runs, gold = self.work / "runs", self.work / "goldset"
        shutil.rmtree(runs, ignore_errors=True)
        shutil.rmtree(gold, ignore_errors=True)
        runs.mkdir(parents=True)
        gold.mkdir(parents=True)
        # Run files: one per recorded SERP, named after engine and source.
        for path in sorted((fixtures / "serp").glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            source = payload["results"][0]["title"].split()[0]
            name = f"{query_slug(GOLD_QUERY)}__{payload['engine']}-{source}.urls"
            (runs / name).write_text("".join(r["url"] + "\n" for r in payload["results"]),
                                     encoding="utf-8")
        # Gold file: every URL some judge graded relevant.
        with open(fixtures / "judgments.csv", encoding="utf-8", newline="") as handle:
            relevant = sorted({row["url"] for row in csv.DictReader(handle)
                               if row["query"] == GOLD_QUERY and int(row["grade"]) > 0})
        (gold / f"{query_slug(GOLD_QUERY)}.urls").write_text(
            "".join(url + "\n" for url in relevant), encoding="utf-8")

        self.commands = [("expand", q) for q in BASIC_QUERIES]
        self.commands += [("gold", GOLD_QUERY), ("eval", None), ("bench", None)] * REPEATS
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for kind in self.kinds:  # one untimed warm-up per command
            warm = Round()
            self._invoke(next(c for c in self.commands if c[0] == kind), warm, None)
            if warm.failed:
                raise RuntimeError(f"warm-up of {kind} failed: {warm.errors}")

    def _argv(self, kind: str, query: str | None, out: Path) -> list[str]:
        entry = [sys.executable, str(HERE / "wikiqe_cli.py")]
        if kind == "expand":
            return entry + ["expand", query, "--m", "2", "--config", self.config, "--out", str(out)]
        if kind == "gold":
            return entry + ["gold", query, "--k", "10", "--config", self.config, "--out", str(out)]
        if kind == "eval":
            return entry + ["eval", "--runs", str(self.work / "runs"), "--gold",
                            str(self.work / "goldset"), "--judgments",
                            str(self.root / "fixtures" / "judgments.csv")]
        return entry + ["bench", "--queries", str(self.root / "fixtures" / "queries.txt"),
                        "--config", self.config]

    def _invoke(self, command, rnd: Round, tracer: Tracer | None) -> None:
        kind, query = command
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        env = self.env
        if tracer is not None:
            span_file = self.work / "spans.json"
            span_file.unlink(missing_ok=True)
            env = dict(env, WIKIQE_BENCH_TRACE=str(span_file),
                       WIKIQE_BENCH_SPAWN=repr(time.time()))
        rnd.attempted += 1
        label = f"{kind} {query or ''}".strip()
        start = perf_counter()
        try:
            proc = subprocess.run(self._argv(kind, query, out), env=env, cwd=self.work,
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            rnd.fail(f"{label}: timed out")
            return
        rnd.record(kind, query or kind, perf_counter() - start)
        if tracer is not None and span_file.exists():
            tracer.op += 1
            tracer.merge(span_file, tracer.op)
        self._check(kind, query, proc, out, rnd, label)

    def _check(self, kind, query, proc, out, rnd, label):
        if kind == "expand":
            dump = out / f"{query_slug(query)}.graph.txt"
            value = digest(str(proc.returncode), proc.stdout,
                           dump.read_text(encoding="utf-8") if dump.exists() else "")
            return self.check(f"expand/{query}", value, rnd, label)
        if proc.returncode != 0:
            return rnd.fail(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if kind == "gold":
            slug = query_slug(query)
            files = [out / f"{slug}__gold_k10.urls", out / f"{slug}__fused.csv"]
            if not all(f.exists() for f in files):
                return rnd.fail(f"{label}: output files missing")
            value = digest(*(f.read_text(encoding="utf-8") for f in files))
        elif kind == "bench":
            rows = list(csv.reader(io.StringIO(proc.stdout)))
            value = digest(*(",".join(r[:1] + r[2:]) for r in rows))  # drop qe_seconds
        else:
            value = digest(proc.stdout)
        self.check(kind, value, rnd, label)

    def run_round(self, rng, tracer=None) -> Round:
        rnd = Round()
        order = list(self.commands)
        rng.shuffle(order)
        for command in order:
            self._invoke(command, rnd, tracer)
        return rnd

    def sizes(self) -> dict:
        runs = len(list((self.work / "runs").glob("*.urls")))
        return {"commands_per_round": len(self.commands), "expand_queries": len(BASIC_QUERIES),
                "bench_queries": 30, "run_files": runs, "lists_fused_by_gold": runs}


# ---------------------------------------------------------------------------
# qe-synthetic
# ---------------------------------------------------------------------------

QE_SIZES = (2_500, 5_000, 10_000)


class QeSynthetic(Workload):
    """One round: for each graph, select -> build_table -> expand_query(m=2)
    (the user path), then source_term_lists on the same table (gold path),
    REPEATS times."""

    name = "qe-synthetic"
    kinds = ("expand", "gold_terms")

    def setup(self) -> None:
        self.variant = self.seed % VARIANTS
        self.best_sizes: dict[int, tuple[int, int]] = {}
        self.graphs = [
            gen.concept_graph(random.Random(f"qe-{self.variant}-{size}"), size)
            for size in QE_SIZES
        ]

    def run_round(self, rng, tracer=None) -> Round:
        rnd = Round()
        order = list(range(len(self.graphs)))
        rng.shuffle(order)
        for i in order:
            graph, query = self.graphs[i]
            size = QE_SIZES[i]
            key = f"qe/{self.variant}/{size}"
            rnd.attempted += 1
            if tracer is not None:
                tracer.op += 1
            try:
                start = perf_counter()
                best = graph.select_best_concept()
                table = wikiqe.build_table(best)
                result = wikiqe.expand_query(table, query, 2)
                rnd.record("expand", size, perf_counter() - start)
            except Exception as exc:  # a failed operation is counted, not fatal
                rnd.fail(f"graph {size}: {type(exc).__name__}: {exc}")
                continue
            rnd.counts["best_nodes"] += len(best)
            self.best_sizes[size] = (len(best), best.graph_degree)
            self.check(key + "/expand", digest(json.dumps(
                [result.qe_terms, result.borda_scores, result.provenance, result.shortfall],
                sort_keys=True)), rnd, f"expand_query on {size}-node graph")
            for _ in range(REPEATS):
                rnd.attempted += 1
                try:
                    start = perf_counter()
                    lists = wikiqe.source_term_lists(table, query)
                    rnd.record("gold_terms", size, perf_counter() - start)
                except Exception as exc:
                    rnd.fail(f"source_term_lists on {size}: {type(exc).__name__}: {exc}")
                    continue
                self.check(key + "/gold_terms", digest(json.dumps(
                    {s: lst.terms for s, lst in lists.items()}, sort_keys=True)),
                    rnd, f"source_term_lists on {size}-node graph")
        return rnd

    def sizes(self) -> dict:
        return {
            "variant": self.variant,
            "graphs": [
                {"nodes": g.node_count, "edges": g.edge_count, "roots": len(g.roots),
                 "best_nodes": self.best_sizes.get(size, (0, 0))[0],
                 "best_edges": self.best_sizes.get(size, (0, 0))[1]}
                for (g, _), size in zip(self.graphs, QE_SIZES)
            ],
        }


# ---------------------------------------------------------------------------
# crawl-synthetic
# ---------------------------------------------------------------------------

class CrawlSynthetic(Workload):
    """One round: every query crawled live into a fresh empty cache (cold),
    then every query REPEATS times from that cache in snapshot mode with a
    fresh WikiSource each time (warm), as each CLI command builds one."""

    name = "crawl-synthetic"
    kinds = ("cold", "warm")

    def setup(self) -> None:
        self.crawl = wikiqe.RunConfig.load(self.root / "fixtures" / "config.json").crawl
        self.variant = self.seed % VARIANTS
        self.wiki = gen.SyntheticWiki(random.Random(f"crawl-{self.variant}"))
        self.graph_sizes: dict[str, tuple[int, int]] = {}
        self.round_no = 0

    def run_round(self, rng, tracer=None) -> Round:
        rnd = Round()
        wiki = self.wiki
        self.round_no += 1
        cache_dir = self.work / f"cache-{self.round_no}"
        transport = wiki.transport
        if tracer is not None:
            transport = tracer.wrap_callable(transport, "ingest.transport", "ingest.transport_calls")
        failures_before = wiki.failures
        client = wikiqe.WikiClient(transport=transport, request_interval=0, sleep=lambda s: None)
        cold_source = wikiqe.WikiSource(wikiqe.PageCache(cache_dir), client)
        queries = list(enumerate(wiki.queries))
        rng.shuffle(queries)
        dumps: dict[str, str] = {}
        for position, (number, query) in enumerate(queries):
            rnd.attempted += 1
            if tracer is not None:
                tracer.op += 1
            try:
                start = perf_counter()
                graph = cold_source.build_graph(query, self.crawl)
                rnd.record("cold", position, perf_counter() - start)
            except Exception as exc:
                rnd.fail(f"cold {query!r}: {type(exc).__name__}: {exc}")
                continue
            if graph.roots != wiki.expected_roots[query]:
                rnd.fail(f"cold {query!r}: roots {graph.roots} != {wiki.expected_roots[query]}")
            dumps[query] = graph.dumps()
            self.check(f"crawl/{self.variant}/{number}", digest(dumps[query]), rnd,
                       f"cold crawl of {query!r}")
            self.graph_sizes[query] = (graph.node_count, graph.edge_count)
        for _ in range(REPEATS):
            for position, (_, query) in enumerate(queries):
                rnd.attempted += 1
                if tracer is not None:
                    tracer.op += 1
                try:
                    start = perf_counter()
                    graph = wikiqe.WikiSource(wikiqe.PageCache(cache_dir)).build_graph(query, self.crawl)
                    rnd.record("warm", position, perf_counter() - start)
                except Exception as exc:
                    rnd.fail(f"warm {query!r}: {type(exc).__name__}: {exc}")
                    continue
                if graph.dumps() != dumps.get(query):
                    rnd.fail(f"warm {query!r}: graph differs from the cold crawl")
        if wiki.failures != failures_before:
            rnd.fail(f"{wiki.failures - failures_before} transport requests failed and were retried")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return rnd

    def sizes(self) -> dict:
        nodes = [n for n, _ in self.graph_sizes.values()]
        edges = [e for _, e in self.graph_sizes.values()]
        return {"variant": self.variant, "queries": len(self.wiki.queries),
                "wiki_pages": len(self.wiki.html),
                "graph_nodes_total": sum(nodes), "graph_edges_total": sum(edges),
                "requests_per_round": self.wiki.requests // max(self.round_no, 1)}


WORKLOADS = {cls.name: cls for cls in (CliFixtures, QeSynthetic, CrawlSynthetic)}
