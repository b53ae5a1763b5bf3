"""Metasearch merging: weighted Borda fuse over engine result lists.

Each component engine returns a ranked result list per query variant.
A list's Borda points (cap - rank + 1, within a top-``cap`` window) are
scaled by the weight of its (knowledge source, engine) pair, and the
per-URL totals define the fused order. The same machinery generates the
pseudo-relevance gold standard: fuse all six knowledge sources' expanded
queries across all engines and declare the top-k fused URLs relevant.

``run_mse`` reaches the engines through an adapter object with a
``search`` method; ``FixtureEngineAdapter`` reads recorded SERP files so
entire runs are reproducible offline.
"""

from __future__ import annotations

import csv
import io
import json
import urllib.parse
from pathlib import Path

from ._value import Value
from .centrality import CentralityTable
from .config import (
    DEFAULT_ENGINES,
    GRAPH_TUNED_WEIGHTS,
    SIX_SOURCE_WEIGHTS,
    EngineConfig,
    KnowledgeWeights,
)
from .expand import (
    KNOWLEDGE_SOURCES,
    SynonymDictionary,
    rewrite,
    source_term_lists,
    thesaurus_expand,
)
from .text import _sha256_hex

__all__ = [
    "FusionError",
    "EngineError",
    "EngineConfig",
    "KnowledgeWeights",
    "ResultList",
    "FusedList",
    "MseResult",
    "normalize_url",
    "engine_weight",
    "wbf_merge",
    "run_mse",
    "gold_variants",
    "FixtureEngineAdapter",
    "serp_fixture_name",
    "DEFAULT_ENGINES",
    "SIX_SOURCE_WEIGHTS",
    "GRAPH_TUNED_WEIGHTS",
    "GOLD_M",
]


class FusionError(Exception):
    """No usable result lists could be collected."""


class EngineError(Exception):
    """A single engine adapter failed for one query."""


def normalize_url(url: str) -> str:
    """Canonical URL for cross-engine dedup.

    Lowercases scheme and host, strips default ports and fragments, keeps
    path and query string untouched. Idempotent.
    """
    parts = urllib.parse.urlsplit(url.strip())
    scheme = parts.scheme.lower()
    host = parts.hostname.lower() if parts.hostname else ""
    netloc = host
    if parts.port is not None:
        default = {"http": 80, "https": 443}.get(scheme)
        if parts.port != default:
            netloc = f"{host}:{parts.port}"
    if parts.username:
        cred = parts.username + (f":{parts.password}" if parts.password else "")
        netloc = f"{cred}@{netloc}"
    return urllib.parse.urlunsplit((scheme, netloc, parts.path, parts.query, ""))


GOLD_M = 10  # QE terms per knowledge source when generating the gold standard


class ResultList(Value):
    """One engine's ranked results for one query: a URL's rank is its
    1-based position in ``urls``.

    URLs must be unique; use ``from_raw`` to build a valid list from
    arbitrary SERP URLs.
    """

    def __init__(self, urls: list[str]):
        self.urls = urls
        seen = set()
        for url in self.urls:
            if url in seen:
                raise ValueError(f"duplicate URL in result list: {url}")
            seen.add(url)

    @classmethod
    def from_raw(cls, urls: list[str]) -> "ResultList":
        """Build from raw URLs in rank order: normalize, and keep the first
        occurrence of each."""
        return cls(list(dict.fromkeys(map(normalize_url, urls))))


class FusedList(Value):
    """Merged ranking: (url, fused score) sorted by score descending."""

    def __init__(self, entries: list[tuple[str, float]], contributing_lists: int = 0):
        self.entries = entries
        self.contributing_lists = contributing_lists

    def urls(self) -> list[str]:
        return [url for url, _ in self.entries]

    def to_csv(self) -> str:
        """``rank,url,score`` rows; a URL holding a comma or quote is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rank", "url", "score"])
        for rank, (url, score) in enumerate(self.entries, start=1):
            writer.writerow([rank, url, f"{score:.12g}"])
        return out.getvalue()


def engine_weight(w_source: float, se_conf: int) -> float:
    """Weight of one (knowledge source, engine) pair: w_source * conf / 100."""
    if w_source < 0 or se_conf < 0:
        raise ValueError("weights and confidences must be >= 0")
    return w_source * se_conf / 100


def wbf_merge(lists: list[tuple[ResultList, float]], cap: int = 200) -> FusedList:
    """Weighted Borda fuse of result lists.

    Every list is truncated to its top ``cap`` entries; a URL at rank r
    earns weight * (cap - r + 1) points from that list and nothing from
    lists it is absent from. Ties in the fused total break on the URL.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    scores: dict[str, float] = {}
    contributing = 0
    for result_list, weight in lists:
        if weight < 0:
            raise ValueError("list weight must be >= 0")
        window = result_list.urls[:cap]
        if window:
            contributing += 1
        for rank, url in enumerate(window, start=1):
            scores[url] = scores.get(url, 0.0) + weight * (cap - rank + 1)
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return FusedList(entries=ordered, contributing_lists=contributing)


# ---------------------------------------------------------------------------
# engine adapters
# ---------------------------------------------------------------------------

def serp_fixture_name(engine_id: str, query: str) -> str:
    """Fixture filename for an (engine, query) pair: the query is hashed so
    arbitrary query strings stay filesystem-safe."""
    digest = _sha256_hex(query)[:16]
    return f"{engine_id}__{digest}.json"


class FixtureEngineAdapter:
    """Reads recorded SERP JSON files from a directory.

    One file per (engine, query) pair, named by ``serp_fixture_name``:
    ``{"engine": ..., "query": ..., "results": [{"rank": 1, "url": ...,
    "title": ...}, ...]}``. Only each result's ``url`` is read: its rank is
    its position in ``results``.
    """

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def search(self, engine_id: str, query: str, limit: int) -> ResultList:
        path = self.fixture_dir / serp_fixture_name(engine_id, query)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            urls = [r["url"] for r in payload["results"][:limit]]
            return ResultList.from_raw(urls)
        except FileNotFoundError as exc:
            raise EngineError(
                f"no SERP fixture for engine {engine_id!r}, query {query!r} ({path.name})"
            ) from exc
        except OSError as exc:  # a directory in its place, no permission, ...
            raise EngineError(
                f"unreadable SERP fixture {path.name}: {exc.strerror or exc}"
            ) from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # ValueError covers bad JSON and URLs normalize_url rejects (bad port)
            raise EngineError(f"malformed SERP fixture {path.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# metasearch runs
# ---------------------------------------------------------------------------

class MseResult(Value):
    def __init__(self, fused: FusedList, failures: list[str] | None = None):
        self.fused = fused
        self.failures = [] if failures is None else failures


def run_mse(
    adapter,
    query_variants: dict[str, str],
    engines: list[EngineConfig],
    weights: KnowledgeWeights,
    cap: int = 200,
) -> MseResult:
    """Fetch every weighted source's expanded query on every engine and fuse.

    ``adapter.search(engine_id, query, limit) -> ResultList`` returns one
    engine's top-``limit`` results for one query, or raises EngineError.
    A failing fetch excludes just that list and is reported in
    ``failures``; if nothing at all could be fetched the run errors out.
    """
    weight_map = weights.as_map()
    active = [s for s in KNOWLEDGE_SOURCES if weight_map[s] > 0]
    missing = [s for s in active if s not in query_variants]
    if missing:
        raise FusionError(f"no query variant for weighted source(s): {', '.join(missing)}")
    if not engines:
        raise FusionError("no engines configured")

    collected: list[tuple[ResultList, float]] = []
    failures: list[str] = []
    for engine in engines:
        for source in active:
            try:
                result = adapter.search(engine.engine_id, query_variants[source], cap)
            except EngineError as exc:
                failures.append(f"{engine.engine_id}/{source}: {exc}")
                continue
            collected.append((result, engine_weight(weight_map[source], engine.confidence)))
    if not collected:
        raise FusionError(f"every engine fetch failed: {'; '.join(failures)}")
    return MseResult(fused=wbf_merge(collected, cap=cap), failures=failures)


def gold_variants(
    table: CentralityTable,
    user_query: str,
    weights: KnowledgeWeights,
    dictionaries: dict[str, str | Path],
    stopwords: frozenset[str] | None = None,
    seed: int = 0,
) -> dict[str, str]:
    """The gold standard's expanded query of every weighted knowledge source,
    in ``KNOWLEDGE_SOURCES`` order: ``user_query`` rewritten with the
    source's first GOLD_M terms.

    Graph sources take their filtered top-k windows from the centrality
    table; each thesaurus source takes GOLD_M round-robin synonyms from its
    dictionary file (Moby's synonym order is arbitrary, so it is shuffled
    with ``seed``).
    """
    weight_map = weights.as_map()
    graph_lists = source_term_lists(table, user_query, stopwords)
    variants = {}
    for source in KNOWLEDGE_SOURCES:
        if weight_map[source] <= 0:
            continue
        if source in graph_lists:
            terms = graph_lists[source].terms
        else:
            path = dictionaries.get(source)
            if path is None:
                raise FusionError(f"source {source!r} has weight > 0 but no dictionary configured")
            dictionary = SynonymDictionary.from_file(
                path, ordering="unranked" if source == "moby" else "ranked"
            )
            terms = thesaurus_expand(dictionary, user_query, GOLD_M, stopwords, seed=seed).qe_terms
        variants[source] = rewrite(user_query, terms[:GOLD_M])
    return variants
