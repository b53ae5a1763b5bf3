"""Wikipedia ingestion: candidate resolution, link harvesting, graph build.

Works in two modes behind one facade:

* live -- MediaWiki API calls, globally paced (at most one request per
  ``request_interval``), with bounded retries and an on-disk cache. The
  client and its link scanner live in ``_live``, which only a live source
  imports.
* snapshot -- the same cache layout, pre-populated; zero network traffic.
  A source with a cache and no client, as the CLI builds for ``--snapshot``
  or ``paths.snapshot_dir``.

Cache layout under the root directory, addressed by the key itself::

    pages/<sha256(title)[:24]>.json     one PageRecord per article title
    searches/<sha256(query)[:24]>.json  title list for one search string

A lookup computes the file name from its key, so there is no index (an
``index.json`` left by older versions is ignored) and a write touches only
its own record. Each record goes to a uniquely named temp file in its
directory and is renamed into place, so a crashed crawl never leaves a torn
record and concurrent writers never share a temp file. The ``pages/`` and
``searches/`` directories are created by the first write that needs them.
"""

from __future__ import annotations

import json
import os
from collections import deque
from itertools import repeat
from math import isfinite
from pathlib import Path

from ._value import FrozenValue, Value, as_dict
from .graph import GraphError, OntologyGraph, normalize_title
from .text import _sha256_hex, default_stopwords, query_terms

__all__ = [
    "IngestError",
    "NoConceptError",
    "FetchError",
    "CrawlConfig",
    "PageRecord",
    "PageCache",
    "search_key",
    "WikiClient",
    "WikiSource",
]


def __getattr__(name):
    # ``ingest.WikiClient`` resolves to the live client in ``_live`` because
    # benchmark/tracing.py wraps its methods here; this goes away with
    # ROADMAP item 2 step B, once the benchmark reads the product's trace.
    if name == "WikiClient":
        from ._live import WikiClient

        return WikiClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IngestError(Exception):
    """Base error for ingestion failures."""


class NoConceptError(IngestError):
    """The query resolved to zero Wikipedia concepts."""


class FetchError(IngestError):
    """Network failure after bounded retries; safe to retry later."""


def _check_interval(interval: float) -> None:
    try:
        finite = isfinite(interval)
    except OverflowError:  # an int past float's range: every paced request would raise
        raise ValueError("request_interval must be finite, got an integer too large for a float") from None
    if not finite:
        raise ValueError(f"request_interval must be finite, got {interval}")
    if interval < 0:
        raise ValueError(f"request_interval must be >= 0, got {interval}")


class CrawlConfig(FrozenValue):
    def __init__(self, hop_bound: int = 3, max_links_per_page: int = 100,
                 max_total_nodes: int = 10_000, request_interval: float = 0.5,
                 candidate_count: int = 5):
        # max_total_nodes is soft: passed by up to max_links_per_page - 1;
        # request_interval is in seconds between outbound requests.
        super().__init__(hop_bound, max_links_per_page, max_total_nodes, request_interval,
                         candidate_count)
        if self.hop_bound < 1:
            raise ValueError("hop_bound must be >= 1")
        for name in ("max_links_per_page", "max_total_nodes", "candidate_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        _check_interval(self.request_interval)


class PageRecord(Value):
    """One article's harvested outlinks, in the order they appear on the page."""

    def __init__(self, title: str, outlinks: list[str], fetched_at: float, source: str,
                 missing: bool = False, disambiguation: bool = False):
        self.title = title
        self.outlinks = outlinks
        self.fetched_at = fetched_at
        self.source = source  # "live" or "snapshot"
        self.missing = missing
        self.disambiguation = disambiguation

    def truncated(self, limit: int) -> "PageRecord":
        if len(self.outlinks) <= limit:
            return self
        return PageRecord(self.title, self.outlinks[:limit], self.fetched_at, self.source,
                          self.missing, self.disambiguation)


def search_key(user_query: str) -> str:
    """The search string for a query, its content words: "a b" and "a or b" share one."""
    terms = query_terms(user_query, default_stopwords())
    if not terms:
        raise IngestError(f"query is empty after stopword removal: {user_query!r}")
    return " ".join(terms)


def _page_title(title: str) -> str:
    """The normalized title a page ``title`` is read under; IngestError naming
    ``title`` when it normalizes to nothing or to a title the graph rejects."""
    try:
        page = normalize_title(title)
        OntologyGraph._check_title(page)
    except (ValueError, GraphError) as exc:
        raise IngestError(f"cannot fetch {title!r}: {exc}") from None
    return page


# Each cache record kind's fields, with the JSON type of each as error messages
# name it; the key field is also checked against the key itself. A page record
# may leave out the fields that PageRecord gives a default (_OPTIONAL). Python's
# bool is an int, but true or false is no number: only a bool field takes one.
_STRINGS, _FLAG = (list, "a list of strings"), (bool, "true or false")
_FIELDS = {
    "pages": {"title": (str, "a string"), "outlinks": _STRINGS, "fetched_at": ((int, float), "a number"),
              "source": (str, "a string"), "missing": _FLAG, "disambiguation": _FLAG},
    "searches": {"query": (str, "a string"), "results": _STRINGS},
}
_OPTIONAL = {"missing", "disambiguation"}


def _field_problem(data: dict, fields: dict) -> str | None:
    """What is wrong with a cache record's fields: the first that is unknown
    or has the wrong type, else the first required one it lacks."""
    for name, value in data.items():
        try:
            kind, wanted = fields[name]
        except KeyError:
            return f"unknown field {name!r}"
        if (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
                or (kind is list and not all(map(isinstance, value, repeat(str))))):
            return f"{name} must be {wanted}, not {json.dumps(value)}"
    # Each field the record has is known, so one with fewer than its kind lacks some.
    missing = len(data) < len(fields) and [n for n in fields if n not in data and n not in _OPTIONAL]
    return f"missing field {missing[0]!r}" if missing else None


def _hashed(name: str) -> str:
    return _sha256_hex(name)[:24] + ".json"


def _write_atomic(path: str, payload: dict) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"  # secrets.token_hex(8), without its import
    # Mode "x" creates the temp file exclusively, with the umask-derived
    # permissions a plain write would give (mkstemp would make it 0600).
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:  # the first write into this directory
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


class PageCache:
    """On-disk store of page records and search results, one file per key.

    A missing file is a cache miss. A file that cannot be read, does not
    parse, holds a different key, lacks a field, has one its kind does not
    have, or has one of the wrong type (say, ``outlinks`` that is not a list
    of strings) raises :class:`IngestError` naming the file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def get_page(self, title: str) -> PageRecord | None:
        return self._read("pages", "title", title, lambda data: PageRecord(**data))

    def put_page(self, record: PageRecord) -> None:
        _write_atomic(self._path("pages", record.title), as_dict(record))

    def get_search(self, query: str) -> list[str] | None:
        return self._read("searches", "query", query, lambda data: list(data["results"]))

    def put_search(self, query: str, results: list[str]) -> None:
        _write_atomic(self._path("searches", query), {"query": query, "results": list(results)})

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, _hashed(key))  # os.path: cheaper than pathlib here

    def _titles(self, kind: str, key: str, titles: list[str]) -> list[str]:
        """``titles`` from the record ``kind``/``key`` if the graph takes each
        and each names a page, else IngestError."""
        try:
            for title in titles:
                OntologyGraph._check_title(title)
                _page_title(title)
        except (GraphError, IngestError) as exc:
            raise IngestError(f"malformed cache record {self._path(kind, key)}: {exc}") from None
        return titles

    def _read(self, kind: str, key_field: str, key: str, build):
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                data = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (ValueError, RecursionError) as exc:  # invalid or too deep JSON, bad UTF-8
            raise IngestError(f"malformed cache record {path}: {exc}") from None
        except OSError as exc:  # a directory in its place, no permission, ...
            raise IngestError(f"unreadable cache record {path}: {exc.strerror or exc}") from None
        if not isinstance(data, dict) or data.get(key_field) != key:
            raise IngestError(f"cache record {path} does not hold the {key_field} {key!r}")
        if problem := _field_problem(data, _FIELDS[kind]):
            raise IngestError(f"malformed cache record {path}: {problem}")
        return build(data)


class WikiSource:
    """Cached article source: live client + cache, or snapshot-only.

    In snapshot mode every lookup is served from the cache directory;
    a page absent from the snapshot becomes a missing record rather than
    an error, so bounded snapshots still support deep crawls.
    """

    def __init__(self, cache: PageCache, client: WikiClient | None = None):
        self.cache = cache
        self.client = client

    @property
    def network_calls(self) -> int:
        return self.client.request_count if self.client else 0

    # ------------------------------------------------------------------

    def search(self, query: str, limit: int) -> list[str]:
        cached = self.cache.get_search(query)
        if cached is not None:
            return cached[:limit]
        if self.client is None:
            raise NoConceptError(f"no Wikipedia concept for query (not in snapshot): {query!r}")
        results = self.client.search(query, limit)
        self.cache.put_search(query, results)
        return results

    def fetch_page(self, title: str, config: CrawlConfig) -> PageRecord:
        """Cached article fetch, outlinks truncated to the configured cap.

        A title that normalizes to nothing, or to one the graph rejects,
        raises :class:`IngestError` naming it."""
        title = _page_title(title)
        record = self.cache.get_page(title)
        if record is None:
            if self.client is None:
                record = PageRecord(
                    title=title, outlinks=[], fetched_at=0.0,
                    source="snapshot", missing=True,
                )
            else:
                record = self.client.page(title)
                self.cache.put_page(record)
        return record.truncated(config.max_links_per_page)

    def resolve_candidates(self, user_query: str, config: CrawlConfig) -> list[str]:
        """Candidate concepts for a query: top search hits, with
        disambiguation pages replaced by their listed target articles."""
        key = search_key(user_query)
        candidates: dict[str, None] = {}
        for title in self.cache._titles("searches", key, self.search(key, config.candidate_count)):
            record = self.fetch_page(title, config)
            for candidate in (self.cache._titles("pages", record.title, record.outlinks)
                              if record.disambiguation else [record.title]):
                candidates[candidate] = None
                if len(candidates) == config.candidate_count:
                    return list(candidates)
        if not candidates:
            raise NoConceptError(f"no Wikipedia concept for query: {user_query!r}")
        return list(candidates)

    def build_graph(self, user_query: str, config: CrawlConfig) -> OntologyGraph:
        """Breadth-first link crawl from the candidate roots.

        Pages below the hop bound are expanded, and the pages each one adds
        to the graph (``add_page`` returns them) join the queue; pages at the
        bound stay leaves. Expansion stops once the graph reaches
        ``max_total_nodes``, but the page expanded last adds all its
        outlinks, so the graph can pass that soft cap by up to
        ``max_links_per_page - 1`` nodes. Deterministic for a fixed snapshot.
        """
        graph = OntologyGraph(self.resolve_candidates(user_query, config), hop_bound=config.hop_bound)
        frontier = deque(graph.roots)
        while frontier and graph.node_count < config.max_total_nodes:
            title = frontier.popleft()
            hop = graph.hop(title)
            try:
                record = self.fetch_page(title, config)
            except IngestError:  # name a page record listing the link, if its title is at fault
                if hop:
                    lister = next(page for page in graph.nodes if title in graph.outlinks(page))
                    self.cache._titles("pages", normalize_title(lister), [title])
                raise
            try:
                added = graph.add_page(title, record.outlinks, hop)
            except GraphError:  # add_page checks each link title; name the record
                self.cache._titles("pages", record.title, record.outlinks)
                raise
            if hop + 1 < config.hop_bound:
                frontier.extend(added)
        return graph
