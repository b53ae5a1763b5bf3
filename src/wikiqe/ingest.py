"""Wikipedia ingestion: candidate resolution, link harvesting, graph build.

Works in two modes behind one facade:

* live -- MediaWiki API calls, globally paced (at most one request per
  ``request_interval``), with bounded retries and an on-disk cache.
* snapshot -- the same cache layout, pre-populated; zero network traffic.
  Selected by passing a snapshot directory or via ``WMS_SNAPSHOT_DIR``.

Cache layout under the root directory, addressed by the key itself::

    pages/<sha256(title)[:24]>.json     one PageRecord per article title
    searches/<sha256(query)[:24]>.json  title list for one search string

A lookup computes the file name from its key, so there is no index (an
``index.json`` left by older versions is ignored) and a write touches only
its own record. Each record goes to a uniquely named temp file in its
directory and is renamed into place, so a crashed crawl never leaves a torn
record and concurrent writers never share a temp file.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from html.parser import HTMLParser
from pathlib import Path

from .graph import OntologyGraph, normalize_title
from .text import default_stopwords, query_terms

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
    "SNAPSHOT_ENV",
    "DEFAULT_API_URL",
]

SNAPSHOT_ENV = "WMS_SNAPSHOT_DIR"
DEFAULT_API_URL = "https://en.wikipedia.org/w/api.php"
USER_AGENT = "wikiqe/0.1 (concept-graph query expansion; offline-cache crawler)"

# Namespace prefixes whose /wiki/ links are not articles.
_NON_ARTICLE_PREFIXES = {
    "file", "image", "category", "template", "portal", "help", "wikipedia",
    "special", "talk", "user", "draft", "mediawiki", "module", "timedtext",
    "book", "media", "wikt", "wiktionary",
}


class IngestError(Exception):
    """Base error for ingestion failures."""


class NoConceptError(IngestError):
    """The query resolved to zero Wikipedia concepts."""


class FetchError(IngestError):
    """Network failure after bounded retries; safe to retry later."""


@dataclass(frozen=True)
class CrawlConfig:
    hop_bound: int = 3
    max_links_per_page: int = 100
    max_total_nodes: int = 10_000  # soft: passed by up to max_links_per_page - 1
    request_interval: float = 0.5  # seconds between outbound requests
    candidate_count: int = 5

    def __post_init__(self):
        if self.hop_bound < 1:
            raise ValueError("hop_bound must be >= 1")
        for name in ("max_links_per_page", "max_total_nodes", "candidate_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class PageRecord:
    """One article's harvested outlinks, in the order they appear on the page."""

    title: str
    outlinks: list[str]
    fetched_at: float
    source: str  # "live" or "snapshot"
    missing: bool = False
    disambiguation: bool = False

    def truncated(self, limit: int) -> "PageRecord":
        if len(self.outlinks) <= limit:
            return self
        return replace(self, outlinks=self.outlinks[:limit])


def search_key(user_query: str) -> str:
    """The search string for a query, its content words: "a b" and "a or b" share one."""
    terms = query_terms(user_query, default_stopwords())
    if not terms:
        raise IngestError(f"query is empty after stopword removal: {user_query!r}")
    return " ".join(terms)


def _hashed(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()[:24] + ".json"


def _write_atomic(path: Path, payload: dict) -> None:
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        # Mode "x" creates the temp file exclusively, with the umask-derived
        # permissions a plain write would give (mkstemp would make it 0600).
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class PageCache:
    """On-disk store of page records and search results, one file per key.

    A missing file is a cache miss. A file that does not parse, or that
    holds a different key, raises :class:`IngestError` naming the file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def get_page(self, title: str) -> PageRecord | None:
        return self._read("pages", "title", title, lambda data: PageRecord(**data))

    def put_page(self, record: PageRecord) -> None:
        self._write("pages", record.title, asdict(record))

    def get_search(self, query: str) -> list[str] | None:
        return self._read("searches", "query", query, lambda data: list(data["results"]))

    def put_search(self, query: str, results: list[str]) -> None:
        self._write("searches", query, {"query": query, "results": list(results)})

    def _read(self, kind: str, key_field: str, key: str, build):
        path = os.path.join(self.root, kind, _hashed(key))  # os.path: cheaper than pathlib here
        try:
            with open(path, "rb") as handle:
                data = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except ValueError as exc:  # invalid JSON or UTF-8
            raise IngestError(f"malformed cache record {path}: {exc}") from None
        if not isinstance(data, dict) or data.get(key_field) != key:
            raise IngestError(f"cache record {path} does not hold the {key_field} {key!r}")
        try:
            return build(data)
        except (KeyError, TypeError) as exc:
            raise IngestError(f"malformed cache record {path}: {exc!r}") from None

    def _write(self, kind: str, key: str, payload: dict) -> None:
        directory = self.root / kind
        directory.mkdir(parents=True, exist_ok=True)
        _write_atomic(directory / _hashed(key), payload)


class _ArticleLinkExtractor(HTMLParser):
    """Pulls /wiki/ article links out of rendered page HTML, in order."""

    def __init__(self):
        super().__init__()
        self.links: list[str] = []
        self._seen: set[str] = set()

    def handle_starttag(self, tag, attrs):
        if tag != "a":
            return
        href = dict(attrs).get("href") or ""
        if not href.startswith("/wiki/"):
            return
        tail = href[len("/wiki/"):]
        prefix, sep, _rest = tail.partition(":")
        if sep and prefix.casefold() in _NON_ARTICLE_PREFIXES:
            return
        try:
            title = normalize_title(tail)
        except ValueError:
            return
        if title not in self._seen:
            self._seen.add(title)
            self.links.append(title)


class _Pacer:
    """Global request pacing: at most one request per interval, even when
    callers fetch concurrently."""

    def __init__(self, interval: float, clock=time.monotonic, sleep=time.sleep):
        self.interval = interval
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = None

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            if self._next_slot is not None and now < self._next_slot:
                self._sleep(self._next_slot - now)
                now = self._next_slot
            self._next_slot = now + self.interval


class WikiClient:
    """Thin MediaWiki API client: title search and article link harvesting.

    ``transport`` (a callable taking the request params dict and returning
    the decoded JSON) is injectable for tests; the default uses requests
    against ``api_url``.
    """

    def __init__(
        self,
        api_url: str = DEFAULT_API_URL,
        request_interval: float = 0.5,
        max_retries: int = 3,
        transport=None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        self.api_url = api_url
        self.max_retries = max_retries
        self._pacer = _Pacer(request_interval, clock=clock, sleep=sleep)
        self._transport = transport or self._http_get
        self._sleep = sleep
        self.request_count = 0

    def _http_get(self, params: dict) -> dict:
        import requests  # only live crawls need it; snapshot runs skip its import cost

        response = requests.get(
            self.api_url, params=params, headers={"User-Agent": USER_AGENT}, timeout=20
        )
        response.raise_for_status()
        return response.json()

    def _call(self, params: dict) -> dict:
        last_error = None
        for attempt in range(self.max_retries):
            self._pacer.wait()
            self.request_count += 1
            try:
                return self._transport(dict(params))
            except Exception as exc:
                last_error = exc
                if attempt + 1 < self.max_retries:
                    self._sleep(min(2.0 ** attempt, 8.0))
        raise FetchError(f"request failed after {self.max_retries} attempts: {last_error}")

    def search(self, query: str, limit: int) -> list[str]:
        """Top article titles for a search string, normalized, best first."""
        data = self._call({
            "action": "query",
            "list": "search",
            "srsearch": query,
            "srnamespace": 0,
            "srlimit": limit,
            "format": "json",
        })
        hits = data.get("query", {}).get("search", [])
        titles = []
        for hit in hits:
            title = normalize_title(hit["title"])
            if title not in titles:
                titles.append(title)
        return titles

    def page(self, title: str) -> PageRecord:
        """Fetch one article's body links (redirects resolved first)."""
        data = self._call({
            "action": "parse",
            "page": title,
            "prop": "text|properties",
            "redirects": 1,
            "format": "json",
        })
        if "error" in data:
            if data["error"].get("code") in ("missingtitle", "invalidtitle"):
                return PageRecord(
                    title=title, outlinks=[], fetched_at=time.time(),
                    source="live", missing=True,
                )
            raise FetchError(f"API error for {title!r}: {data['error']}")
        parse = data["parse"]
        properties = parse.get("properties", [])
        if isinstance(properties, dict):  # formatversion differences
            disambiguation = "disambiguation" in properties
        else:
            disambiguation = any(p.get("name") == "disambiguation" for p in properties)
        extractor = _ArticleLinkExtractor()
        extractor.feed(parse.get("text", {}).get("*", ""))
        return PageRecord(
            title=title,
            outlinks=extractor.links,
            fetched_at=time.time(),
            source="live",
            disambiguation=disambiguation,
        )


class WikiSource:
    """Cached article source: live client + cache, or snapshot-only.

    In snapshot mode every lookup is served from the cache directory;
    a page absent from the snapshot becomes a missing record rather than
    an error, so bounded snapshots still support deep crawls.
    """

    def __init__(self, cache: PageCache, client: WikiClient | None = None):
        self.cache = cache
        self.client = client

    @classmethod
    def from_env(
        cls,
        snapshot_dir: str | Path | None = None,
        cache_dir: str | Path | None = None,
        api_url: str = DEFAULT_API_URL,
        request_interval: float = 0.5,
    ) -> "WikiSource":
        """Snapshot mode when a snapshot dir is given (argument wins over the
        WMS_SNAPSHOT_DIR environment variable); live mode otherwise."""
        snapshot = snapshot_dir or os.environ.get(SNAPSHOT_ENV)
        if snapshot:
            return cls(PageCache(snapshot))
        cache = PageCache(cache_dir or Path.home() / ".cache" / "wikiqe")
        client = WikiClient(api_url=api_url, request_interval=request_interval)
        return cls(cache, client)

    @property
    def snapshot_mode(self) -> bool:
        return self.client is None

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
        """Cached article fetch, outlinks truncated to the configured cap."""
        title = normalize_title(title)
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
        titles = self.search(search_key(user_query), config.candidate_count)
        candidates: list[str] = []
        for title in titles:
            record = self.fetch_page(title, config)
            if record.disambiguation:
                replacements = record.outlinks
            else:
                replacements = [record.title]
            for candidate in replacements:
                if candidate not in candidates:
                    candidates.append(candidate)
                if len(candidates) >= config.candidate_count:
                    break
            if len(candidates) >= config.candidate_count:
                break
        if not candidates:
            raise NoConceptError(f"no Wikipedia concept for query: {user_query!r}")
        return candidates

    def build_graph(self, user_query: str, config: CrawlConfig) -> OntologyGraph:
        """Breadth-first link crawl from the candidate roots.

        Pages below the hop bound are expanded; pages at the bound stay
        leaves. Expansion stops once the graph reaches ``max_total_nodes``,
        but the page expanded last adds all its outlinks, so the graph can
        pass that soft cap by up to ``max_links_per_page - 1`` nodes.
        Deterministic for a fixed snapshot.
        """
        roots = self.resolve_candidates(user_query, config)
        graph = OntologyGraph(roots, hop_bound=config.hop_bound)
        frontier: deque[tuple[str, int]] = deque((root, 0) for root in graph.roots)
        while frontier:
            title, hop = frontier.popleft()
            if hop >= config.hop_bound:
                continue
            if graph.node_count >= config.max_total_nodes:
                break
            record = self.fetch_page(title, config)
            # Every queued title is a graph node, so these are the ones to queue.
            new = [target for target in dict.fromkeys(record.outlinks) if target not in graph]
            graph.add_page(title, record.outlinks, hop)
            frontier.extend((target, hop + 1) for target in new)
        return graph
