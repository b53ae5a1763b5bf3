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
record and concurrent writers never share a temp file. The ``pages/`` and
``searches/`` directories are created by the first write that needs them.

Links come from :func:`_article_links`, a scanner that visits only the
markup that decides which links an HTML tokenizer reports: ``<a`` start
tags, comments, and ``<script>``/``<style>`` bodies, which it steps over as
``html.parser`` does. It reads attributes with a copy of ``html.parser``'s
attribute regex, as CPython 3.10.13 to 3.13.0 release it, and
``html.unescape``, so on MediaWiki parser output (where a raw ``<`` never
appears inside text or an attribute value) it gives the same link list as
an ``html.parser`` walk over every tag.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import deque
from itertools import repeat
from math import isfinite
from pathlib import Path

from ._value import FrozenValue, Value, as_dict
from .graph import GraphError, OntologyGraph, normalize_title
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


# The JSON type of each cache record field, as error messages name it. The
# key field (``title`` or ``query``) is checked against the key itself.
_FIELD_TYPES = {
    "outlinks": (list, "a list of strings"), "results": (list, "a list of strings"),
    "source": (str, "a string"), "fetched_at": ((int, float), "a number"),
    "missing": (bool, "true or false"), "disambiguation": (bool, "true or false"),
}


def _mistyped_field(data: dict) -> str | None:
    """What is wrong with the first field of a cache record that has the wrong type."""
    for name, value in data.items():
        kind, wanted = _FIELD_TYPES.get(name, (object, ""))
        if not isinstance(value, kind) or (kind is list and not all(map(isinstance, value, repeat(str)))):
            return f"{name} must be {wanted}, not {json.dumps(value)}"
    return None


def _hashed(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()[:24] + ".json"


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
    parse, holds a different key, or has a field of the wrong type (say,
    ``outlinks`` that is not a list of strings) raises :class:`IngestError`
    naming the file.
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
        except ValueError as exc:  # invalid JSON or UTF-8
            raise IngestError(f"malformed cache record {path}: {exc}") from None
        except OSError as exc:  # a directory in its place, no permission, ...
            raise IngestError(f"unreadable cache record {path}: {exc.strerror or exc}") from None
        if not isinstance(data, dict) or data.get(key_field) != key:
            raise IngestError(f"cache record {path} does not hold the {key_field} {key!r}")
        if problem := _mistyped_field(data):
            raise IngestError(f"malformed cache record {path}: {problem}")
        try:
            return build(data)
        except (KeyError, TypeError) as exc:
            raise IngestError(f"malformed cache record {path}: {exc!r}") from None


# The markup that decides which links a tokenizer reports: an <a> start tag
# (group 1), a script/style start tag, whose body is raw text (group 2), or a
# comment. A start tag's name takes the separator html.parser's
# tagfind_tolerant allows after it.
_MARKUP = re.compile(r"<(?:(a)|(script|style))(?=[\t\n\r\f\x20/>])(?:\s|/(?!>))*|<!--",
                     re.IGNORECASE)
# html.parser's attribute regex (attrfind_tolerant), comment end and raw-text
# end as CPython 3.10.13 to 3.13.0 release them (the same in each), copied so
# that the scan follows one release whichever interpreter runs it.
_ATTRIBUTE = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_COMMENT_END = re.compile(r"--\s*>")
_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


def _article_links(html: str) -> list[str]:
    """The /wiki/ article links of rendered page HTML, in first-occurrence order.

    Attributes are read with ``_ATTRIBUTE``, quotes stripped and entities
    unescaped as ``HTMLParser.parse_starttag`` does; the last ``href`` of a
    tag wins. Like a tokenizer fed the page and never closed, the scan stops
    at a start tag, comment or raw-text body that does not end.
    """
    from html import unescape  # here: a snapshot run scans no HTML

    links: dict[str, None] = {}
    pos = 0
    while match := _MARKUP.search(html, pos):
        pos = match.end()
        link, raw_text = match.groups()
        if not (link or raw_text):  # a comment
            end = _COMMENT_END.search(html, pos)
            if end is None:
                break
            pos = end.end()
            continue
        last = None
        while attribute := _ATTRIBUTE.match(html, pos):
            pos = attribute.end()
            if attribute[1].lower() == "href":
                last = attribute
        if html.startswith("/>", pos):
            pos += 2
            raw_text = None  # an empty element opens no raw-text body
        elif html.startswith(">", pos):
            pos += 1
        else:
            break  # the tag does not end
        if raw_text:
            end = _RAW_TEXT_END[raw_text.lower()].search(html, pos)
            if end is None:
                break
            pos = end.end()
        if not link or last is None or not last[2]:
            continue
        href = last[3]
        if href[:1] == "'" == href[-1:] or href[:1] == '"' == href[-1:]:
            href = href[1:-1]
        href = unescape(href)
        if not href.startswith("/wiki/"):
            continue
        tail = href[len("/wiki/"):]
        prefix, sep, _rest = tail.partition(":")
        if sep and prefix.casefold() in _NON_ARTICLE_PREFIXES:
            continue
        try:
            links[normalize_title(tail)] = None
        except ValueError:
            continue
    return list(links)


def _check_interval(interval: float) -> None:
    if isinstance(interval, float) and not isfinite(interval):
        raise ValueError(f"request_interval must be finite, got {interval}")
    if interval < 0:
        raise ValueError(f"request_interval must be >= 0, got {interval}")


class _Pacer:
    """Global request pacing: at most one request per interval, even when
    callers fetch concurrently."""

    def __init__(self, interval: float, clock=time.monotonic, sleep=time.sleep):
        _check_interval(interval)  # CrawlConfig's rule: a NaN interval would never sleep
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
        """Top article titles for a search string, normalized, best first. A
        hit whose title names no page (``_page_title``) is a FetchError."""
        data = self._call({
            "action": "query",
            "list": "search",
            "srsearch": query,
            "srnamespace": 0,
            "srlimit": limit,
            "format": "json",
        })
        results = data.get("query", {}) if isinstance(data, dict) else None
        hits = results.get("search", []) if isinstance(results, dict) else None
        if not isinstance(hits, list):
            raise FetchError(f"malformed search response for {query!r}: no list of hits")
        titles = []
        for hit in hits:
            title = hit.get("title") if isinstance(hit, dict) else None
            if not isinstance(title, str):
                raise FetchError(f"malformed search response for {query!r}: "
                                 f"a hit without a title: {hit!r}")
            try:
                title = _page_title(title)
            except IngestError as exc:
                raise FetchError(f"malformed search response for {query!r}: {exc}") from None
            if title not in titles:
                titles.append(title)
        return titles

    def page(self, title: str) -> PageRecord:
        """Fetch one article's body links (redirects resolved first), less
        the links whose title the graph rejects."""
        data = self._call({
            "action": "parse",
            "page": title,
            "prop": "text|properties",
            "redirects": 1,
            "format": "json",
        })

        def malformed(problem: str) -> FetchError:
            return FetchError(f"malformed parse response for {title!r}: {problem}")

        if not isinstance(data, dict):
            raise malformed("not an object")
        if "error" in data:
            error = data["error"]
            if not isinstance(error, dict):
                raise malformed(f"error is not an object: {error!r}")
            if error.get("code") in ("missingtitle", "invalidtitle"):
                return PageRecord(
                    title=title, outlinks=[], fetched_at=time.time(),
                    source="live", missing=True,
                )
            raise FetchError(f"API error for {title!r}: {error}")
        parse = data.get("parse")
        if not isinstance(parse, dict):
            raise malformed("no parse object")
        properties = parse.get("properties", [])
        if isinstance(properties, dict):  # formatversion differences
            disambiguation = "disambiguation" in properties
        elif isinstance(properties, list) and all(isinstance(p, dict) for p in properties):
            disambiguation = any(p.get("name") == "disambiguation" for p in properties)
        else:
            raise malformed(f"properties is not a list of objects: {properties!r}")
        text = parse.get("text", {})
        if not isinstance(text, dict):
            raise malformed(f"text is not an object: {text!r}")
        html = text.get("*", "")
        if not isinstance(html, str):
            raise malformed(f"page HTML is a {type(html).__name__}, not a string")
        # A normalized link holds no whitespace but " ", so "|" is the one
        # character of the graph's reserved set it can still hold.
        return PageRecord(
            title=title,
            outlinks=[link for link in _article_links(html) if "|" not in link],
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
        WMS_SNAPSHOT_DIR environment variable); live mode otherwise. A
        snapshot path that is not a directory raises :class:`IngestError`."""
        snapshot = snapshot_dir or os.environ.get(SNAPSHOT_ENV)
        if snapshot:
            if not os.path.isdir(snapshot):
                raise IngestError(f"snapshot {snapshot}: not a directory")
            return cls(PageCache(snapshot))
        cache = PageCache(cache_dir or Path.home() / ".cache" / "wikiqe")
        client = WikiClient(api_url=api_url, request_interval=request_interval)
        return cls(cache, client)

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
