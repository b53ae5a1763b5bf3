"""The live crawl's MediaWiki client, request pacer and link scanner, which
no snapshot run imports: ``WikiSource.from_env`` loads them for a live source.

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

import re
import threading
import time

from .graph import normalize_title
from .ingest import DEFAULT_API_URL, FetchError, IngestError, PageRecord, _check_interval, _page_title

USER_AGENT = "wikiqe/0.1 (concept-graph query expansion; offline-cache crawler)"

# Namespace prefixes whose /wiki/ links are not articles.
_NON_ARTICLE_PREFIXES = {
    "file", "image", "category", "template", "portal", "help", "wikipedia",
    "special", "talk", "user", "draft", "mediawiki", "module", "timedtext",
    "book", "media", "wikt", "wiktionary",
}


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

