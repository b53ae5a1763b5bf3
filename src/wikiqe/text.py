"""Query tokenization, stopword handling, the benchmark queries, and the
text-file reader and file-name hash shared across the pipeline."""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module, resources
from pathlib import Path

__all__ = [
    "tokenize", "content_tokens", "query_terms", "query_slug", "load_stopwords",
    "default_stopwords", "BASIC_QUERIES", "benchmark_queries",
]

# Boolean operators users type between query terms; dropped everywhere.
OPERATORS = {"and", "or"}


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens."""
    return text.casefold().split()


def content_tokens(query: str) -> list[str]:
    """Query tokens with AND/OR operators removed, original case kept."""
    return [tok for tok in query.split() if tok.casefold() not in OPERATORS]


def query_terms(query: str, stopwords: frozenset[str]) -> list[str]:
    """Lowercased query tokens minus operators and stopwords."""
    return [tok for tok in tokenize(query) if tok not in OPERATORS and tok not in stopwords]


def query_slug(query: str) -> str:
    """Filesystem-safe identifier for a query."""
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in query.casefold())
    return "_".join(filter(None, cleaned.split("_")))


# The ten basic multi-domain benchmark queries (five two-term, five
# three-term); benchmark_queries() expands them with operator joins.
BASIC_QUERIES = [
    "database overlap",
    "multilingual OPACs",
    "programming algorithm",
    "roadmap plan",
    "adolescent alcoholism",
    "comparative education methodology",
    "java applet programming",
    "indexing digital libraries",
    "geographical stroke incidence",
    "culturally responsive teaching",
]


def benchmark_queries() -> list[str]:
    """Expand each basic query three ways: plain, AND-joined, OR-joined."""
    queries = []
    for basic in BASIC_QUERIES:
        tokens = basic.split()
        queries.append(" ".join(tokens))
        queries.append(" and ".join(tokens))
        queries.append(" or ".join(tokens))
    return queries


def _read_text(path: str | Path, newline: str | None = None) -> str:
    """The UTF-8 text of a file; text that does not decode names the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


@lru_cache(maxsize=1)
def _sha256():
    """CPython's builtin sha256 (``_sha2`` from 3.12, ``_sha256`` before): the
    digests of ``hashlib.sha256`` without the import of OpenSSL's ``_hashlib``,
    which costs about ten times as much. ``hashlib`` where neither is built in."""
    for name in ("_sha2", "_sha256"):
        try:
            return import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


def _sha256_hex(text: str) -> str:
    """The sha256 hex digest of ``text`` in UTF-8, which cache and SERP file names start with."""
    return _sha256()(text.encode("utf-8")).hexdigest()


def _parse_stopwords(text: str) -> frozenset[str]:
    """One word per line; blank lines and '#' lines (after leading blanks) are skipped."""
    words = (line.strip().casefold() for line in text.splitlines())
    return frozenset(word for word in words if word and not word.startswith("#"))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one word per line, '#' comments allowed."""
    return _parse_stopwords(_read_text(path))


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled classic IR stopword list (about 570 words)."""
    text = resources.files("wikiqe.data").joinpath("stopwords.txt").read_text("utf-8")
    return _parse_stopwords(text)
