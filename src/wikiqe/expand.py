"""Turning centrality rankings into final query-expansion terms.

The pipeline: take the three ranked node lists (degree, closeness,
PageRank), keep the top-k window of each, fuse the three windows with
Borda-count voting, drop query words and stopwords, and keep the top-m
survivors. A thesaurus-driven baseline (first-come-first-served synonym
picking) and the query rewriter live here as well.

Everything is pure; the only stateful piece is the seeded shuffler used
for unranked synonym dictionaries, and it is confined to a single call.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .centrality import CentralityTable, ranked_prefix
from .text import _read_text, content_tokens, default_stopwords, query_terms, tokenize

__all__ = [
    "KNOWLEDGE_SOURCES",
    "GRAPH_SOURCES",
    "RankedTermList",
    "ExpansionResult",
    "SynonymDictionary",
    "term_from_title",
    "borda_combine",
    "filter_terms",
    "term_lists",
    "expand_query",
    "source_term_lists",
    "thesaurus_expand",
    "rewrite",
]

GRAPH_SOURCES = ("degree", "closeness", "pagerank")
THESAURUS_SOURCES = ("wordnet", "wikisynonyms", "moby")
KNOWLEDGE_SOURCES = GRAPH_SOURCES + THESAURUS_SOURCES

_PARENTHETICAL = re.compile(r"\s*\([^()]*\)\s*$")


@dataclass
class RankedTermList:
    """An ordered candidate-term list from one knowledge source."""

    source: str
    terms: list[str]

    def __post_init__(self):
        if self.source not in KNOWLEDGE_SOURCES:
            raise ValueError(f"unknown knowledge source: {self.source!r}")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError(f"duplicate terms in {self.source} list")


@dataclass
class ExpansionResult:
    """Final QE terms for one query, with how each term was chosen.

    ``shortfall`` is set when fewer than the requested number of terms
    survived filtering; ``qe_terms`` then holds all survivors.
    """

    qe_terms: list[str]
    borda_scores: dict[str, int] = field(default_factory=dict)
    provenance: dict[str, list[str]] = field(default_factory=dict)
    shortfall: bool = False


class SynonymDictionary:
    """Headword -> ordered synonyms, loaded from a plain text file.

    File format: one line per headword, ``headword: syn1, syn2, ...``.
    ``ordering`` is "ranked" when the synonym order is meaningful
    (strongest first) and "unranked" when it is arbitrary; unranked
    lists get shuffled with a seeded generator before use.
    """

    def __init__(self, entries: dict[str, list[str]], ordering: str = "ranked"):
        if ordering not in ("ranked", "unranked"):
            raise ValueError(f"ordering must be 'ranked' or 'unranked', got {ordering!r}")
        self.ordering = ordering
        self.entries = {head.casefold(): list(syns) for head, syns in entries.items()}

    @classmethod
    def from_file(cls, path: str | Path, ordering: str = "ranked") -> "SynonymDictionary":
        entries: dict[str, list[str]] = {}
        for lineno, line in enumerate(_read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'headword: syn1, syn2, ...'")
            head, _, rest = line.partition(":")
            synonyms = [s.strip() for s in rest.split(",") if s.strip()]
            entries[head.strip().casefold()] = synonyms
        return cls(entries, ordering=ordering)

    def lookup(self, headword: str) -> list[str]:
        return list(self.entries.get(headword.casefold(), ()))


def term_from_title(title: str) -> str:
    """Article title -> QE term: drop a trailing parenthetical
    disambiguator ("x (film)" -> "x") and lowercase."""
    stripped = _PARENTHETICAL.sub("", title)
    term = " ".join((stripped or title).casefold().split())
    return term


def borda_combine(lists: list[list[str]]) -> list[tuple[str, int]]:
    """Fuse ranked lists by Borda-count voting.

    Rank r (1-based) in a list of length n earns n - r + 1 points; a term
    absent from a list earns nothing from it. Sorted by total points
    descending; ties broken by the best rank the term reached anywhere,
    then lexicographically. Supplying the same lists in another order
    cannot change the result.
    """
    if not lists:
        raise ValueError("borda_combine needs at least one list")
    scores: dict[str, int] = {}
    best_rank: dict[str, int] = {}
    for ranking in lists:
        n = len(ranking)
        for r, term in enumerate(ranking, start=1):
            scores[term] = scores.get(term, 0) + (n - r + 1)
            best_rank[term] = min(best_rank.get(term, r), r)
    ordered = sorted(scores, key=lambda t: (-scores[t], best_rank[t], t))
    return [(term, scores[term]) for term in ordered]


def filter_terms(ranked: list[str], user_query: str, stopwords: frozenset[str]) -> list[str]:
    """Drop terms already covered by the query or the stopword list.

    A single-word term is dropped when it is a query token or stopword;
    a multi-word term only when ALL its words are ("public health"
    survives a query containing just "public").
    """
    query_tokens = set(tokenize(user_query))
    blocked = query_tokens | stopwords
    kept = []
    for term in ranked:
        words = tokenize(term)
        if words and all(w in blocked for w in words):
            continue
        kept.append(term)
    return kept


def term_lists(table: CentralityTable) -> dict[str, RankedTermList]:
    """Every term of each graph source's ranking: its window as long as the
    node set (:func:`_top_k_windows`)."""
    return {
        source: RankedTermList(source=source, terms=terms)
        for source, terms in _top_k_windows(table, len(table.degree)).items()
    }


def _top_k_windows(table: CentralityTable, k: int) -> dict[str, list[str]]:
    """The first ``k`` distinct terms of each graph source's ranking.

    A source's titles, by descending score with ties broken by title
    (:func:`ranked_prefix`), become terms via :func:`term_from_title`;
    when two titles collapse to one term (e.g. "x (film)" and "x
    (novel)"), the higher-ranked occurrence wins. The whole node set is
    never ranked or converted for a short window: each source ranks a
    prefix of its ``want`` best titles (``want = k`` at first) and converts
    titles in order until ``k`` distinct terms are found. Only when the
    prefix runs out first does ``want`` double and the longer prefix get
    ranked. Each title is converted at most once.

    The paper intersects each list's window with the other two lists.
    The three lists rank one node set and so hold one term set, which
    makes that intersection keep every term: the window is the result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    term_of: dict[str, str] = {}
    windows = {}
    for source in GRAPH_SOURCES:
        scores = getattr(table, source)
        want = k
        while True:
            prefix = ranked_prefix(scores, want)
            window: dict[str, None] = {}
            for title in prefix:
                term = term_of.get(title)
                if term is None:
                    term = term_of[title] = term_from_title(title)
                window[term] = None
                if len(window) == k:
                    break
            if len(window) == k or len(prefix) == len(scores):
                break
            want *= 2
        windows[source] = list(window)
    return windows


def expand_query(
    table: CentralityTable,
    user_query: str,
    m: int,
    stopwords: frozenset[str] | None = None,
    k: int = 100,
) -> ExpansionResult:
    """Produce the final top-m QE terms for a query from a centrality table."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stopwords = default_stopwords() if stopwords is None else stopwords
    windows = _top_k_windows(table, k)
    combined = borda_combine(list(windows.values()))
    surviving = filter_terms([term for term, _ in combined], user_query, stopwords)
    qe_terms = surviving[:m]
    scores = dict(combined)
    return ExpansionResult(
        qe_terms=qe_terms,
        borda_scores={t: scores[t] for t in qe_terms},
        provenance={
            t: [src for src in GRAPH_SOURCES if t in windows[src]] for t in qe_terms
        },
        shortfall=len(qe_terms) < m,
    )


def source_term_lists(
    table: CentralityTable,
    user_query: str,
    stopwords: frozenset[str] | None = None,
    k: int = 100,
) -> dict[str, RankedTermList]:
    """QE candidate list per graph source, for gold-standard generation.

    Each source contributes its own top-k window with query words and
    stopwords already removed.
    """
    stopwords = default_stopwords() if stopwords is None else stopwords
    return {
        source: RankedTermList(source=source, terms=filter_terms(window, user_query, stopwords))
        for source, window in _top_k_windows(table, k).items()
    }


def thesaurus_expand(
    dictionary: SynonymDictionary,
    user_query: str,
    m: int,
    stopwords: frozenset[str] | None = None,
    seed: int = 0,
) -> ExpansionResult:
    """Baseline expansion: round-robin synonyms of the query's content terms.

    Walks the content terms in first-come-first-served order, taking the
    next unused synonym from each term's list and cycling until ``m``
    terms are collected (a two-term query at m=3 yields two synonyms of
    the first term and one of the second). Unranked dictionaries are
    shuffled with the seeded generator first, so runs are reproducible.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stopwords = default_stopwords() if stopwords is None else stopwords
    terms = query_terms(user_query, stopwords)
    query_tokens = set(tokenize(user_query))
    rng = random.Random(seed)

    pools = []
    for term in terms:
        synonyms = [s.casefold() for s in dictionary.lookup(term)]
        if dictionary.ordering == "unranked":
            rng.shuffle(synonyms)
        synonyms = [s for s in synonyms if s not in stopwords and s not in query_tokens]
        pools.append((term, synonyms))

    picked: list[str] = []
    provenance: dict[str, list[str]] = {}
    cursors = [0] * len(pools)
    while len(picked) < m:
        progressed = False
        for i, (term, synonyms) in enumerate(pools):
            while cursors[i] < len(synonyms) and synonyms[cursors[i]] in picked:
                cursors[i] += 1
            if cursors[i] < len(synonyms):
                candidate = synonyms[cursors[i]]
                cursors[i] += 1
                picked.append(candidate)
                provenance[candidate] = [term]
                progressed = True
                if len(picked) == m:
                    break
        if not progressed:
            break
    return ExpansionResult(
        qe_terms=picked,
        provenance=provenance,
        shortfall=len(picked) < m,
    )


def rewrite(user_query: str, expansion: ExpansionResult) -> str:
    """Final query reformulation: content tokens plus QE terms, space-joined."""
    return " ".join(content_tokens(user_query) + list(expansion.qe_terms))
