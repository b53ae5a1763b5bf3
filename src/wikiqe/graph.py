"""Directed graph of Wikipedia concepts and the subgraph operations built on it.

Nodes are normalized article titles annotated with their hop: the
breadth-first distance from the nearest root concept. Edges are the article
hyperlinks. ``add_page`` takes pages in breadth-first order, so no hop is
repaired afterwards. ``dumps`` writes the graph out, one line per node.
A completed graph is treated as immutable and can be shared freely across
threads; construction is single-writer.
"""

from __future__ import annotations

import urllib.parse
from operator import attrgetter

from ._value import Value

__all__ = [
    "GraphError",
    "normalize_title",
    "OntologyGraph",
    "ConceptSubgraph",
]

# Characters that would break the line-oriented serialization format: the
# field and link separators, and every line boundary ``str.splitlines``
# breaks on. MediaWiki titles never contain them.
_FORBIDDEN = frozenset("\t|\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


class GraphError(Exception):
    """Raised for malformed graph operations (bad hop, unknown root, ...)."""


def normalize_title(title: str) -> str:
    """Normalize a Wikipedia article title or /wiki/ URL tail.

    Percent-decodes, converts underscores to spaces, strips any URL
    fragment, case-folds and collapses internal whitespace. The result is
    a fixpoint: normalize(normalize(t)) == normalize(t).
    """
    text = title
    # Terminates: after the first round only percent-decoding can change
    # the text, and each decoded escape shortens it. A round that leaves no
    # "%" is the last: the next would change nothing, because casefold works
    # per code point, is idempotent and never yields "%", "#", "_" or
    # whitespace (tests/test_graph.py checks every code point).
    while True:
        prev = text
        text = urllib.parse.unquote(text)
        text = text.split("#", 1)[0]
        text = text.replace("_", " ")
        text = " ".join(text.split())
        text = text.casefold()
        if text == prev or "%" not in text:
            break
    if not text:
        raise ValueError(f"title normalizes to empty string: {title!r}")
    return text


class ConceptSubgraph(Value):
    """Reachability closure of one root inside a parent graph.

    ``nodes`` are listed in breadth-first discovery order (deterministic for
    a given parent graph). ``targets`` holds each node's outlinks, in the
    parent's outlink order, as positions in ``nodes``: the walk that finds
    the closure numbers them, and the centrality kernels read them.
    ``graph_degree`` is the number of edges in the closure and is the
    quantity that ranks candidate concepts against each other.
    """

    def __init__(self, root: str, nodes: tuple[str, ...], targets: tuple[tuple[int, ...], ...]):
        self.root = root
        self.nodes = nodes
        self.targets = targets

    def __repr__(self) -> str:  # targets left out: they restate the edges as positions
        return f"ConceptSubgraph(root={self.root!r}, nodes={self.nodes!r})"

    @property
    def graph_degree(self) -> int:
        return sum(map(len, self.targets))

    def __len__(self) -> int:
        return len(self.nodes)


class OntologyGraph:
    """Directed concept graph rooted at the candidate concepts of a query.

    Roots sit at hop 0; every other node's hop is the length of the
    shortest directed path from any root, never exceeding ``hop_bound``.
    Duplicate edges collapse to one (repeated links on a page carry no
    extra meaning) and self-links are dropped.
    """

    def __init__(self, roots: list[str], hop_bound: int = 3):
        if not roots:
            raise GraphError("graph needs at least one root concept")
        if hop_bound < 1:
            raise GraphError(f"hop_bound must be >= 1, got {hop_bound}")
        self.hop_bound = hop_bound
        self.roots: list[str] = []
        self._hops: dict[str, int] = {}
        self._adjacency: dict[str, list[str]] = {}
        for root in roots:
            self._check_title(root)
            if root not in self._hops:
                self.roots.append(root)
                self._hops[root] = 0
                self._adjacency[root] = []

    @staticmethod
    def _check_title(title: str) -> None:
        if not title:
            raise GraphError("empty concept title")
        if not _FORBIDDEN.isdisjoint(title):
            raise GraphError(f"title contains reserved character: {title!r}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_page(self, page: str, outlinks: list[str], hop: int) -> list[str]:
        """Give ``page``, a node at ``hop``, the links it does not have yet.

        Pages come in breadth-first order, so new targets land at ``hop + 1``
        and a link to a node past ``hop + 1`` is out of order. Self-links and
        repeated links are dropped. Returns the targets that became new
        nodes, in link order: the pages a breadth-first crawl queues next.
        Raises GraphError, changing nothing, for a page that is not a node at
        ``hop``, links from a page at the hop bound, a reserved character in
        a target, or a link out of order.
        """
        if self._hops.get(page) != hop:
            raise GraphError(f"page {page!r} is not a node at hop {hop}")
        if hop >= self.hop_bound and outlinks:
            raise GraphError(f"page {page!r} at hop {hop} must be a leaf (bound {self.hop_bound})")
        # The hop rule: a link reaches at most one hop past its page, and a
        # new node lands exactly there, so a graph built under it keeps each
        # hop equal to the breadth-first distance from the roots. Every
        # target is checked before the first change.
        limit = hop + 1
        for target in outlinks:
            self._check_title(target)
            known = self._hops.get(target, limit)
            if known > limit:
                raise GraphError(f"{target!r} at hop {known}, but {page!r} at hop {hop} links to it")
        links = self._adjacency[page]
        added = []
        for target in outlinks:
            if target != page and target not in links:
                if target not in self._hops:
                    self._hops[target] = limit
                    self._adjacency[target] = []
                    added.append(target)
                links.append(target)
        return added

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> dict[str, int]:
        """Mapping title -> hop distance, in insertion order."""
        return dict(self._hops)

    @property
    def node_count(self) -> int:
        return len(self._hops)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adjacency.values()))

    def hop(self, title: str) -> int:
        return self._hops[title]

    def outlinks(self, title: str) -> list[str]:
        return list(self._adjacency.get(title, ()))

    def isolate_subgraph(self, root: str) -> ConceptSubgraph:
        """Return the directed-reachability closure from ``root``.

        One breadth-first pass numbers each node as it finds it and builds
        each node's ``targets`` row as it visits it. Safe on cyclic graphs; a
        node with no outgoing edges yields a single-node closure of degree 0.
        """
        if root not in self._hops:
            raise GraphError(f"unknown root concept: {root!r}")
        order = [root]
        position = {root: 0}
        targets = []
        for node in order:
            row = []
            for nxt in self._adjacency[node]:
                i = position.get(nxt)
                if i is None:
                    i = position[nxt] = len(order)
                    order.append(nxt)
                row.append(i)
            targets.append(tuple(row))
        return ConceptSubgraph(root=root, nodes=tuple(order), targets=tuple(targets))

    def select_best_concept(self) -> ConceptSubgraph:
        """The closure of the root with the most edges; ties go to the root
        listed earlier."""
        return max(map(self.isolate_subgraph, self.roots), key=attrgetter("graph_degree"))

    # ------------------------------------------------------------------
    # serialization: one line per node, "title<TAB>hop<TAB>out1|out2|..."
    # ------------------------------------------------------------------

    def dumps(self) -> str:
        lines = []
        for title, hop in self._hops.items():
            links = "|".join(self._adjacency[title])
            lines.append(f"{title}\t{hop}\t{links}")
        return "\n".join(lines) + "\n"
