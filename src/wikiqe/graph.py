"""Directed graph of Wikipedia concepts and the subgraph operations built on it.

Nodes are normalized article titles annotated with their hop distance from
the nearest root concept. Edges are the article hyperlinks. A completed
graph is treated as immutable and can be shared freely across threads;
construction is single-writer.
"""

from __future__ import annotations

import urllib.parse
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class ConceptSubgraph:
    """Reachability closure of one root inside a parent graph.

    ``nodes`` are listed in breadth-first discovery order (deterministic for
    a given parent graph); ``adjacency`` keeps the parent's outlink order.
    ``graph_degree`` is the number of edges in the closure and is the
    quantity that ranks candidate concepts against each other.
    """

    root: str
    nodes: tuple[str, ...]
    adjacency: dict[str, list[str]] = field(repr=False)

    @property
    def graph_degree(self) -> int:
        return sum(map(len, self.adjacency.values()))

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

    def add_page(self, page: str, outlinks: list[str], hop: int) -> None:
        """Insert a page and its outgoing links at the given hop distance.

        Targets land at ``hop + 1`` (or keep a smaller hop already seen;
        decreases propagate to descendants). Re-adding a page adds only the
        links it does not have yet.
        Raises GraphError when the insertion would place a node past the
        hop bound, which indicates a crawl-frontier bug.
        """
        if hop > self.hop_bound:
            raise GraphError(f"page {page!r} at hop {hop} exceeds bound {self.hop_bound}")
        if hop >= self.hop_bound and outlinks:
            raise GraphError(
                f"page {page!r} at hop {hop} must be a leaf (bound {self.hop_bound})"
            )
        self._check_title(page)
        self._insert(page, hop)
        links = self._adjacency[page]
        for target in outlinks:
            self._check_title(target)
            if target == page:
                continue
            # After this, hop(target) <= hop(page) + 1: the new edge needs no walk.
            self._insert(target, self._hops[page] + 1)
            if target not in links:
                links.append(target)

    def _insert(self, title: str, hop: int) -> None:
        known = self._hops.get(title)
        if known is None:
            self._hops[title] = hop
            self._adjacency[title] = []
        elif hop < known:
            # Propagate the decrease along existing edges so annotations stay
            # equal to true shortest-path distances regardless of insert order.
            self._hops[title] = hop
            queue = deque([title])
            while queue:
                node = queue.popleft()
                base = self._hops[node]
                for nxt in self._adjacency[node]:
                    if base + 1 < self._hops[nxt]:
                        self._hops[nxt] = base + 1
                        queue.append(nxt)

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

    def __contains__(self, title: str) -> bool:
        return title in self._hops

    def isolate_subgraph(self, root: str) -> ConceptSubgraph:
        """Return the directed-reachability closure from ``root``.

        Safe on cyclic graphs; a node with no outgoing edges yields a
        single-node closure of degree 0.
        """
        if root not in self._hops:
            raise GraphError(f"unknown root concept: {root!r}")
        return self._subgraph(root, self._closure(root))

    def _subgraph(self, root: str, order: list[str]) -> ConceptSubgraph:
        adjacency = {u: list(self._adjacency[u]) for u in order}
        return ConceptSubgraph(root=root, nodes=tuple(order), adjacency=adjacency)

    def _closure(self, root: str) -> list[str]:
        # Nodes reachable from root, in breadth-first discovery order.
        order = [root]
        seen = {root}
        for node in order:
            for nxt in self._adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        return order

    def select_best_concept(self) -> ConceptSubgraph:
        """Pick the root whose closure has the most edges.

        Ties go to the root listed earlier, then to the lexicographically
        smaller title, so selection is deterministic. Each root's closure
        is walked once; the winner's subgraph is built from that walk.
        """
        if not self.roots:
            raise GraphError("graph has no roots")

        def ranked(position: int, root: str):
            order = self._closure(root)
            return -sum(len(self._adjacency[u]) for u in order), position, root, order

        _, _, winner, order = min(ranked(position, root) for position, root in enumerate(self.roots))
        return self._subgraph(winner, order)

    # ------------------------------------------------------------------
    # serialization: one line per node, "title<TAB>hop<TAB>out1|out2|..."
    # ------------------------------------------------------------------

    def dumps(self) -> str:
        lines = []
        for title, hop in self._hops.items():
            links = "|".join(self._adjacency[title])
            lines.append(f"{title}\t{hop}\t{links}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str, hop_bound: int | None = None) -> "OntologyGraph":
        """Rebuild a graph from its serialized form (bit-exact round-trip).

        Roots are the hop-0 records, in file order. ``hop_bound`` defaults
        to the largest hop present. Raises GraphError naming the line for a
        record with a malformed or out-of-range hop, with a link to a title
        that has no record of its own, or with a hop more than one past the
        hop of a page linking to it (longer than its shortest path).
        """
        records: list[tuple[int, str, int, list[str]]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 3 tab-separated fields")
            title, hop_text, links = parts
            try:
                hop = int(hop_text)
            except ValueError:
                raise GraphError(f"line {lineno}: bad hop {hop_text!r}") from None
            if hop < 0:
                raise GraphError(f"line {lineno}: negative hop {hop}")
            if hop_bound is not None and hop > hop_bound:
                raise GraphError(f"line {lineno}: hop {hop} exceeds bound {hop_bound}")
            outlinks = links.split("|") if links else []
            records.append((lineno, title, hop, outlinks))
        if not records:
            raise GraphError("empty graph serialization")
        if hop_bound is None:
            hop_bound = max(1, max(hop for _, _, hop, _ in records))
        roots = [title for _, title, hop, _ in records if hop == 0]
        graph = cls(roots, hop_bound=hop_bound)
        # Two passes: register every node at its recorded hop first, then
        # attach edges, so hops survive arbitrary record order.
        line_of = {}
        for lineno, title, hop, _ in records:
            graph._insert(title, hop)
            line_of.setdefault(title, lineno)
        for lineno, title, _, outlinks in records:
            targets = graph._adjacency[title]
            for target in outlinks:
                if target not in graph._hops:
                    raise GraphError(f"line {lineno}: link to {target!r}, which has no record")
                if graph._hops[target] > graph._hops[title] + 1:
                    raise GraphError(
                        f"line {line_of[target]}: {target!r} at hop {graph._hops[target]},"
                        f" but {title!r} at hop {graph._hops[title]} links to it"
                    )
                if target != title and target not in targets:
                    targets.append(target)
        return graph
