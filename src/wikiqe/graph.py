"""Directed graph of Wikipedia concepts and the subgraph operations built on it.

Nodes are normalized article titles annotated with their hop: the
breadth-first distance from the nearest root concept. Edges are the article
hyperlinks. ``add_page`` takes pages in breadth-first order and ``loads``
takes records under the same hop rule, so no hop is repaired afterwards.
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
        return self._link(page, outlinks)

    def _link(self, page: str, outlinks: list[str], line_of: dict[str, int] | None = None) -> list[str]:
        # The hop rule: a link reaches at most one hop past its page, and a
        # new node lands exactly there, so a graph built under it keeps each
        # hop equal to the breadth-first distance from the roots. Every
        # target is checked before the first change.
        limit = self._hops[page] + 1
        for target in outlinks:
            self._check_title(target)
            known = self._hops.get(target, limit)
            if known > limit:
                where = f"line {line_of[target]}: " if line_of else ""
                raise GraphError(
                    f"{where}{target!r} at hop {known}, but {page!r} at hop {limit - 1} links to it"
                )
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

    def __contains__(self, title: str) -> bool:
        return title in self._hops

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

    @classmethod
    def loads(cls, text: str, hop_bound: int | None = None) -> "OntologyGraph":
        """Rebuild a graph from its serialized form (bit-exact round-trip).

        Nodes keep file order; roots are the hop-0 records. ``hop_bound``
        defaults to the largest hop present, plus one when a page at that hop
        has links: the least bound under which ``add_page`` builds the graph,
        so every crawl's dump loads. Every hop must be the breadth-first
        distance from the roots: raises GraphError naming the line for a
        malformed record, a negative hop or one past ``hop_bound``, links from
        a page at ``hop_bound``, a bad or duplicate title, a link to a title
        with no record, a link that breaks the hop rule of ``add_page``, and a
        non-root record that no page one hop closer links to (a short hop or
        an unreachable page).
        """
        records: list[tuple[int, str, int, list[str]]] = []
        line_of: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 3 tab-separated fields")
            title, hop_text, links = parts
            try:
                hop = int(hop_text)
                cls._check_title(title)
            except ValueError:
                raise GraphError(f"line {lineno}: bad hop {hop_text!r}") from None
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
            if hop < 0:
                raise GraphError(f"line {lineno}: negative hop {hop}")
            if hop_bound is not None and hop > hop_bound:
                raise GraphError(f"line {lineno}: hop {hop} exceeds bound {hop_bound}")
            if hop == hop_bound and links:
                raise GraphError(
                    f"line {lineno}: page {title!r} at hop {hop} must be a leaf (bound {hop_bound})"
                )
            if title in line_of:
                raise GraphError(f"line {lineno}: duplicate record for {title!r} (line {line_of[title]})")
            line_of[title] = lineno
            records.append((lineno, title, hop, links.split("|") if links else []))
        if not records:
            raise GraphError("empty graph serialization")
        if hop_bound is None:
            top = max(hop for _, _, hop, _ in records)
            hop_bound = max(1, top + any(links for _, _, hop, links in records if hop == top))
        graph = cls([title for _, title, hop, _ in records if hop == 0], hop_bound=hop_bound)
        graph._hops = {title: hop for _, title, hop, _ in records}
        graph._adjacency = {title: [] for title in graph._hops}
        parented = set()  # the titles a page one hop closer links to
        for lineno, title, hop, outlinks in records:
            for target in outlinks:
                if target not in line_of:
                    raise GraphError(f"line {lineno}: link to {target!r}, which has no record")
            graph._link(title, outlinks, line_of)
            parented.update(t for t in outlinks if graph._hops[t] == hop + 1)
        for lineno, title, hop, _ in records:
            if hop and title not in parented:
                raise GraphError(
                    f"line {lineno}: {title!r} at hop {hop}, but no page at hop {hop - 1} links to it"
                )
        return graph
