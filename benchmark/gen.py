"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the workload seed, so
one seed always gives the same inputs. Sizes (node, edge, page and link
counts) are fixed by the arguments, not by the seed, so that two seeds
differ in wiring and names but not in how much work they ask for.
"""

from __future__ import annotations

import random
import urllib.parse

from wikiqe import OntologyGraph
from wikiqe.text import default_stopwords

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
PARENTHETICALS = ("film", "novel", "album", "band", "river", "software")
NON_ARTICLE_LINKS = ("Category:Stub_articles", "File:Map.svg", "Help:Contents", "Template:Cite")


def word_source(rng: random.Random):
    """Endless stream of distinct pseudo-words that are not stopwords."""
    stop = default_stopwords()
    seen: set[str] = set()
    while True:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.choice((2, 3, 3, 4))))
        if word not in seen and word not in stop:
            seen.add(word)
            yield word


def make_titles(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct normalized titles of one to three pseudo-words.

    About 6% of them reuse an earlier title with a disambiguator such as
    "x (film)", so term_from_title collapses them.
    """
    words = word_source(rng)
    titles: list[str] = []
    taken: set[str] = set()
    while len(titles) < count:
        if titles and rng.random() < 0.06:
            title = f"{rng.choice(titles).split(' (')[0]} ({rng.choice(PARENTHETICALS)})"
        else:
            title = " ".join(next(words) for _ in range(rng.choice((1, 2, 2, 3))))
        if title not in taken:
            taken.add(title)
            titles.append(title)
    return titles


def zipf_picker(rng: random.Random, items: list):
    """Draw from ``items`` with popularity falling off as 1 / rank**1.1."""
    weights = [1.0 / (rank ** 1.1) for rank in range(1, len(items) + 1)]
    cumulative = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)

    def pick(k: int) -> list:
        return rng.choices(items, cum_weights=cumulative, k=k)

    return pick


# ---------------------------------------------------------------------------
# qe-synthetic: crawl-shaped concept graphs
# ---------------------------------------------------------------------------

# Shape of the bundled fixture crawl of "adolescent alcoholism" (the one
# fixture query with several roots), read with WikiSource.build_graph on
# fixtures/snapshot: 5 candidate roots (also the config's candidate_count),
# the best root's closure holds 18 of the 23 nodes, and 8 of the 33 links
# point to a page at the same or a lower hop (a back link).
QE_ROOTS = 5
QE_BEST_SHARE = 18 / 23
QE_BACK_SHARE = 8 / 33


def concept_graph(rng: random.Random, nodes: int) -> tuple[OntologyGraph, str]:
    """A crawl-shaped graph with exactly ``nodes`` nodes at hop bound 3.

    Each root owns a breadth-first tree crawled to hop 3 with the same
    branching at every hop; root 0's tree holds QE_BEST_SHARE of the other
    nodes. Besides its tree links, every page below hop 3 carries back
    links, QE_BACK_SHARE of its links, to popular (Zipf-ranked) pages of
    its own tree at its own hop or above. With these, every expanded page
    of root 0's tree reaches the whole tree, so the work of closeness (one
    breadth-first search per node) is the same for every seed. A third of
    the other roots' back links go to root 0's hop-3 pages instead, so
    their closures overlap root 0's while root 0's closure stays the
    largest. Returns the
    graph and a user query made from root 0's title; two pages of root 0's
    tree repeat a query word ("w" and "w (film)"), so term filtering and
    title dedup have work to do.
    """
    titles = make_titles(rng, nodes - 2)
    word = next(w for w in word_source(rng) if w not in titles)
    query = f"{titles[0].split(' (')[0]} {word}"
    root_titles = [query] + titles[1:QE_ROOTS]
    rest = titles[QE_ROOTS:]
    main = round(QE_BEST_SHARE * (nodes - QE_ROOTS))
    side = nodes - QE_ROOTS - main
    members = [[word, f"{word} ({PARENTHETICALS[0]})"] + rest[:main - 2]]
    for j in range(QE_ROOTS - 1):
        lo = main - 2 + side * j // (QE_ROOTS - 1)
        members.append(rest[lo:main - 2 + side * (j + 1) // (QE_ROOTS - 1)])

    trees = []  # per root: levels [[root], hop 1, hop 2, hop 3] and tree links
    for root, own in zip(root_titles, members):
        order = list(own)
        rng.shuffle(order)
        b = 1  # the largest branching that a full crawl to hop 3 fills
        while (b + 1) + (b + 1) ** 2 + (b + 1) ** 3 <= len(order):
            b += 1
        levels = [[root], order[:b], order[b:b + b * b], order[b + b * b:]]
        children: dict[str, list[str]] = {}
        for parents, level in zip(levels, levels[1:]):
            for i, title in enumerate(level):
                children.setdefault(parents[i % len(parents)], []).append(title)
        trees.append((levels, children))

    main_leaves = zipf_picker(rng, trees[0][0][3])
    graph = OntologyGraph(root_titles, hop_bound=3)
    for hop in range(3):
        for tree, (levels, children) in enumerate(trees):
            popular = [t for level in levels[:hop + 1] for t in level]
            rng.shuffle(popular)
            own_pick = zipf_picker(rng, popular)
            for page in levels[hop]:
                links = list(children.get(page, ()))
                chosen = set(links) | {page}
                back = round(len(links) * QE_BACK_SHARE / (1 - QE_BACK_SHARE))
                for i in range(min(back, len(popular) - 1)):
                    pick = main_leaves if tree and i % 3 == 0 else own_pick
                    target = pick(1)[0]
                    while target in chosen:
                        target = pick(1)[0]
                    chosen.add(target)
                    links.insert(rng.randrange(len(links) + 1), target)
                graph.add_page(page, links, hop)
    return graph, query


# ---------------------------------------------------------------------------
# crawl-synthetic: a small synthetic Wikipedia behind a fake MediaWiki API
# ---------------------------------------------------------------------------

def _href(title: str) -> str:
    display = title[:1].upper() + title[1:]
    return "/wiki/" + urllib.parse.quote(display.replace(" ", "_"))


def _render(links: list[str], rng: random.Random) -> str:
    """Article HTML: the links in order, with filler text, a repeated link,
    non-article namespace links and an external link mixed in."""
    parts = ["<div class=\"mw-parser-output\"><p>"]
    for i, title in enumerate(links):
        parts.append(f"Text {i} <a href=\"{_href(title)}\" title=\"{title}\">{title}</a>. ")
        if i % 7 == 3:
            parts.append(f"<a href=\"/wiki/{NON_ARTICLE_LINKS[i % len(NON_ARTICLE_LINKS)]}\">x</a> ")
    if links:
        parts.append(f"See <a href=\"{_href(links[0])}\">again</a>. ")
    parts.append(f"<a href=\"https://example.org/ref/{rng.randrange(10**6)}\">ref</a></p></div>")
    return "".join(parts)


class SyntheticWiki:
    """Topic clusters plus a shared pool, served as MediaWiki API responses by
    :meth:`transport` (pass it to ``WikiClient(transport=...)``).

    Eight queries, one cluster each. A query's search hits are a
    disambiguation page (listing three cluster pages) and two more cluster
    pages, which give the crawl its five roots.
    Roots link to six pages each (hop 1); hop-1 pages link to nine cluster
    pages each (hop 2), to shared pages (hop 2; the low-numbered ones from
    many pages, so popularity is skewed) and sometimes to titles that answer
    ``missingtitle``. Hop-2 pages link to leaves: Zipf-ranked cluster and
    shared pages, and missing titles; two of them per cluster carry more
    links than the crawl's per-page cap. The link wiring is fixed, so every
    seed fetches the same number of pages at hop bound 3; the seed chooses
    titles, leaves and link order. All HTML is rendered by the constructor.
    """

    def __init__(self, rng: random.Random):
        queries, shared_pages, missing_titles, leaves, hub_links = 8, 60, 24, 300, 130
        roots, hop1, hop2 = 5, 6, 9
        fetched = roots + roots * hop1 + roots * hop1 * hop2
        cluster_size = fetched + leaves
        titles = make_titles(rng, queries * cluster_size + shared_pages + missing_titles)
        words = word_source(random.Random(rng.random()))
        shared = titles[:shared_pages]
        missing = titles[shared_pages:shared_pages + missing_titles]
        rest = titles[shared_pages + missing_titles:]
        leaf_shared_pick = zipf_picker(rng, shared)

        self.links: dict[str, list[str]] = {}
        self.disambiguation: set[str] = set()
        self.search_results: dict[str, list[str]] = {}
        self.queries: list[str] = []
        self.expected_roots: dict[str, list[str]] = {}

        def with_back_links(own: list[str], back: list[str]) -> list[str]:
            links = own + rng.sample(back, min(2, len(back)))
            rng.shuffle(links)
            return links

        for q in range(queries):
            cluster = rest[q * cluster_size:(q + 1) * cluster_size]
            level0, cluster = cluster[:roots], cluster[roots:]
            level1, cluster = cluster[:roots * hop1], cluster[roots * hop1:]
            level2, leaf_pool = cluster[:roots * hop1 * hop2], cluster[roots * hop1 * hop2:]
            leaf_pick = zipf_picker(rng, leaf_pool)
            for i, page in enumerate(level0):
                self.links[page] = with_back_links(level1[i * hop1:(i + 1) * hop1], level0)
            for i, page in enumerate(level1):
                own = level2[i * hop2:(i + 1) * hop2]
                own += [shared[(3 * i + q) % shared_pages], shared[i % 5]]
                if i % 5 == 0:
                    own.append(missing[(q + i) % missing_titles])
                self.links[page] = with_back_links(list(dict.fromkeys(own)), level1)
            for i, page in enumerate(level2):
                if i < 2:
                    out = rng.sample(leaf_pool + shared, hub_links)
                else:
                    out = list(dict.fromkeys(leaf_pick(1)[0] if j % 4 else leaf_shared_pick(1)[0]
                                             for j in range(6 + (i * 5) % 7)))
                if i % 6 == 0:
                    out.append(missing[(q * 7 + i) % missing_titles])
                self.links[page] = with_back_links(out, level1)
            for page in leaf_pool:
                self.links[page] = leaf_pick(5)
            disambiguation = f"{next(words)} (disambiguation)"
            self.links[disambiguation] = level0[:3]
            self.disambiguation.add(disambiguation)
            query = f"{next(words)} {next(words)}"
            self.queries.append(query)
            self.search_results[query] = [disambiguation] + level0[3:]
            self.expected_roots[query] = list(level0)
        for page in shared:
            self.links[page] = [t for t in leaf_shared_pick(6) if t != page]
        self.links = {page: [t for t in links if t != page] for page, links in self.links.items()}
        self.html = {title: _render(links, rng) for title, links in self.links.items()}
        self.requests = 0
        self.failures = 0

    def transport(self, params: dict) -> dict:
        """Answer one MediaWiki API request the way WikiClient sends it."""
        self.requests += 1
        try:
            if params["action"] == "query":
                hits = self.search_results.get(params["srsearch"], [])[: int(params["srlimit"])]
                return {"query": {"search": [{"title": t[:1].upper() + t[1:]} for t in hits]}}
            title = params["page"]
            html = self.html.get(title)
            if html is None:
                return {"error": {"code": "missingtitle", "info": "The page you specified doesn't exist."}}
            properties = [{"name": "disambiguation", "*": ""}] if title in self.disambiguation else []
            return {"parse": {"title": title, "text": {"*": html}, "properties": properties}}
        except (KeyError, ValueError):
            self.failures += 1
            raise
