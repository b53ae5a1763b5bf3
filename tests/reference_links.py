"""The html.parser link extractor the crawl used before its link scanner,
kept verbatim as the oracle for ``wikiqe._live._article_links``, plus the
inputs both are compared on.

Run as a script to compare them on every page of all sixteen benchmark
crawl variants and on the hand cases, without pytest::

    PYTHONPATH=src python tests/reference_links.py
"""

import random
import sys
from html.parser import HTMLParser
from pathlib import Path

from wikiqe.graph import normalize_title
from wikiqe._live import _NON_ARTICLE_PREFIXES, _article_links

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
VARIANTS = 16  # benchmark/workloads.py: the crawl variants a seed picks from


class ReferenceLinkExtractor(HTMLParser):
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


def reference_links(html: str) -> list[str]:
    extractor = ReferenceLinkExtractor()
    extractor.feed(html)
    return extractor.links


def synthetic_wiki(variant: int):
    """The synthetic Wikipedia the crawl-synthetic workload serves for one variant."""
    if str(BENCHMARK) not in sys.path:
        sys.path.insert(0, str(BENCHMARK))
    import gen

    return gen.SyntheticWiki(random.Random(f"crawl-{variant}"))


def synthetic_pages(variant: int) -> list[str]:
    """Every page the crawl-synthetic workload serves for one variant."""
    return list(synthetic_wiki(variant).html.values())


# (id, page HTML, the links both extractors give)
HAND_CASES = [
    ("named-and-numeric-entities",
     '<a href="/wiki/AT&amp;T">x</a><a href="/wiki/Caf&eacute;">y</a>'
     '<a href="/wiki/Rock_&#39;n&#39;_roll">z</a><a href="/wiki/Pi&#x3C0;">w</a>',
     ["at&t", "café", "rock 'n' roll", "piπ"]),
    ("single-quoted", "<a href='/wiki/Single_quoted' title='it'>x</a>", ["single quoted"]),
    ("unquoted", "<a href=/wiki/Unquoted>x</a> <a href=/wiki/Trailing_slash/>y</a>",
     ["unquoted", "trailing slash/"]),
    ("upper-case", '<A HREF="/wiki/Upper_case">x</A><a Href="/wiki/Mixed">y</a>',
     ["upper case", "mixed"]),
    ("href-after-other-attributes",
     '<a class="mw-redirect" title="t" href="/wiki/After_others">x</a>', ["after others"]),
    ("href-before-other-attributes",
     '<a href="/wiki/Before_others" class="c" title="t">x</a>', ["before others"]),
    ("repeated-href-last-wins",
     '<a href="/wiki/First" title="t" href="/wiki/Second">x</a>', ["second"]),
    ("newlines-inside-the-tag",
     '<a\nhref="/wiki/New_line"\n  title="t"\n>x</a><a\thref=\'/wiki/Tab\'\r\n>y</a>',
     ["new line", "tab"]),
    ("slash-and-self-closing",
     '<a/href="/wiki/Slash_separated">x</a><a href="/wiki/Empty_element"/>',
     ["slash separated", "empty element"]),
    ("fragments",
     '<a href="/wiki/Page#Section">a</a><a href="#cite_note-1">b</a>'
     '<a href="/wiki/#only-a-fragment">c</a><a href="/wiki/Page">d</a>', ["page"]),
    ("namespace-prefixes",
     '<a href="/wiki/Category:Stubs">a</a><a href="/wiki/category:stubs">b</a>'
     '<a href="/wiki/Talk:Page">c</a><a href="/wiki/Wikt:word">d</a>'
     '<a href="/wiki/Star_Wars:_Episode_IV">e</a>', ["star wars: episode iv"]),
    ("not-an-a-tag",
     '<abbr href="/wiki/Abbr">a</abbr><area href="/wiki/Area"><aside href="/wiki/Aside">'
     '<link href="/wiki/Link"><a name="anchor">n</a><a href>e</a><a href="">f</a>', []),
    ("other-link-forms",
     '<a href="https://en.wikipedia.org/wiki/External">a</a>'
     '<a href="//en.wikipedia.org/wiki/Protocol_relative">b</a>'
     '<a href="/w/index.php?title=Edit&amp;action=edit">c</a><a href="/wiki/">d</a>', []),
    ("dedup-across-spellings",
     '<a href="/wiki/Foo_bar">a</a><a href="/wiki/Foo%20bar">b</a><a href="/wiki/FOO_BAR">c</a>'
     '<a href="/wiki/C%2B%2B">d</a>', ["foo bar", "c++"]),
    ("markup-inside-quoted-values",
     '<a title="<b>bold</b>" href="/wiki/Quoted_markup" data-x=\'a > b\'>x</a>',
     ["quoted markup"]),
    ("inside-a-comment",
     '<a href="/wiki/Before">a</a><!-- <a href="/wiki/Commented">x</a> - still in -->'
     '<!----><a href="/wiki/After">b</a>', ["before", "after"]),
    ("inside-script-and-style",
     '<script>var s = \'<a href="/wiki/Scripted">\'; // <!--</script>'
     '<a href="/wiki/Between">a</a>'
     '<STYLE type="text/css">/* <a href="/wiki/Styled"> */</STYLE >'
     '<script src="x.js"/><a href="/wiki/After_empty_script">b</a>',
     ["between", "after empty script"]),
    ("href-on-script-and-style",
     '<script href="/wiki/Script_tag"/><style href="/wiki/Style_tag"></style>'
     '<a href="/wiki/After">a</a>', ["after"]),
    ("unterminated-comment", '<a href="/wiki/Kept">a</a><!-- <a href="/wiki/Lost">b</a>', ["kept"]),
    ("unterminated-script", '<a href="/wiki/Kept">a</a><script> <a href="/wiki/Lost">', ["kept"]),
    ("unterminated-tag", '<a href="/wiki/Kept">a</a><a href="/wiki/Lost', ["kept"]),
]


def main() -> int:
    print(f"Python {sys.version.split()[0]}")
    failures = 0
    for name, html, expected in HAND_CASES:
        if not _article_links(html) == reference_links(html) == expected:
            failures += 1
            print(f"hand case {name}: scanner {_article_links(html)}, "
                  f"html.parser {reference_links(html)}, expected {expected}")
    print(f"{len(HAND_CASES)} hand cases")
    pages = 0
    for variant in range(VARIANTS):
        for html in synthetic_pages(variant):
            pages += 1
            if _article_links(html) != reference_links(html):
                failures += 1
                print(f"variant {variant}: page differs: {html[:80]!r}")
    print(f"{pages} pages of {VARIANTS} variants, {failures} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
