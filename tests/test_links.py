r"""Link extraction: the crawl's scanner against the html.parser extractor it
replaced, kept verbatim in ``reference_links.py``.

The claim is ``==`` link lists on MediaWiki parser output, not on arbitrary
HTML. The scanner visits only ``<a`` start tags, comments and
``<script>``/``<style>`` bodies; a tokenizer reads every tag. The two
differ where a raw ``<`` does not open well-formed markup: ``<a<a href=..>``
is one start tag named ``a<a`` to the tokenizer, and a ``<`` inside another
tag's attribute value, in a processing instruction, a ``<!...>``
declaration or an end tag's junk is consumed by the tokenizer but not
skipped by the scanner. MediaWiki escapes ``<`` in text and attribute
values, so its output holds none of these. The generated pages below
follow its output in that respect: every ``<`` opens a well-formed tag,
comment or raw-text element, attribute values are entity-escaped, and
comment and raw-text bodies hold no text that closes them early under one
``html.parser`` release and not under another (``-- >``, ``</ script>``).

The scanner follows ``html.parser`` as CPython 3.10.13 to 3.13.0 release it
(the same in each): ``ingest._ATTRIBUTE`` is that release's
``attrfind_tolerant``, and comments end at ``--\s*>`` and script/style
bodies at ``</\s*script\s*>``, as there. The oracle runs on the interpreter's
own ``html.parser``. Later patch releases (3.13.13 among them) rewrote it:
comments end at ``--!?>``, raw-text bodies at ``</script`` followed by a
space, ``/`` or ``>``, attributes take ASCII whitespace and one ``=``, and
the bodies of ``xmp``, ``iframe``, ``noembed``, ``noframes``, ``textarea``,
``title`` and ``plaintext`` are raw text as well.
The inputs below avoid every form the two generations read differently,
so these tests hold under either; that real MediaWiki pages avoid them too
is assumed, not checked here.
"""

import re
import urllib.parse

import pytest

from wikiqe.ingest import _article_links

from reference_links import HAND_CASES, reference_links, synthetic_pages


@pytest.mark.parametrize("variant", [0, 7, 15])
def test_every_synthetic_wiki_page(variant):
    pages = synthetic_pages(variant)
    assert len(pages) > 4000
    assert [_article_links(html) for html in pages] == [reference_links(html) for html in pages]


@pytest.mark.parametrize("html, expected", [pytest.param(html, expected, id=name)
                                            for name, html, expected in HAND_CASES])
def test_hand_cases(html, expected):
    assert reference_links(html) == expected
    assert _article_links(html) == expected


# ---------------------------------------------------------------------------
# generated pages shaped like MediaWiki parser output
# ---------------------------------------------------------------------------

# Entity spellings of the characters MediaWiki escapes in attribute values.
ESCAPES = {"&": ["&amp;", "&#38;", "&#x26;"], "<": ["&lt;", "&#60;"], ">": ["&gt;", ">"],
           '"': ["&quot;", "&#34;"], "'": ["&#39;", "&apos;", "&#x27;"]}
UNQUOTED_VALUE = re.compile(r"[^\s\"'=<>`]+")


def mediawiki_like_pages(hypothesis):
    """A strategy for pages in which every "<" opens well-formed markup.

    Built inside a function so that the other tests of this module run
    where hypothesis is not installed. Every strategy used in a draw is
    built once here: building them inside a draw makes generation slow.
    """
    st = hypothesis.strategies
    separators = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", " \n  "])
    title_text = st.text(st.sampled_from("abcXYZ _-()%#:'&,.é™ß0"), max_size=10)
    # Text as MediaWiki emits it: any character but a raw "<".
    plain_text = st.text(st.sampled_from("ab Z\n\t>&;#=/'\"-!?é\u00a0\u2028"), max_size=8)

    @st.composite
    def hrefs(draw):
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([
                "https://en.wikipedia.org/wiki/External", "//en.wikipedia.org/wiki/Relative",
                "#cite_note-1", "/w/index.php?title=Edit&action=edit", "", "/wiki/", "/Wiki/Case",
            ]))
        prefix = draw(st.sampled_from(["", "", "", "Category:", "file:", "Talk:", "Wikt:",
                                       "Star_Wars:_", "Portal:Science/"]))
        title = draw(title_text)
        if draw(st.booleans()):
            title = urllib.parse.quote(title)
        fragment = draw(st.sampled_from(["", "", "#Section", "#", "#a_b"]))
        return "/wiki/" + prefix + title + fragment

    escape_choices = {ch: st.sampled_from(spellings) for ch, spellings in ESCAPES.items()}
    quotes = st.sampled_from(['"', "'"])
    quotes_or_bare = st.sampled_from(['"', "'", "bare"])
    attribute_names = st.lists(st.sampled_from(["href", "HREF", "Href", "title", "class", "rel",
                                                "data-x", "id"]), max_size=4)
    href_values = st.one_of(hrefs(), st.none())
    other_values = st.one_of(plain_text, st.none())
    tag_ends = st.sampled_from([">", ">", " >", "\n>"])
    void_tag_ends = st.sampled_from(["/>", " />"])

    def attribute(draw, name, value):
        if value is None:
            return name
        escaped = "".join(draw(escape_choices[ch]) if ch in ESCAPES else ch for ch in value)
        style = draw(quotes_or_bare if UNQUOTED_VALUE.fullmatch(escaped) else quotes)
        if style == "bare":
            return f"{name}={escaped}"
        return f"{name}={style}{escaped.replace(style, ESCAPES[style][0])}{style}"

    def start_tag(draw, tag, void=False):
        names = draw(attribute_names)
        if tag.lower() == "a" and draw(st.integers(0, 3)):  # most links carry an href
            names.insert(draw(st.integers(0, len(names))), "href")
        parts = []
        for name in names:
            value = draw(href_values if name.lower() == "href" else other_values)
            parts.append(draw(separators) + attribute(draw, name, value))
        return f"<{tag}{''.join(parts)}{draw(void_tag_ends if void else tag_ends)}"

    raw_text_pieces = st.lists(st.one_of(plain_text, st.sampled_from([
        '<a href="/wiki/Hidden">', "<!--", "-->", "</a>", "</div>", "'<'", "&amp;"])), max_size=5)
    comment_pieces = st.lists(st.one_of(plain_text, st.sampled_from([
        '<a href="/wiki/Hidden">', "</a>", "-", "<p>", "<script>"])), max_size=5)

    @st.composite
    def raw_text_element(draw):
        tag = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
        if draw(st.integers(0, 5)) == 0:
            return start_tag(draw, tag, void=True)
        body = "".join(draw(raw_text_pieces))
        hypothesis.assume(not re.search(r"</\s*(script|style)", body, re.IGNORECASE))
        return start_tag(draw, tag) + body + f"</{tag}>"

    @st.composite
    def comment(draw):
        body = " " + "".join(draw(comment_pieces)) + " "
        hypothesis.assume("--" not in body)
        return f"<!--{body}-->"

    @st.composite
    def void_element(draw):
        return start_tag(draw, draw(st.sampled_from(["a", "a", "br", "img", "area", "link"])),
                         void=True)

    def element(children):
        @st.composite
        def build(draw):
            tag = draw(st.sampled_from(["a", "a", "a", "A", "abbr", "b", "div", "span", "p", "li"]))
            return start_tag(draw, tag) + "".join(draw(children)) + f"</{tag}>"
        return build()

    nodes = st.recursive(
        st.one_of(plain_text, void_element(), comment(), raw_text_element()),
        lambda children: element(st.lists(children, max_size=4)),
        max_leaves=10,
    )
    return st.lists(nodes, max_size=4).map(
        lambda parts: '<div class="mw-parser-output">' + "".join(parts) + "</div>")


def test_generated_mediawiki_like_pages():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(mediawiki_like_pages(hypothesis))
    def scanner_matches_tokenizer(html):
        assert _article_links(html) == reference_links(html)

    scanner_matches_tokenizer()
