"""Fuzzed run inputs: the ``bench --queries`` file, the ``paths.stopwords``
file, and one payload of a live crawl. A file is truncated, has a byte
flipped, has arrays nested too deep for ``json`` inserted, or is a
directory; a payload of a fake MediaWiki API serving the fixture snapshot
loses or retypes a field, gets an ``error`` object, or has a reserved
character put in a search hit's title or a link's href. ``main`` runs in
process, so a traceback fails the test. Each run must exit 0, 1 or 2, and
every ``error:`` or ``skipping`` line must name what was mutated: the file,
a query line the mutation changed, or the page title or search string of
the payload. ``bench`` keeps the row of every query line left intact."""

import contextlib
import copy
import html
import io
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path
from urllib.parse import quote

import pytest

from test_cache_fuzz import QUERIES, SNAPSHOT, assert_clean, bench_rows, pristine
from test_cli import CONFIG, QUERY, fixture_config_copy
from test_gold_fuzz import WRONG_TYPES, byte_mutations, mutate
from wikiqe.cli import main
from wikiqe.config import RunConfig
from wikiqe.graph import _FORBIDDEN
from wikiqe.ingest import PageCache, WikiClient, WikiSource

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

STOPWORDS = Path(__file__).resolve().parent.parent / "src" / "wikiqe" / "data" / "stopwords.txt"


def run(argv: list[str]):
    """``main(argv)`` in process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bench_queries(path: Path) -> list[str] | None:
    """The queries ``bench`` reads from ``path``, or None if it cannot read them."""
    try:
        lines = (line.strip() for line in path.read_text(encoding="utf-8-sig").splitlines())
    except (OSError, ValueError):
        return None
    return [line for line in lines if line and not line.startswith("#")]


# ---------------------------------------------------------------------------
# the bench --queries file and the paths.stopwords file
# ---------------------------------------------------------------------------

@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(byte_mutations(Path(QUERIES).stat().st_size))
def test_a_broken_queries_file_costs_only_the_lines_it_changed(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.txt"
        shutil.copyfile(QUERIES, path)
        mutate(path, mutation)
        code, out, err = run(["bench", "--queries", str(path), "--config", CONFIG])
        assert code in (0, 1) and "Traceback" not in err, err
        queries = bench_queries(path)
        if code:  # the file as a whole: not UTF-8, or not a file
            assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1, err
            return
        changed = set(queries) - set(bench_queries(Path(QUERIES)))
        for line in err.splitlines():
            assert any(line.startswith(f"skipping {query!r}: ") for query in changed), err
        rows, pristine_rows = bench_rows(out), bench_rows(pristine("bench")[1])
        for query in set(queries) - changed:
            assert rows.get(query) == pristine_rows[query], (query, err)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(byte_mutations(STOPWORDS.stat().st_size))
def test_a_broken_stopwords_file_is_an_error_naming_it(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "stopwords.txt"
        shutil.copyfile(STOPWORDS, path)
        mutate(path, mutation)
        config = fixture_config_copy(root, lambda data: data["paths"].update(stopwords=str(path)))

        code, out, err = run(["expand", QUERY, "--config", config, "--out", str(root / "out")])
        assert_clean(code, err, path)

        code, out, err = run(["bench", "--queries", QUERIES, "--config", config])
        assert_clean(code, err, path)
        assert code in (0, 1)
        if code == 0:  # other stopwords may change the terms, not which queries get a row
            assert bench_rows(out).keys() == bench_rows(pristine("bench")[1]).keys(), err


# ---------------------------------------------------------------------------
# live transport payloads
# ---------------------------------------------------------------------------

SNAPSHOT_CACHE = PageCache(SNAPSHOT)
CANDIDATES = RunConfig.load(CONFIG).crawl.candidate_count  # each search's srlimit


def request_key(params: dict) -> tuple[str, str]:
    """The search string or page title a request asks for, with its kind."""
    return ("search", params["srsearch"]) if params["action"] == "query" else ("parse", params["page"])


def payload(key: tuple[str, str]):
    """What the MediaWiki API would answer to ``key`` for the snapshot's wiki."""
    kind, name = key
    if kind == "search":
        titles = (SNAPSHOT_CACHE.get_search(name) or [])[:CANDIDATES]
        return {"batchcomplete": "", "query": {"search": [{"ns": 0, "title": t} for t in titles]}}
    record = SNAPSHOT_CACHE.get_page(name)
    if record is None or record.missing:
        return {"error": {"code": "missingtitle", "info": "The page you specified doesn't exist."}}
    links = "".join(f'<p><a href="/wiki/{quote(link.replace(" ", "_"), safe="")}">'
                    f"{html.escape(link)}</a></p>" for link in record.outlinks)
    properties = [{"name": "disambiguation", "*": ""}] if record.disambiguation else []
    return {"parse": {"title": name, "text": {"*": links}, "properties": properties}}


def apply(value, mutation):
    """A copy of the payload ``value`` with ``mutation`` applied."""
    kind, *args = mutation
    if kind == "retype" and not args[0]:
        return args[1]
    value = copy.deepcopy(value)
    if kind == "error":
        value["error"] = args[0]
    elif kind == "reserved":
        (*where, field), position, char = args
        holder = value
        for step in where:
            holder = holder[step]
        holder[field] = holder[field][:position] + char + holder[field][position:]
    else:
        (*where, field), *new = args
        holder = value
        for step in where:
            holder = holder[step]
        if kind == "delete":
            del holder[field]
        else:
            holder[field] = new[0]
    return value


def live_expand(root: Path, mutated=None, mutation=None):
    """``expand`` of QUERY in process against the fake API, which answers
    ``mutated`` (a request key) with its payload changed by ``mutation``;
    (exit code, stdout, stderr, the request keys in the order asked)."""
    asked = []

    def transport(params):
        key = request_key(params)
        asked.append(key)
        answer = payload(key)
        return apply(answer, mutation) if key == mutated else answer

    client = WikiClient(transport=transport, request_interval=0, sleep=lambda s: None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("wikiqe.cli._source", lambda config: WikiSource(PageCache(root / "cache"), client))
        code, out, err = run(["expand", QUERY, "--config", CONFIG, "--out", str(root / "out")])
    return code, out, err, asked


@lru_cache(maxsize=None)
def live_requests() -> tuple[tuple[str, str], ...]:
    """The request keys of the unmutated live crawl of QUERY, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        return tuple(live_expand(Path(tmp))[3])


def json_paths(value, prefix=()):
    """The path to every value inside the JSON ``value``, itself first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, item in items:
        yield from json_paths(item, (*prefix, step))


def href_slots(page: str) -> list[int]:
    """The offset of each link target in a page's HTML."""
    start, slots = 0, []
    while (start := page.find('href="', start) + 1) > 0:
        slots.append(start + len('href="') - 1)
    return slots


ERRORS = st.one_of(
    st.sampled_from(["missingtitle", "invalidtitle", "internal_api_error_DBQueryError", None, 5])
    .map(lambda code: {"code": code, "info": "x"}),
    WRONG_TYPES,
)


@st.composite
def payload_mutations(draw):
    key = draw(st.sampled_from(live_requests()))
    answer = payload(key)
    kind = draw(st.sampled_from(["delete", "retype", "error", "reserved"]))
    if kind == "error":
        return key, (kind, draw(ERRORS))
    if kind == "reserved":
        char = draw(st.sampled_from(sorted(_FORBIDDEN)))
        if "query" in answer and answer["query"]["search"]:
            index = draw(st.integers(0, len(answer["query"]["search"]) - 1))
            title = answer["query"]["search"][index]["title"]
            return key, (kind, ("query", "search", index, "title"), draw(st.integers(0, len(title))), char)
        if "parse" in answer and (slots := href_slots(answer["parse"]["text"]["*"])):
            # inside the href, just after "/wiki/" at the earliest
            position = draw(st.sampled_from(slots)) + len("/wiki/") + draw(st.integers(0, 3))
            return key, (kind, ("parse", "text", "*"), position, char)
        kind = "retype"
    paths = list(json_paths(answer))
    if kind == "delete":
        return key, (kind, draw(st.sampled_from(paths[1:])))
    return key, (kind, draw(st.sampled_from(paths)), draw(WRONG_TYPES))


ROOT = ("parse", "alcoholism")  # the first page the crawl of QUERY asks for


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(payload_mutations())
# An API error other than a missing or invalid title, and the properties
# object of another API format version: no other test reaches either branch.
@hypothesis.example((ROOT, ("error", {"code": "internal_api_error_DBQueryError", "info": "x"})))
@hypothesis.example((ROOT, ("retype", ("parse", "properties"), {"disambiguation": ""})))
def test_a_broken_live_payload_is_an_error_naming_its_page_or_search(case):
    key, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, _ = live_expand(Path(tmp), key, mutation)
        assert code in (0, 1, 2) and "Traceback" not in err, err
        for line in err.splitlines():
            if line.startswith(("error:", "skipping")):
                assert key[1] in line, err


def test_the_fake_api_serves_the_snapshots_crawl(tmp_path):
    assert live_expand(tmp_path)[:3] == pristine("expand")
    assert live_requests()[:2] == (("search", "adolescent alcoholism"), ROOT)
