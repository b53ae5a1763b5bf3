"""Fuzzed crawl-cache records: one page or search record of a copy of the
fixture snapshot is truncated, has a byte flipped, has an array nested too
deep for ``json`` to decode, is a directory, holds a field of the wrong
type, or has a reserved character in one of its titles. ``wikiqe bench``
and ``wikiqe expand`` must exit 0, 1 or 2 without a traceback (a traceback
fails the test: ``main`` runs in process), every ``error:`` or ``skipping``
line must name the mutated file, and in ``bench`` every query whose crawl
reads no mutated file must give the row it gives on the pristine snapshot."""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import hashed_name
from test_cli import CONFIG, FIXTURES, QUERY
from test_gold_fuzz import WRONG_TYPES, byte_mutations, mutate, nest_at
from wikiqe.cli import main
from wikiqe.config import RunConfig
from wikiqe.graph import _FORBIDDEN
from wikiqe.ingest import PageCache, WikiSource, search_key

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SNAPSHOT = FIXTURES / "snapshot"
RECORDS = sorted(f"{kind}/{path.name}" for kind in ("pages", "searches")
                 for path in (SNAPSHOT / kind).glob("*.json"))
QUERIES = str(FIXTURES / "queries.txt")


def title_slots(record: dict) -> list[tuple[str, int | None]]:
    """Where a page or search record holds a title: its key field, or an
    item of its title list."""
    key, items = ("title", "outlinks") if "title" in record else ("query", "results")
    return [(key, None)] + [(items, i) for i in range(len(record[items]))]


@st.composite
def record_mutations(draw):
    name = draw(st.sampled_from(RECORDS))
    path = SNAPSHOT / name
    kind = draw(st.sampled_from(["bytes", "retype", "reserved"]))
    if kind == "bytes":
        return name, draw(byte_mutations(path.stat().st_size))
    record = json.loads(path.read_text(encoding="utf-8"))
    if kind == "retype":
        return name, (kind, (draw(st.sampled_from(sorted(record))), draw(WRONG_TYPES)))
    field, index = draw(st.sampled_from(title_slots(record)))
    title = record[field] if index is None else record[field][index]
    position = draw(st.integers(0, len(title)))
    return name, (kind, (field, index, position, draw(st.sampled_from(sorted(_FORBIDDEN)))))


def mutate_record(path: Path, mutation) -> None:
    kind, arg = mutation
    if kind not in ("retype", "reserved"):
        mutate(path, mutation)
        return
    record = json.loads(path.read_text(encoding="utf-8"))
    if kind == "retype":
        field, value = arg
        record[field] = value
    else:
        field, index, position, char = arg
        holder, key = (record, field) if index is None else (record[field], index)
        holder[key] = holder[key][:position] + char + holder[key][position:]
    path.write_text(json.dumps(record), encoding="utf-8")


def run(command: str, snapshot: Path, out_dir: str):
    """``bench`` over the fixture queries or ``expand`` of QUERY, in process,
    reading ``snapshot``; (exit code, stdout, stderr)."""
    target = ["--queries", QUERIES] if command == "bench" else [QUERY, "--out", out_dir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *target, "--config", CONFIG, "--snapshot", str(snapshot)])
    return code, out.getvalue(), err.getvalue()


def bench_rows(out: str) -> dict[str, list[str]]:
    """Each query's ``bench`` row without its qe_seconds, a timing."""
    return {row[0]: row[2:] for row in list(csv.reader(io.StringIO(out)))[1:]}


class RecordingCache(PageCache):
    """A cache that notes the file of every record its crawls look up."""

    def __init__(self, root):
        super().__init__(root)
        self.files = set()

    def _read(self, kind, key_field, key, build):
        self.files.add(f"{kind}/{hashed_name(key)}")
        return super()._read(kind, key_field, key, build)


@lru_cache(maxsize=None)
def crawl_files(query: str) -> frozenset[str]:
    """The snapshot files that the crawl of ``query`` reads."""
    cache = RecordingCache(SNAPSHOT)
    WikiSource(cache).build_graph(query, RunConfig.load(CONFIG).crawl)
    return frozenset(cache.files)


@lru_cache(maxsize=None)
def pristine(command: str):
    with tempfile.TemporaryDirectory() as tmp:
        return run(command, SNAPSHOT, tmp)


def assert_clean(code: int, err: str, path: Path) -> None:
    assert code in (0, 1, 2) and "Traceback" not in err, err
    for line in err.splitlines():
        if line.startswith(("error:", "skipping")):
            assert str(path) in line, err


DEEP_SEARCH = f"searches/{hashed_name(search_key('database overlap'))}"


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(record_mutations())
@hypothesis.example((DEEP_SEARCH, nest_at(SNAPSHOT / DEEP_SEARCH, b'"results": ')))
def test_a_broken_cache_record_costs_only_the_queries_that_read_it(case):
    name, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"
        shutil.copytree(SNAPSHOT, snapshot)
        path = snapshot / name
        mutate_record(path, mutation)

        code, out, err = run("bench", snapshot, tmp)
        assert_clean(code, err, path)
        rows, pristine_rows = bench_rows(out), bench_rows(pristine("bench")[1])
        for query, row in pristine_rows.items():
            if name not in crawl_files(query):
                assert rows.get(query) == row, (query, err)

        code, out, err = run("expand", snapshot, str(Path(tmp) / "out"))
        assert_clean(code, err, path)
        if name not in crawl_files(QUERY):
            assert (code, out, err) == pristine("expand")
