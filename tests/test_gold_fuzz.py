"""Fuzzed gold-standard inputs: one SERP or dictionary file of a fixture copy
is truncated, has a byte flipped, holds a field of the wrong type, has
arrays nested too deep for ``json`` to decode, or is a directory. ``wikiqe
gold`` must exit 0 or 1 without a traceback (a traceback fails the test:
``main`` runs in process). A broken SERP file costs only its own list,
named on an ``engine failure:`` line; a broken dictionary is an
``error:`` naming the file."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from test_cli import FIXTURES, QUERY, fixture_config_copy
from wikiqe.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

OUTPUTS = ("adolescent_alcoholism__gold_k10.urls", "adolescent_alcoholism__fused.csv")
SERPS = sorted(path.name for path in (FIXTURES / "serp").glob("*__*.json"))
DICTIONARIES = ("wordnet", "wikisynonyms", "moby")
WRONG_TYPES = st.sampled_from([None, True, 5, 2.5, {"url": "https://a.org/"}, ["https://a.org/"]])
# Opened arrays that json cannot decode without a RecursionError on any release.
NEST = b"[" * 100_000


@st.composite
def byte_mutations(draw, size):
    kind = draw(st.sampled_from(["truncate", "flip", "nest", "directory"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1))
    if kind == "flip":
        return kind, (draw(st.integers(0, size - 1)), draw(st.integers(1, 255)))
    if kind == "nest":  # NEST inserted before this byte
        return kind, draw(st.integers(0, size))
    return kind, None


@st.composite
def serp_mutations(draw):
    name = draw(st.sampled_from(SERPS))
    size = (FIXTURES / "serp" / name).stat().st_size
    kind = draw(st.sampled_from(["bytes", "results", "url"]))
    if kind == "bytes":
        return name, draw(byte_mutations(size))
    if kind == "results":
        return name, (kind, draw(st.one_of(WRONG_TYPES, st.just("https://a.org/"))))
    return name, (kind, (draw(st.integers(0, 199)), draw(WRONG_TYPES)))


def mutate(path: Path, mutation) -> None:
    kind, arg = mutation
    if kind == "directory":
        path.unlink()
        path.mkdir()
        return
    if kind in ("results", "url"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if kind == "results":
            payload["results"] = arg
        else:
            index, value = arg
            payload["results"][index]["url"] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        return
    data = bytearray(path.read_bytes())
    if kind == "truncate":
        del data[arg:]
    elif kind == "nest":
        data[arg:arg] = NEST
    else:
        position, mask = arg
        data[position] ^= mask
    path.write_bytes(bytes(data))


def is_json(path: Path) -> bool:
    try:
        json.loads(path.read_bytes())
    except (ValueError, RecursionError):
        return False
    return True


def run_gold(root: Path, serp_dir: Path, dict_dir: Path):
    """``gold`` in process on the fixtures, with SERPs and dictionaries read
    from the directories given; (exit code, stderr, output directory)."""
    config = fixture_config_copy(root, lambda data: data["paths"].update(
        serp_dir=str(serp_dir),
        dictionaries={name: str(dict_dir / f"{name}.txt") for name in DICTIONARIES},
    ))
    out, err = root / "out", io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["gold", QUERY, "--k", "10", "--config", config, "--out", str(out)])
    return code, err.getvalue(), out


def nest_at(path: Path, field: bytes) -> tuple[str, int]:
    """The ``nest`` mutation of ``path`` that opens its arrays in place of
    the value of ``field``, where json must decode them."""
    return "nest", path.read_bytes().index(field) + len(field)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(serp_mutations())
@hypothesis.example((SERPS[0], nest_at(FIXTURES / "serp" / SERPS[0], b'"results": ')))
def test_a_broken_serp_file_costs_only_its_list(case):
    name, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(FIXTURES / "serp", root / "serp")
        path = root / "serp" / name
        mutate(path, mutation)
        # Mutated bytes that still parse may still break the list (say, a
        # port out of range), or change only a URL or a field nobody reads.
        broken = mutation[0] not in ("truncate", "flip", "nest") or not is_json(path)
        code, err, out = run_gold(root, root / "serp", FIXTURES / "dicts")
        assert code == 0, err
        assert all((out / output).is_file() for output in OUTPUTS)
        lines = err.splitlines()
        assert len(lines) == 1 if broken else len(lines) <= 1, err
        for line in lines:
            assert line.startswith("engine failure: ") and name in line, err


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from(DICTIONARIES).flatmap(
    lambda name: st.tuples(
        st.just(name), byte_mutations((FIXTURES / "dicts" / f"{name}.txt").stat().st_size))))
def test_a_broken_dictionary_is_an_error_naming_it(case):
    name, mutation = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(FIXTURES / "dicts", root / "dicts")
        path = root / "dicts" / f"{name}.txt"
        mutate(path, mutation)
        code, err, out = run_gold(root, FIXTURES / "serp", root / "dicts")
        assert code in (0, 1)
        if code:
            assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1, err
        else:
            # A dictionary that still parses may give its source a query no
            # SERP file was recorded for: that source's lists fail alone.
            assert all((out / output).is_file() for output in OUTPUTS)
            for line in err.splitlines():
                assert line.startswith("engine failure: ") and f"/{name}: " in line, err
