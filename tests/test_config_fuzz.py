"""Fuzzed run configs: a copy of ``fixtures/config.json`` has a field of the
wrong type (a bool for an int, NaN for a float, ...), an engine without its
confidence, an unknown key, a truncated tail, a flipped byte, or is a
directory. ``wikiqe expand`` must exit 0, 1 or 2 without a traceback (a
traceback fails the test: ``main`` runs in process), and an error is one
``error:`` line naming the config file."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from test_cli import FIXTURES, QUERY, fixture_config_copy
from wikiqe.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = (
    [("crawl", key) for key in ("hop_bound", "max_links_per_page", "max_total_nodes",
                                "request_interval", "candidate_count")]
    + [("pagerank", key) for key in ("damping", "tolerance", "max_iterations")]
    + [("weights", key) for key in ("degree", "closeness", "pagerank", "wordnet",
                                    "wikisynonyms", "moby")]
    + [("engines", i, key) for i in range(5) for key in ("engine_id", "confidence")]
    + [("paths", key) for key in ("snapshot_dir", "serp_dir", "stopwords", "output_dir")]
    + [("paths", "dictionaries"), ("paths", "dictionaries", "wordnet"), ("engines",), ("seed",)]
)
WRONG_TYPES = st.sampled_from([
    True, False, None, "3", 2.5, -5, 0, float("nan"), float("inf"), float("-inf"), [], {},
])
SECTIONS = st.sampled_from([(), ("crawl",), ("pagerank",), ("weights",), ("engines", 2), ("paths",)])


def config_mutations():
    return st.one_of(
        st.tuples(st.just("retype"), st.sampled_from(FIELDS), WRONG_TYPES),
        st.tuples(st.just("drop-confidence"), st.integers(0, 4)),
        st.tuples(st.just("unknown-key"), SECTIONS, st.sampled_from(["hops", "damping ", "x"])),
        st.tuples(st.just("truncate"), st.integers(0, 10**4)),
        st.tuples(st.just("flip"), st.integers(0, 10**4), st.integers(1, 255)),
        st.tuples(st.just("directory")),
    )


def edit_json(mutation):
    """The edit ``fixture_config_copy`` applies for a mutation of the JSON value."""
    kind, *args = mutation

    def edit(data):
        if kind == "retype":
            (*parents, last), value = args
            for key in parents:
                data = data[key]
            data[last] = value
        elif kind == "drop-confidence":
            del data["engines"][args[0]]["confidence"]
        elif kind == "unknown-key":
            section, key = args
            for part in section:
                data = data[part]
            data[key] = 1

    return edit


def write_config(root: Path, mutation) -> Path:
    path = Path(fixture_config_copy(root, edit_json(mutation)))
    kind, *args = mutation
    if kind == "directory":
        path.unlink()
        path.mkdir()
    elif kind in ("truncate", "flip"):
        data = bytearray(path.read_bytes())
        position = args[0] % len(data)
        if kind == "truncate":
            del data[position:]
        else:
            data[position] ^= args[1]
        path.write_bytes(bytes(data))
    return path


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(config_mutations())
def test_a_broken_config_is_an_error_naming_it(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = write_config(root, mutation)
        err = io.StringIO()
        # --snapshot keeps the crawl on the fixture snapshot whatever the config
        # says: a config without a snapshot_dir would crawl live.
        argv = ["expand", QUERY, "--config", str(path), "--snapshot", str(FIXTURES / "snapshot"),
                "--out", str(root / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], lines
