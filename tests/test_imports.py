"""Import boundaries: ``import wikiqe`` loads no submodule, each CLI command
loads only the modules its flow runs (no command loads ``dataclasses``, a
snapshot ``expand`` none of the standard modules only a live crawl or a CSV
writer needs, and no snapshot command the live client or ``hashlib``), and
the package's lazy names resolve to the bindings of their defining modules
on every access."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wikiqe

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CONFIG = str(FIXTURES / "config.json")
QUERY = "adolescent alcoholism"


def loaded_after(tmp_path, code):
    """The modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys\nprint(sorted(sys.modules))\n"
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def ours(modules):
    return {name for name in modules if name.startswith("wikiqe")}


def cli_loads(tmp_path, *argv):
    code = f"from wikiqe.cli import main\nassert main({list(argv)!r}) in (0, 2)"
    return loaded_after(tmp_path, code)


def eval_dirs(tmp_path):
    runs, gold = tmp_path / "runs", tmp_path / "gold"
    runs.mkdir()
    gold.mkdir()
    (runs / "q__graph.urls").write_text("https://u/1\nhttps://u/2\n")
    (gold / "q.urls").write_text("https://u/1\n")
    return runs, gold


def test_import_wikiqe_loads_no_submodule(tmp_path):
    assert ours(loaded_after(tmp_path, "import wikiqe")) == {"wikiqe"}


def test_expand_loads_neither_fusion_nor_metrics(tmp_path):
    loaded = cli_loads(tmp_path, "expand", QUERY, "--config", CONFIG, "--out", str(tmp_path))
    assert "wikiqe.expand" in loaded
    assert not loaded & {"wikiqe.fusion", "wikiqe.metrics"}
    # html and secrets serve only a live crawl, csv only a table or CSV dump
    assert not loaded & {"dataclasses", "html", "secrets", "csv"}


def test_gold_does_not_load_metrics(tmp_path):
    loaded = cli_loads(tmp_path, "gold", QUERY, "--config", CONFIG, "--out", str(tmp_path))
    assert "wikiqe.fusion" in loaded
    assert not loaded & {"wikiqe.metrics", "dataclasses"}


def test_bench_loads_neither_fusion_nor_metrics(tmp_path):
    loaded = cli_loads(tmp_path, "bench", "--queries", str(FIXTURES / "queries.txt"),
                       "--config", CONFIG, "--out", str(tmp_path / "bench.csv"))
    assert "wikiqe.expand" in loaded
    assert not loaded & {"wikiqe.fusion", "wikiqe.metrics", "dataclasses"}


# The live client, its pacer and link scanner, and OpenSSL's hash module
# (file names are hashed with CPython's builtin sha256) serve only a live crawl.
LIVE_ONLY = {"wikiqe._live", "hashlib", "_hashlib"}


@pytest.mark.parametrize("argv", [
    ["expand", QUERY, "--config", CONFIG],
    ["gold", QUERY, "--k", "10", "--config", CONFIG],
    ["bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG],
], ids=["expand", "gold", "bench"])
def test_snapshot_commands_load_no_live_crawl_code(tmp_path, argv):
    out = ["--out", str(tmp_path / "bench.csv" if argv[0] == "bench" else tmp_path)]
    loaded = cli_loads(tmp_path, *argv, *out)
    assert "wikiqe.ingest" in loaded
    assert not loaded & LIVE_ONLY


def test_a_live_source_loads_the_live_client(tmp_path):
    from wikiqe.ingest import SNAPSHOT_ENV

    code = (f"import os\nos.environ.pop({SNAPSHOT_ENV!r}, None)\n"
            "from wikiqe.ingest import WikiSource\n"
            f"assert WikiSource.from_env(cache_dir={str(tmp_path)!r}).client is not None")
    assert "wikiqe._live" in loaded_after(tmp_path, code)


def test_ingest_wiki_client_is_the_live_client():
    from wikiqe import _live, ingest

    assert ingest.WikiClient is wikiqe.WikiClient is _live.WikiClient
    with pytest.raises(AttributeError, match="module 'wikiqe.ingest' has no attribute 'no_such_name'"):
        ingest.no_such_name


@pytest.mark.parametrize("title", ["", "Zürich — 東京 Ω", "a" * 100_000, "Alcoholism"],
                         ids=["empty", "non-ascii", "long", "ascii"])
def test_file_name_hash_is_hashlibs_sha256(title):
    import hashlib

    from wikiqe.text import _sha256_hex

    assert _sha256_hex(title) == hashlib.sha256(title.encode("utf-8")).hexdigest()


def test_file_name_hash_falls_back_to_hashlib(monkeypatch):
    import hashlib

    from wikiqe import text

    def no_builtin(name):
        raise ImportError(name)

    monkeypatch.setattr(text, "import_module", no_builtin)
    assert text._sha256.__wrapped__() is hashlib.sha256


def test_eval_loads_only_cli_text_and_metrics(tmp_path):
    runs, gold = eval_dirs(tmp_path)
    loaded = cli_loads(tmp_path, "eval", "--runs", str(runs), "--gold", str(gold),
                       "--out", str(tmp_path / "eval.csv"))
    # _value: the field-wise == and repr of EvalReport
    assert ours(loaded) == {"wikiqe", "wikiqe.cli", "wikiqe.text", "wikiqe._value", "wikiqe.metrics"}
    assert "dataclasses" not in loaded


def test_queries_loads_only_cli_and_text(tmp_path):
    loaded = cli_loads(tmp_path, "queries")
    assert ours(loaded) == {"wikiqe", "wikiqe.cli", "wikiqe.text"}
    assert "dataclasses" not in loaded


def test_no_module_of_the_package_imports_dataclasses():
    for path in sorted((ROOT / "src" / "wikiqe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [name.split(".")[0] for name in names], path.name


def test_every_public_name_is_its_defining_modules_binding():
    assert len(wikiqe.__all__) == len(set(wikiqe.__all__)) == 50
    assert set(wikiqe.__all__) <= set(dir(wikiqe))
    for name, module in wikiqe._EXPORTS.items():
        assert getattr(wikiqe, name) is getattr(importlib.import_module(f"wikiqe.{module}"), name)


def test_fusion_keeps_the_configuration_types_of_config():
    from wikiqe import config, fusion

    for name in ("EngineConfig", "KnowledgeWeights", "DEFAULT_ENGINES",
                 "SIX_SOURCE_WEIGHTS", "GRAPH_TUNED_WEIGHTS"):
        assert name in fusion.__all__
        assert getattr(fusion, name) is getattr(config, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'wikiqe' has no attribute 'no_such_name'"):
        wikiqe.no_such_name


def test_names_follow_a_replaced_binding(monkeypatch):
    # What benchmark/tracing.py does: replace a function in its module, later
    # restore it. The package must not hold on to either object.
    from wikiqe import centrality

    original = centrality.build_table

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    assert wikiqe.build_table is original
    monkeypatch.setattr(centrality, "build_table", wrapper)
    assert wikiqe.build_table is wrapper
    monkeypatch.undo()
    assert wikiqe.build_table is original
