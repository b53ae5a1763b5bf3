"""Import boundaries: ``import wikiqe`` loads no submodule, each CLI command
loads only the modules its flow runs, and the package's lazy names resolve
to the bindings of their defining modules on every access."""

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
    """The ``wikiqe`` modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('wikiqe')))\n"
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


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
    assert loaded_after(tmp_path, "import wikiqe") == {"wikiqe"}


def test_expand_loads_neither_fusion_nor_metrics(tmp_path):
    loaded = cli_loads(tmp_path, "expand", QUERY, "--config", CONFIG, "--out", str(tmp_path))
    assert "wikiqe.expand" in loaded
    assert not loaded & {"wikiqe.fusion", "wikiqe.metrics"}


def test_gold_does_not_load_metrics(tmp_path):
    loaded = cli_loads(tmp_path, "gold", QUERY, "--config", CONFIG, "--out", str(tmp_path))
    assert "wikiqe.fusion" in loaded
    assert "wikiqe.metrics" not in loaded


def test_bench_does_not_load_fusion(tmp_path):
    loaded = cli_loads(tmp_path, "bench", "--queries", str(FIXTURES / "queries.txt"),
                       "--config", CONFIG, "--out", str(tmp_path / "bench.csv"))
    assert "wikiqe.expand" in loaded
    assert "wikiqe.fusion" not in loaded


def test_eval_loads_only_cli_text_and_metrics(tmp_path):
    runs, gold = eval_dirs(tmp_path)
    loaded = cli_loads(tmp_path, "eval", "--runs", str(runs), "--gold", str(gold),
                       "--out", str(tmp_path / "eval.csv"))
    assert loaded == {"wikiqe", "wikiqe.cli", "wikiqe.text", "wikiqe.metrics"}


def test_queries_loads_only_cli_and_text(tmp_path):
    assert cli_loads(tmp_path, "queries") == {"wikiqe", "wikiqe.cli", "wikiqe.text"}


def test_every_public_name_is_its_defining_modules_binding():
    assert len(wikiqe.__all__) == len(set(wikiqe.__all__)) == 51
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
