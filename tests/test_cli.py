"""End-to-end CLI runs against the shipped fixture bundle."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import hashed_name
from wikiqe.cli import main
from wikiqe.config import RunConfig, benchmark_queries, query_slug
from wikiqe.fusion import SIX_SOURCE_WEIGHTS
from wikiqe.ingest import PageCache, PageRecord, WikiSource, search_key

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = str(FIXTURES / "config.json")
QUERY = "adolescent alcoholism"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_fixture_query(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "expand", QUERY, "--m", "2", "--config", CONFIG, "--out", str(tmp_path)
    )
    assert code == 0
    assert "concept: alcohol consumption by youth in the united states" in out
    assert "rewritten: adolescent alcoholism alcoholic beverage alcohol withdrawal syndrome" in out
    assert (tmp_path / "adolescent_alcoholism.graph.txt").exists()


def test_expand_m3_yields_three_terms(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "expand", QUERY, "--m", "3", "--config", CONFIG, "--out", str(tmp_path)
    )
    assert code == 0
    terms = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(terms) == 3


def test_expand_is_byte_identical_across_runs(tmp_path, capsys):
    outputs = []
    dumps = []
    for i in range(5):
        out_dir = tmp_path / f"run{i}"
        code, out, _ = run_cli(
            capsys, "expand", QUERY, "--m", "2", "--config", CONFIG, "--out", str(out_dir)
        )
        assert code == 0
        outputs.append(out)
        dumps.append((out_dir / "adolescent_alcoholism.graph.txt").read_bytes())
    assert len(set(outputs)) == 1
    assert len(set(dumps)) == 1


def test_expand_unknown_query_exits_nonzero(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "expand", "zzqx-nonexistent", "--config", CONFIG, "--out", str(tmp_path)
    )
    assert code == 1
    assert "no Wikipedia concept" in err


def test_expand_shortfall_exit_code(tmp_path, capsys):
    snapshot = tmp_path / "snap"
    cache = PageCache(snapshot)
    cache.put_search("solograph", ["solograph"])
    cache.put_page(PageRecord("solograph", [], 0.0, "snapshot"))
    code, out, _ = run_cli(
        capsys, "expand", "solograph", "--m", "2",
        "--snapshot", str(snapshot), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "warning" in out


def test_stale_index_json_in_snapshot_is_ignored(tmp_path, capsys):
    snapshot = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snapshot)
    out_dir = tmp_path / "out"
    graph_file = out_dir / "adolescent_alcoholism.graph.txt"

    def expand():
        code, out, err = run_cli(
            capsys, "expand", QUERY, "--config", CONFIG,
            "--snapshot", str(snapshot), "--out", str(out_dir),
        )
        return code, out, err, graph_file.read_bytes()

    plain = expand()
    (snapshot / "index.json").write_text(
        '{"pages": {"alcoholism": "pages/gone.json"}, "searches": {}}', encoding="utf-8"
    )
    assert expand() == plain
    assert plain[0] == 0


def test_snapshot_expand_does_not_import_requests(tmp_path):
    script = (
        "import sys\n"
        "from wikiqe.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'requests' in sys.modules)\n"
    )
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    done = subprocess.run(
        [sys.executable, "-c", script, "expand", QUERY, "--config", CONFIG, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_expand_weights_flag_rejects_garbage(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["expand", QUERY, "--weights", "a,b", "--config", CONFIG,
              "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# gold
# ---------------------------------------------------------------------------

def fused_urls(out_dir):
    rows = (out_dir / "adolescent_alcoholism__fused.csv").read_text().splitlines()[1:]
    return [row.split(",")[1] for row in rows]


@pytest.mark.parametrize("k", [3, 5, 10, 500])
def test_gold_writes_k_urls(tmp_path, capsys, k):
    code, out, _ = run_cli(
        capsys, "gold", QUERY, "--k", str(k), "--config", CONFIG, "--out", str(tmp_path)
    )
    assert code == 0
    path = tmp_path / f"adolescent_alcoholism__gold_k{k}.urls"
    assert str(path) in out
    urls = path.read_text().splitlines()
    fused = fused_urls(tmp_path)
    assert len(fused) == 300
    # a k past the fused list's length yields the whole list
    assert len(urls) == min(k, len(fused))
    assert urls == fused[:k]
    assert all(u.startswith("https://") for u in urls)


@pytest.mark.parametrize("k", [0, -1])
def test_gold_rejects_k_below_one(tmp_path, capsys, k):
    code, _, err = run_cli(
        capsys, "gold", QUERY, "--k", str(k), "--config", CONFIG, "--out", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error: k must be >= 1")
    assert list(tmp_path.iterdir()) == []


def test_gold_sets_nest_by_prefix(tmp_path, capsys):
    lists = {}
    for k in (3, 5, 10, 20, 50):
        run_cli(capsys, "gold", QUERY, "--k", str(k), "--config", CONFIG, "--out", str(tmp_path))
        path = tmp_path / f"adolescent_alcoholism__gold_k{k}.urls"
        lists[k] = path.read_text().splitlines()
    ks = sorted(lists)
    for small, big in zip(ks, ks[1:]):
        assert lists[big][: len(lists[small])] == lists[small]


def test_gold_writes_fused_csv(tmp_path, capsys):
    run_cli(capsys, "gold", QUERY, "--k", "5", "--config", CONFIG, "--out", str(tmp_path))
    fused = (tmp_path / "adolescent_alcoholism__fused.csv").read_text().splitlines()
    assert fused[0] == "rank,url,score"
    assert fused[1].startswith("1,https://")


def test_shipped_snapshot_resolves_reference_candidate():
    from wikiqe.ingest import WikiSource

    config = RunConfig.load(CONFIG)
    source = WikiSource.from_env(snapshot_dir=config.snapshot_dir)
    candidates = source.resolve_candidates(QUERY, config.crawl)
    assert "alcohol consumption by youth in the united states" in candidates


def test_gold_is_deterministic(tmp_path, capsys):
    files = []
    for i in range(2):
        out_dir = tmp_path / f"g{i}"
        run_cli(capsys, "gold", QUERY, "--k", "10", "--config", CONFIG, "--out", str(out_dir))
        files.append([
            (out_dir / name).read_bytes()
            for name in ("adolescent_alcoholism__gold_k10.urls", "adolescent_alcoholism__fused.csv")
        ])
    assert files[0] == files[1]


def test_gold_without_engines_errors(tmp_path, capsys):
    data = json.loads(Path(CONFIG).read_text())
    data["engines"] = []
    bad = tmp_path / "config.json"
    # keep fixture-relative paths working from the new location
    for key in ("snapshot_dir", "serp_dir", "stopwords"):
        if data["paths"].get(key):
            data["paths"][key] = str(FIXTURES / data["paths"][key])
    data["paths"]["dictionaries"] = {
        name: str(FIXTURES / rel) for name, rel in data["paths"]["dictionaries"].items()
    }
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, "gold", QUERY, "--config", str(bad), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "no engines" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def make_eval_dirs(tmp_path, ranked, gold):
    runs = tmp_path / "runs"
    gold_dir = tmp_path / "gold"
    runs.mkdir()
    gold_dir.mkdir()
    slug = query_slug(QUERY)
    (runs / f"{slug}__graph.urls").write_text("".join(u + "\n" for u in ranked))
    (gold_dir / f"{slug}.urls").write_text("".join(u + "\n" for u in gold))
    return runs, gold_dir


def test_eval_self_vs_self_scores_one(tmp_path, capsys):
    urls = [f"https://u/{i}" for i in range(10)]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    code, out, _ = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir))
    assert code == 0
    for line in out.splitlines()[1:]:
        _, method, metric, cutoff, value = line.split(",")
        if metric in ("P", "S"):
            assert float(value) == 1.0


def test_eval_empty_runs_dir_yields_header_only(tmp_path, capsys):
    runs = tmp_path / "runs"
    gold_dir = tmp_path / "gold"
    runs.mkdir()
    gold_dir.mkdir()
    code, out, _ = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir))
    assert code == 0
    assert out == "query,method,metric,cutoff,value\n"


def test_eval_with_judgments_adds_ndcg_and_kappa(tmp_path, capsys):
    gold = (FIXTURES.parent / "fixtures" / "judgments.csv").read_text().splitlines()[1:]
    urls = [line.split(",")[1] for line in gold[::2]]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    code, out, _ = run_cli(
        capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir),
        "--judgments", str(FIXTURES / "judgments.csv"),
    )
    assert code == 0
    assert ",NDCG," in out
    assert ",judges,kappa," in out


def test_eval_malformed_judgments_error_names_line(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    bad = tmp_path / "bad.csv"
    bad.write_text("query,url,judge,grade\nq,https://u/1,j1,nine\n")
    code, _, err = run_cli(
        capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir), "--judgments", str(bad)
    )
    assert code == 1
    assert ":2" in err


def test_eval_writes_out_file(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir), "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().startswith("query,method,metric,cutoff,value")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_covers_all_thirty_queries(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "query,qe_seconds,qe_terms"
    assert len(lines) == 1 + 30
    assert err == ""


def test_bench_empty_queries_file(tmp_path, capsys):
    empty = tmp_path / "queries.txt"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "bench", "--queries", str(empty), "--config", CONFIG)
    assert code == 0
    assert out == "query,qe_seconds,qe_terms\n"


def test_bench_skips_missing_fixture_and_continues(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("zz-missing-snapshot-entry\nadolescent alcoholism\n")
    code, out, err = run_cli(capsys, "bench", "--queries", str(queries), "--config", CONFIG)
    assert code == 0
    assert "zz-missing-snapshot-entry" in err
    assert len(out.splitlines()) == 2  # header + the one expandable query


def test_bench_skips_only_queries_hit_by_a_truncated_cache_record(tmp_path, capsys):
    snapshot = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snapshot)
    page = snapshot / "pages" / hashed_name("alcoholism")
    page.write_text(page.read_text(encoding="utf-8")[:40], encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG,
        "--snapshot", str(snapshot),
    )
    assert code == 0
    skipped = err.splitlines()
    assert any(line.startswith("skipping 'adolescent alcoholism'") for line in skipped)
    assert all(str(page) in line for line in skipped)
    assert len(out.splitlines()) == 1 + 30 - len(skipped)


def test_bench_crawls_each_search_key_once(tmp_path, capsys, monkeypatch):
    crawled = []
    build_graph = WikiSource.build_graph

    def counting_build_graph(self, query, config):
        crawled.append(search_key(query))
        return build_graph(self, query, config)

    monkeypatch.setattr(WikiSource, "build_graph", counting_build_graph)
    code, out, _ = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 30
    # The plain, AND and OR form of each query share one search key.
    assert len(crawled) == len(set(crawled)) == 10


def test_bench_term_outputs_stable_across_runs(tmp_path, capsys):
    def run():
        _, out, _ = run_cli(
            capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG
        )
        return [line.rsplit(",", 1)[-1] for line in out.splitlines()[1:]]

    assert run() == run()


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_benchmark_queries_shape():
    queries = benchmark_queries()
    assert len(queries) == 30
    assert "adolescent and alcoholism" in queries
    assert "programming or algorithm" in queries


def test_config_presets_round_trip():
    for preset in ("paper", "tuned"):
        config = RunConfig()
        config.apply_preset(preset)
        clone = RunConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()


def test_config_without_weights_uses_six_source_split():
    config = RunConfig.from_dict({})
    assert config.weights == SIX_SOURCE_WEIGHTS
    assert config.to_dict() == RunConfig().to_dict()


def test_config_rejects_missing_paths(tmp_path):
    config = RunConfig(snapshot_dir=tmp_path / "nope")
    with pytest.raises(FileNotFoundError, match="snapshot_dir"):
        config.validate_paths()


def test_fixture_config_loads():
    config = RunConfig.load(CONFIG)
    assert config.snapshot_dir and config.snapshot_dir.exists()
    assert config.weights.as_map()["degree"] == 30
    assert [e.engine_id for e in config.engines] == ["google", "lycos", "bing", "ask", "exalead"]
