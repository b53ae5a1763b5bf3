"""End-to-end CLI runs against the shipped fixture bundle."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import hashed_name
from wikiqe.cli import main
from wikiqe.config import ConfigError, RunConfig, benchmark_queries, query_slug
from wikiqe.fusion import SIX_SOURCE_WEIGHTS
from wikiqe.ingest import PageCache, PageRecord, WikiClient, WikiSource, search_key

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


@pytest.mark.parametrize("command", ["expand", "bench"])
@pytest.mark.parametrize("m", [0, -1])
def test_m_below_one_is_rejected_before_the_crawl(tmp_path, capsys, command, m):
    # An empty snapshot resolves no concept, so a crawl started before the
    # check would report that instead of m (expand) or skip every query (bench).
    snapshot = tmp_path / "empty"
    snapshot.mkdir()
    out = tmp_path / "out"
    target = [QUERY] if command == "expand" else ["--queries", str(FIXTURES / "queries.txt")]
    code, stdout, err = run_cli(
        capsys, command, *target, "--m", str(m), "--snapshot", str(snapshot), "--out", str(out)
    )
    assert code == 1
    assert err == f"error: m must be >= 1, got {m}\n"
    assert stdout == ""
    assert not out.exists()


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


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("x\n")],
                         ids=["missing", "a-file"])
def test_snapshot_that_is_not_a_directory_is_an_error(tmp_path, capsys, make):
    # It used to read as an empty snapshot and blame the query.
    snapshot = tmp_path / "snapshot"
    make(snapshot)
    code, out, err = run_cli(
        capsys, "expand", QUERY, "--config", CONFIG, "--snapshot", str(snapshot),
        "--out", str(tmp_path / "out"),
    )
    assert (code, out, err) == (1, "", f"error: snapshot {snapshot}: not a directory\n")


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


@pytest.mark.parametrize("cap", [0, -1])
def test_gold_rejects_cap_below_one_before_the_crawl(tmp_path, capsys, monkeypatch, cap):
    crawled = []
    monkeypatch.setattr(WikiSource, "build_graph", lambda self, query, config: crawled.append(query))
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys, "gold", QUERY, "--cap", str(cap), "--config", CONFIG, "--out", str(out)
    )
    assert (code, stdout, err) == (1, "", f"error: cap must be >= 1, got {cap}\n")
    assert crawled == []
    assert not out.exists()


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


def test_gold_weights_flag_rejects_garbage(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gold", QUERY, "--weights", "a,b", "--config", CONFIG,
              "--out", str(tmp_path)])
    assert exc.value.code == "--weights expects three integers: degree,closeness,pagerank"
    assert list(tmp_path.iterdir()) == []


def fixture_config_copy(tmp_path, edit) -> str:
    """The fixture config, changed by ``edit``, written to ``tmp_path`` with
    its fixture-relative paths kept working from there."""
    data = json.loads(Path(CONFIG).read_text())
    for key in ("snapshot_dir", "serp_dir", "stopwords"):
        if data["paths"].get(key):
            data["paths"][key] = str(FIXTURES / data["paths"][key])
    data["paths"]["dictionaries"] = {
        name: str(FIXTURES / rel) for name, rel in data["paths"]["dictionaries"].items()
    }
    edit(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_gold_without_engines_errors(tmp_path, capsys):
    bad = fixture_config_copy(tmp_path, lambda data: data.update(engines=[]))
    code, _, err = run_cli(
        capsys, "gold", QUERY, "--config", bad, "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "no engines" in err


def test_gold_skips_only_a_serp_list_that_cannot_be_read(tmp_path, capsys):
    serp = tmp_path / "serp"
    shutil.copytree(FIXTURES / "serp", serp)
    unreadable = serp / "google__212aa72be1b03985.json"
    unreadable.unlink()
    unreadable.mkdir()
    config = fixture_config_copy(tmp_path, lambda data: data["paths"].update(serp_dir=str(serp)))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "gold", QUERY, "--k", "10", "--config", config, "--out", str(out))
    assert code == 0
    assert err == (
        f"engine failure: google/pagerank: unreadable SERP fixture {unreadable.name}: Is a directory\n"
    )
    assert len((out / "adolescent_alcoholism__gold_k10.urls").read_text().splitlines()) == 10


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


@pytest.mark.parametrize("judged, named", [
    ([("Q A", "2021"), ("q a", "0112")], "'Q A' and 'q a'"),
    ([("Q A", "2021"), ("q a", "0112"), ("q_a", "1111")], "'Q A', 'q a' and 'q_a'"),
], ids=["two-queries", "three-queries"])
def test_eval_skips_judgments_of_queries_sharing_a_slug(tmp_path, capsys, judged, named):
    urls = ["https://u/1", "https://u/2"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    (runs / "q_a__graph.urls").write_text("https://u/1\nhttps://u/2\n")
    (gold_dir / "q_a.urls").write_text("https://u/1\n")
    rows = [(query, url, judge, grade)
            for query, grades in [*judged, (QUERY, "2120")]
            for (url, judge), grade in zip([(u, j) for u in urls for j in ("j1", "j2")], grades)]
    judgments = tmp_path / "judgments.csv"
    judgments.write_text("query,url,judge,grade\n" + "".join(",".join(r) + "\n" for r in rows))
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir),
                             "--judgments", str(judgments))
    assert code == 0
    assert err == f"skipping judgments for q_a: queries {named} share it\n"
    assert "q_a,graph,P,3," in out
    assert "q_a,graph,NDCG," not in out and "q_a,judges," not in out
    slug = query_slug(QUERY)
    assert f"{slug},graph,NDCG," in out and f"{slug},judges,kappa,0," in out


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


@pytest.mark.parametrize("text, line", [
    ("query,url,judge,grade\nq,https://u/" + "x" * 200_000 + ",j1,2\n", 2),
    ("query,url,judge,grade," + "x" * 200_000 + "\nq,https://u/1,j1,2\n", 1),
], ids=["row", "header"])
def test_eval_judgments_field_over_the_csv_limit_error_names_line(tmp_path, capsys, text, line):
    runs, gold_dir = make_eval_dirs(tmp_path, ["https://u/1"], ["https://u/1"])
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, out, err = run_cli(
        capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir), "--judgments", str(bad)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}:{line}: field larger than field limit")


def test_eval_writes_out_file(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir), "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().startswith("query,method,metric,cutoff,value")


def test_eval_skips_undecodable_run_file_and_scores_the_rest(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    bad = runs / f"{query_slug(QUERY)}__broken.urls"
    bad.write_bytes(b"\xffhttps://u/1\n")
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir))
    assert code == 0
    assert err.startswith(f"skipping {bad.name}: {bad}: 'utf-8' codec can't decode")
    assert ",graph,P,3,1\n" in out
    assert ",broken," not in out


def test_eval_skips_runs_whose_gold_file_does_not_decode(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    (runs / "other__graph.urls").write_text("https://u/1\n")
    bad_gold = gold_dir / "other.urls"
    bad_gold.write_bytes(b"https://u/1\n\xfe\n")
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir))
    assert code == 0
    assert err.startswith(f"skipping other__graph.urls: {bad_gold}: 'utf-8' codec")
    assert f"{query_slug(QUERY)},graph,P,3,1\n" in out
    assert "other," not in out


def test_eval_skips_a_directory_named_like_a_run_file(tmp_path, capsys):
    urls = ["https://u/1"]
    runs, gold_dir = make_eval_dirs(tmp_path, urls, urls)
    folder = runs / f"{query_slug(QUERY)}__folder.urls"
    folder.mkdir()
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold_dir))
    assert code == 0
    assert err.startswith(f"skipping {folder.name}: ")
    assert str(folder) in err
    assert ",graph,P,3,1\n" in out
    assert ",folder," not in out


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


def test_bench_skips_comment_lines_after_leading_blanks(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("# note\n  # indented note\n\t# tabbed note\nadolescent alcoholism\n")
    code, out, err = run_cli(capsys, "bench", "--queries", str(queries), "--config", CONFIG)
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["query", QUERY]


def test_bench_skips_missing_fixture_and_continues(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("zz-missing-snapshot-entry\nadolescent alcoholism\n")
    code, out, err = run_cli(capsys, "bench", "--queries", str(queries), "--config", CONFIG)
    assert code == 0
    assert "zz-missing-snapshot-entry" in err
    assert len(out.splitlines()) == 2  # header + the one expandable query


def test_bench_skips_only_queries_hit_by_a_malformed_api_payload(tmp_path, capsys, monkeypatch):
    pages = {
        "alcoholism": {"parse": {"text": {"*": '<a href="/wiki/Binge_drinking">b</a>'}}},
        "binge drinking": {"parse": {"text": {"*": '<a href="/wiki/Alcoholism">a</a>'}}},
        "mercury": {"parse": {"text": "<p>a string, not an object</p>"}},
    }
    searches = {
        "alcoholism": [{"title": "Alcoholism"}],
        "mercury": [{"title": "Mercury"}],
        "broken": [{"ns": 0, "pageid": 7}],
    }

    def transport(params):
        if params["action"] == "query":
            return {"query": {"search": searches[params["srsearch"]]}}
        return pages[params["page"]]

    client = WikiClient(transport=transport, request_interval=0)
    monkeypatch.setattr("wikiqe.cli._source",
                        lambda config: WikiSource(PageCache(tmp_path / "cache"), client))
    queries = tmp_path / "queries.txt"
    queries.write_text("broken\nalcoholism\nmercury\n")
    code, out, err = run_cli(capsys, "bench", "--queries", str(queries))
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["query", "alcoholism"]
    assert "skipping 'broken': malformed search response for 'broken'" in err
    assert "skipping 'mercury': malformed parse response for 'mercury'" in err


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


@pytest.mark.parametrize("kind, key, field, value", [
    pytest.param("pages", "alcoholism", "outlinks", "ethanol", id="page"),
    pytest.param("searches", search_key(QUERY), "results", "alcoholism", id="search"),
])
def test_bench_skips_only_queries_hit_by_a_mistyped_cache_record(
    tmp_path, capsys, kind, key, field, value
):
    snapshot = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snapshot)
    path = snapshot / kind / hashed_name(key)
    record = json.loads(path.read_text(encoding="utf-8"))
    record[field] = value
    path.write_text(json.dumps(record), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG,
        "--snapshot", str(snapshot),
    )
    assert code == 0
    skipped = err.splitlines()
    assert f"skipping {QUERY!r}: malformed cache record {path}: {field} must be" in err
    assert all(str(path) in line for line in skipped)
    assert len(out.splitlines()) == 1 + 30 - len(skipped)


BAD_TITLES = [
    pytest.param("a|b", id="reserved"),
    pytest.param("", id="empty"),
    pytest.param(" ", id="blank"),  # normalizes to nothing
    pytest.param("a%7Cb", id="escaped-reserved"),  # normalizes to "a|b"
]
BAD_TITLE_RECORDS = [
    pytest.param("pages", "alcoholism", "outlinks", id="page"),
    pytest.param("searches", search_key(QUERY), "results", id="search"),
]


def snapshot_with_bad_title(tmp_path, kind, key, field, title):
    """A copy of the fixture snapshot whose ``kind``/``key`` record lists
    ``title`` first in ``field``; returns the snapshot and the record path."""
    snapshot = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snapshot)
    path = snapshot / kind / hashed_name(key)
    record = json.loads(path.read_text(encoding="utf-8"))
    record[field].insert(0, title)
    path.write_text(json.dumps(record), encoding="utf-8")
    return snapshot, path


def bad_title_message(path, title):
    problem = {
        "a|b": "title contains reserved character: 'a|b'",
        "": "empty concept title",
        " ": "cannot fetch ' ': title normalizes to empty string: ' '",
        "a%7Cb": "cannot fetch 'a%7Cb': title contains reserved character: 'a|b'",
    }[title]
    return f"malformed cache record {path}: {problem}"


@pytest.mark.parametrize("title", BAD_TITLES)
@pytest.mark.parametrize("kind, key, field", BAD_TITLE_RECORDS)
def test_bench_skips_only_queries_hit_by_a_bad_title_in_a_cache_record(
    tmp_path, capsys, kind, key, field, title
):
    snapshot, path = snapshot_with_bad_title(tmp_path, kind, key, field, title)
    code, out, err = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG,
        "--snapshot", str(snapshot),
    )
    assert code == 0
    skipped = err.splitlines()
    assert f"skipping {QUERY!r}: {bad_title_message(path, title)}" in skipped
    assert all(line.endswith(bad_title_message(path, title)) for line in skipped)
    assert len(out.splitlines()) == 1 + 30 - len(skipped)


@pytest.mark.parametrize("title", BAD_TITLES)
@pytest.mark.parametrize("kind, key, field", BAD_TITLE_RECORDS)
def test_expand_names_the_cache_record_holding_a_bad_title(tmp_path, capsys, kind, key, field, title):
    snapshot, path = snapshot_with_bad_title(tmp_path, kind, key, field, title)
    code, out, err = run_cli(
        capsys, "expand", QUERY, "--config", CONFIG, "--snapshot", str(snapshot),
        "--out", str(tmp_path / "out"),
    )
    assert (code, out, err) == (1, "", f"error: {bad_title_message(path, title)}\n")


def test_bench_skips_only_queries_whose_search_record_cannot_be_read(tmp_path, capsys):
    snapshot = tmp_path / "snapshot"
    shutil.copytree(FIXTURES / "snapshot", snapshot)
    record = snapshot / "searches" / hashed_name(search_key("database overlap"))
    record.unlink()
    record.mkdir()
    code, out, err = run_cli(
        capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG,
        "--snapshot", str(snapshot),
    )
    assert code == 0
    assert err.splitlines() == [
        f"skipping {query!r}: unreadable cache record {record}: Is a directory"
        for query in ("database overlap", "database and overlap", "database or overlap")
    ]
    assert len(out.splitlines()) == 1 + 27


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


def test_bench_writes_out_file(tmp_path, capsys):
    queries = str(FIXTURES / "queries.txt")
    _, stdout_report, _ = run_cli(capsys, "bench", "--queries", queries, "--config", CONFIG)
    out_file = tmp_path / "nested" / "bench.csv"
    code, out, err = run_cli(
        capsys, "bench", "--queries", queries, "--config", CONFIG, "--out", str(out_file)
    )
    assert code == 0
    assert out == f"{out_file}\n"
    assert err == ""

    def without_seconds(report):
        rows = list(csv.reader(io.StringIO(report)))
        return [[query, terms] for query, _, terms in rows]

    written = out_file.read_text(encoding="utf-8")
    assert len(written.splitlines()) == 1 + 30
    assert without_seconds(written) == without_seconds(stdout_report)


def test_bench_queries_directory_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bench", "--queries", str(tmp_path), "--config", CONFIG)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert f"Is a directory: '{tmp_path}'" in err


def test_bench_term_outputs_stable_across_runs(tmp_path, capsys):
    def run():
        _, out, _ = run_cli(
            capsys, "bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG
        )
        return [line.rsplit(",", 1)[-1] for line in out.splitlines()[1:]]

    assert run() == run()


# ---------------------------------------------------------------------------
# per-command flags
# ---------------------------------------------------------------------------

WEIGHT_FLAGS = [("--preset", "tuned"), ("--weights", "1,2,3"), ("--seed", "7")]


@pytest.mark.parametrize(
    "argv, flag",
    [(["expand", QUERY, "--config", CONFIG], f) for f in WEIGHT_FLAGS]
    + [(["bench", "--queries", str(FIXTURES / "queries.txt"), "--config", CONFIG], f)
       for f in WEIGHT_FLAGS]
    + [(["eval", "--runs", ".", "--gold", "."], f)
       for f in [("--config", CONFIG), ("--snapshot", str(FIXTURES / "snapshot"))]
       + WEIGHT_FLAGS],
    ids=lambda value: value[0] if isinstance(value, list) else value[0].lstrip("-"),
)
def test_commands_reject_flags_their_flow_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + list(flag))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


def test_a_configured_path_that_does_not_exist_is_an_error_naming_the_config(tmp_path, capsys):
    missing = tmp_path / "no-serps"
    bad = fixture_config_copy(tmp_path, lambda data: data["paths"].update(serp_dir=str(missing)))
    code, out, err = run_cli(capsys, "expand", QUERY, "--config", bad, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: configured path serp_dir does not exist: {missing}\n"
    code, _, err = run_cli(capsys, "expand", QUERY, "--config", str(missing), "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: [Errno 2] No such file or directory: ")
    assert str(missing) in err and f"{missing}: " not in err


def test_fixture_config_loads():
    config = RunConfig.load(CONFIG)
    assert config.snapshot_dir and config.snapshot_dir.exists()
    assert config.weights.as_map()["degree"] == 30
    assert [e.engine_id for e in config.engines] == ["google", "lycos", "bing", "ask", "exalead"]


@pytest.mark.parametrize("config, message", [
    ({"crawl": {"hop_bound": "x"}}, "crawl.hop_bound: expected int, got 'x'"),
    ({"crawl": 5}, "crawl: expected object, got 5"),
    ([1], "expected object, got [1]"),
    ({"engines": [{"engine_id": "g"}]}, "engines[0].confidence: missing"),
    ({"weights": {"degree": "a"}}, "weights.degree: expected int, got 'a'"),
    ({"crawll": {"hop_bound": 1}}, "crawll: unknown key"),
    ({"paths": {"snapshot": "snapshot"}}, "paths.snapshot: unknown key"),
    ({"crawl": {"request_interval": float("nan")}}, "crawl: request_interval must be finite, got nan"),
    ({"crawl": {"request_interval": -5}}, "crawl: request_interval must be >= 0, got -5"),
    ({"pagerank": {"tolerance": float("inf")}}, "pagerank: tolerance must be finite, got inf"),
], ids=["wrong-type", "section-not-object", "top-level-list", "engine-without-confidence",
        "weight-not-int", "misspelt-section", "misspelt-path", "nan-interval", "negative-interval",
        "infinite-tolerance"])
def test_malformed_config_names_file_and_key_without_traceback(tmp_path, capsys, config, message):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "expand", QUERY, "--config", str(bad), "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")


def test_unknown_key_with_a_line_break_is_named_on_one_line(tmp_path, capsys):
    bad = tmp_path / "config.json"
    for config, key in (({"pager\nk": {}}, "'pager\\nk'"),
                        ({"crawl": {"hop\u2028bound": 1}}, "crawl.'hop\\u2028bound'")):
        bad.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "expand", QUERY, "--config", str(bad), "--out", str(tmp_path))
        assert (code, out, err) == (1, "", f"error: {bad}: {key}: unknown key\n")


def test_interval_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    # Loaded, it would end every live request in an OverflowError traceback
    # from the pacer's float arithmetic.
    bad = tmp_path / "config.json"
    bad.write_text('{"crawl": {"request_interval": 1' + "0" * 400 + "}}")
    code, out, err = run_cli(capsys, "expand", QUERY, "--config", str(bad), "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == (f"error: {bad}: crawl: request_interval must be finite, "
                   "got an integer too large for a float\n")


def test_config_error_is_a_value_error_without_the_file_from_dict():
    with pytest.raises(ConfigError, match=r"^pagerank: damping must be in \(0, 1\), got 2$"):
        RunConfig.from_dict({"pagerank": {"damping": 2}})
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("payload", [b"{\n", b'{"seed": 1}\xff\n'], ids=["bad-json", "not-utf8"])
def test_unreadable_config_error_names_the_file(tmp_path, capsys, payload):
    bad = tmp_path / "config.json"
    bad.write_bytes(payload)
    code, _, err = run_cli(capsys, "expand", QUERY, "--config", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: {bad}: ")


# ---------------------------------------------------------------------------
# text inputs
# ---------------------------------------------------------------------------

def eval_argv(tmp_path, bad):
    runs, gold_dir = make_eval_dirs(tmp_path, ["https://u/1"], ["https://u/1"])
    return ["eval", "--runs", str(runs), "--gold", str(gold_dir), "--judgments", str(bad)]


def stopwords_argv(tmp_path, bad):
    config = fixture_config_copy(tmp_path, lambda data: data["paths"].update(stopwords=str(bad)))
    return ["expand", QUERY, "--config", config, "--out", str(tmp_path / "out")]


def dictionary_argv(tmp_path, bad):
    config = fixture_config_copy(
        tmp_path, lambda data: data["paths"]["dictionaries"].update(moby=str(bad))
    )
    return ["gold", QUERY, "--config", config, "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv", [
    eval_argv,
    lambda tmp_path, bad: ["bench", "--queries", str(bad), "--config", CONFIG],
    stopwords_argv,
    dictionary_argv,
], ids=["judgments", "bench-queries", "stopwords", "dictionary"])
def test_undecodable_text_input_error_names_the_file(tmp_path, capsys, argv):
    bad = tmp_path / "not-utf8.txt"
    bad.write_bytes(b"first line\n\xff\n")
    code, out, err = run_cli(capsys, *argv(tmp_path, bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("x\n")],
                         ids=["missing", "a-file"])
def test_eval_runs_that_is_not_a_directory_is_an_error(tmp_path, capsys, make):
    runs = tmp_path / "runs"
    make(runs)
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: --runs {runs}: not a directory\n")


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("x\n")],
                         ids=["missing", "a-file"])
def test_eval_gold_that_is_not_a_directory_is_an_error(tmp_path, capsys, make):
    urls = [f"https://u/{i}" for i in range(3)]
    runs, _ = make_eval_dirs(tmp_path, urls, urls)
    gold = tmp_path / "no-gold"
    make(gold)
    code, out, err = run_cli(capsys, "eval", "--runs", str(runs), "--gold", str(gold))
    assert (code, out, err) == (1, "", f"error: --gold {gold}: not a directory\n")
