"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from wikiqe.centrality import PageRankParams, build_table, closeness, degree, pagerank
from wikiqe.cli import main
from wikiqe.config import DEFAULT_ENGINES, SIX_SOURCE_WEIGHTS
from wikiqe.expand import borda_combine, expand_query
from wikiqe.fusion import (
    FixtureEngineAdapter,
    engine_weight,
    serp_fixture_name,
    wbf_merge,
)
from wikiqe.graph import OntologyGraph
from wikiqe.metrics import (
    EvalReport,
    cohens_kappa,
    improvement_ratios,
    ndcg_at,
    precision_at,
    success_at,
)

from conftest import make_subgraph, random_adjacency
from test_centrality import oracle_closeness, oracle_degree, oracle_pagerank
from test_expand import brute_force_borda, full_sort_windows
from test_fusion import brute_force_wbf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIG = str(FIXTURES / "config.json")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    print(f"\nACCEPTANCE {number} PASS: {description}", flush=True)


# ---------------------------------------------------------------------------
# 1. centrality oracles on 100 random graphs
# ---------------------------------------------------------------------------

def test_criterion_1_centrality_oracles():
    with criterion(1, "degree/closeness/PageRank match brute-force oracles on 100 random graphs"):
        rng = random.Random(1001)
        params = PageRankParams()
        start = time.perf_counter()
        for _ in range(100):
            n = rng.randint(2, 50)
            adjacency = random_adjacency(rng, n, rng.choice([0.02, 0.08, 0.2]))
            sub = make_subgraph(adjacency)

            assert degree(sub) == oracle_degree(adjacency)

            expected_closeness = oracle_closeness(adjacency)
            for node, value in closeness(sub).items():
                assert value == pytest.approx(expected_closeness[node], abs=1e-12)

            result = pagerank(sub, params)
            expected_pagerank = oracle_pagerank(adjacency, params)
            for node, value in result.scores.items():
                assert value == pytest.approx(expected_pagerank[node], abs=1e-6)
            assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"


# ---------------------------------------------------------------------------
# 2. intersection + Borda against exhaustive oracles
# ---------------------------------------------------------------------------

SOURCES = ("degree", "closeness", "pagerank")


def random_titled_table(rng):
    """build_table over a random graph whose titles collapse to terms in
    threes ("n3", "n3 (film)" and "n3 (novel)" all give "n3")."""
    adjacency = random_adjacency(rng, rng.randint(1, 40), rng.choice([0.03, 0.1, 0.25]))
    senses = ("", " (film)", " (novel)")
    title = {name: f"n{i // 3}{senses[i % 3]}" for i, name in enumerate(adjacency)}
    renamed = {title[u]: [title[v] for v in targets] for u, targets in adjacency.items()}
    return build_table(make_subgraph(renamed))


def test_criterion_2_intersection_and_borda_oracles():
    with criterion(2, "intersection/Borda agree with enumeration oracles on 1000+ cases"):
        assert borda_combine([["a", "b", "c"], ["b", "a"]]) == [("a", 4), ("b", 4), ("c", 1)]

        universe = ["a", "b", "c", "d", "e", "f"]
        pool = []
        for length in (1, 2, 3):
            pool.extend(list(p) for p in itertools.permutations(universe, length))
        rng = random.Random(1002)
        for _ in range(1100):
            triple = [rng.choice(pool) for _ in range(3)]
            assert borda_combine(triple) == brute_force_borda(triple)

        # The paper's intersection step, as the oracle: each list's top-k
        # window, keeping the terms found in both other lists.
        cases = 0
        for _ in range(120):
            table = random_titled_table(rng)
            lists = full_sort_windows(table, len(table.degree))
            assert set(lists["degree"]) == set(lists["closeness"]) == set(lists["pagerank"])
            for k in (1, rng.randint(1, 45), 100):
                intersections = []
                for source in SOURCES:
                    first, second = (set(lists[s]) for s in SOURCES if s != source)
                    window = lists[source][:k]
                    intersected = [t for t in window if t in first and t in second]
                    assert intersected == window
                    intersections.append(intersected)
                    cases += 1
                fused = brute_force_borda(intersections)
                result = expand_query(table, "zzz", m=len(fused), stopwords=frozenset(), k=k)
                assert result.qe_terms == [term for term, _ in fused]
                assert result.borda_scores == dict(fused)
        assert cases >= 1000


# ---------------------------------------------------------------------------
# 3. reference weight matrix
# ---------------------------------------------------------------------------

def test_criterion_3_weight_matrix():
    with criterion(3, "5-engine x 6-source weight matrix equals w*conf/100 exactly"):
        confidences = {"google": 30, "lycos": 25, "bing": 20, "ask": 15, "exalead": 10}
        assert {e.engine_id: e.confidence for e in DEFAULT_ENGINES} == confidences
        weights = SIX_SOURCE_WEIGHTS.as_map()
        assert weights == {
            "degree": 30, "closeness": 20, "pagerank": 20,
            "wordnet": 10, "wikisynonyms": 10, "moby": 10,
        }
        for engine, conf in confidences.items():
            for source, w in weights.items():
                assert engine_weight(w, conf) == w * conf / 100
        assert engine_weight(weights["degree"], confidences["google"]) == 9.0
        assert engine_weight(weights["moby"], confidences["exalead"]) == 1.0


# ---------------------------------------------------------------------------
# 4. WBF merge on the shipped 200-entry SERP fixtures
# ---------------------------------------------------------------------------

def shipped_google_lists():
    variants = (FIXTURES / "serp" / "QUERIES.txt").read_text().splitlines()
    adapter = FixtureEngineAdapter(FIXTURES / "serp")
    return [adapter.search("google", query, 200) for query in variants]


def test_criterion_4_wbf_against_score_table():
    with criterion(4, "WBF merge equals brute-force score table on 6x200 fixture SERPs"):
        lists = shipped_google_lists()
        assert len(lists) == 6
        assert all(len(rl.urls) == 200 for rl in lists)
        weighted = [
            (rl, engine_weight(w, 30))
            for rl, w in zip(lists, [30, 20, 20, 10, 10, 10])
        ]
        fused = wbf_merge(weighted, cap=200)
        assert fused.entries == brute_force_wbf(weighted, 200)

        scaled = wbf_merge([(rl, w * 7) for rl, w in weighted], cap=200)
        assert scaled.urls() == fused.urls()


# ---------------------------------------------------------------------------
# 5. metric reference values
# ---------------------------------------------------------------------------

def test_criterion_5_metric_reference_values():
    with criterion(5, "NDCG/kappa/P@x/S@x reproduce reference and oracle values"):
        grades = {"a": 2, "b": 2, "c": 1, "d": 1, "e": 0}
        ideal = sorted(grades, key=lambda u: -grades[u])
        for k in (3, 5, 7, 10):
            assert ndcg_at(ideal, grades, k) == pytest.approx(1.0)

        pool = {"worst": 0, "mid": 1, "best": 2}
        assert ndcg_at(["worst", "mid", "best"], pool, 3) == pytest.approx(0.6199, abs=1e-4)

        assert cohens_kappa([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0
        assert cohens_kappa([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

        rng = random.Random(1005)
        docs = [f"u{i}" for i in range(40)]
        for _ in range(1000):
            ranked = rng.sample(docs, rng.randint(0, 30))
            gold = set(rng.sample(docs, rng.randint(0, 20)))
            x = rng.randint(1, 30)
            hits = len(set(ranked[:x]) & gold)
            expected_p = hits / min(x, len(ranked)) if ranked else 0.0
            assert precision_at(ranked, gold, x) == pytest.approx(expected_p)
            assert success_at(ranked, gold, x) == (1 if hits else 0)


# ---------------------------------------------------------------------------
# 6. end-to-end determinism on the shipped snapshot
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_determinism(tmp_path, capsys):
    with criterion(6, "expand --m 2 byte-identical over 5 runs; gold sets nest by prefix"):
        outputs, dumps = set(), set()
        for i in range(5):
            out_dir = tmp_path / f"run{i}"
            code = main(["expand", "adolescent alcoholism", "--m", "2",
                         "--config", CONFIG, "--out", str(out_dir)])
            captured = capsys.readouterr()
            assert code == 0
            outputs.add(captured.out)
            dumps.add((out_dir / "adolescent_alcoholism.graph.txt").read_bytes())
        assert len(outputs) == 1
        assert len(dumps) == 1

        gold = {}
        for k in (3, 5, 10, 20, 50):
            out_dir = tmp_path / "gold"
            code = main(["gold", "adolescent alcoholism", "--k", str(k),
                         "--config", CONFIG, "--out", str(out_dir)])
            capsys.readouterr()
            assert code == 0
            path = out_dir / f"adolescent_alcoholism__gold_k{k}.urls"
            gold[k] = path.read_text().splitlines()
        ks = sorted(gold)
        for small, big in zip(ks, ks[1:]):
            assert gold[big][: len(gold[small])] == gold[small]


# ---------------------------------------------------------------------------
# 7. post-graph QE speed on a ~5,000-node graph
# ---------------------------------------------------------------------------

def crawl_shaped_graph(n_target=5000, branching=17, seed=77):
    """Hop-bounded BFS tree with sideways leaf links, like a real crawl.

    The leaves sit at hop 3, so the bound is 4 to let them link sideways."""
    rng = random.Random(seed)
    graph = OntologyGraph(["root concept"], hop_bound=4)
    level = ["root concept"]
    counter = 0
    for hop in range(2):
        nxt = []
        for page in level:
            links = []
            for _ in range(branching):
                counter += 1
                links.append(f"concept {counter:05d}")
            graph.add_page(page, links, hop)
            nxt.extend(links)
        level = nxt
    leaves = []
    for page in level:
        links = []
        for _ in range(branching):
            counter += 1
            links.append(f"concept {counter:05d}")
            if graph.node_count + len(links) > n_target:
                break
        graph.add_page(page, links, 2)
        leaves.extend(links)
        if graph.node_count > n_target:
            break
    # sideways links between leaves keep the graph from being a pure tree
    for _ in range(2000):
        u, v = rng.choice(leaves), rng.choice(leaves)
        if u != v:
            graph.add_page(u, [v], graph.hop(u))
    return graph


def test_criterion_7_post_graph_qe_under_two_seconds():
    with criterion(7, "post-graph QE on a ~5,000-node fixture graph finishes in < 2 s"):
        graph = crawl_shaped_graph()
        assert 4500 <= graph.node_count <= 6500

        start = time.perf_counter()
        result = expand_query(build_table(graph.select_best_concept()), "root concept", m=2)
        seconds = time.perf_counter() - start
        assert result.qe_terms
        assert seconds < 2.0, f"QE stage took {seconds:.2f}s"


# ---------------------------------------------------------------------------
# 8. improvement ratios on synthetic SERPs
# ---------------------------------------------------------------------------

def test_criterion_8_improvement_ratios_exceed_one(tmp_path):
    with criterion(8, "expanded method scores P@3/S@3 ratios > 1 on synthetic SERPs"):
        gold_sets = {
            "alpha query": {f"https://gold.example/a{i}" for i in range(10)},
            "beta query": {f"https://gold.example/b{i}" for i in range(10)},
        }
        # Baseline finds gold in top-3 on one query only; the expanded
        # variant retrieves strictly more gold URLs up front on both.
        serps = {
            ("alpha query", "plain"): [
                "https://noise.example/1", "https://noise.example/2",
                "https://gold.example/a0", "https://gold.example/a1",
            ],
            ("alpha query", "expanded"): [
                "https://gold.example/a0", "https://gold.example/a1",
                "https://gold.example/a2", "https://noise.example/1",
            ],
            ("beta query", "plain"): [
                "https://noise.example/3", "https://noise.example/4",
                "https://noise.example/5", "https://gold.example/b0",
            ],
            ("beta query", "expanded"): [
                "https://gold.example/b0", "https://gold.example/b1",
                "https://noise.example/3", "https://noise.example/4",
            ],
        }
        for (query, method), urls in serps.items():
            payload = {
                "engine": "fixture",
                "query": f"{query} {method}",
                "results": [{"rank": i, "url": u, "title": ""} for i, u in enumerate(urls, 1)],
            }
            name = serp_fixture_name("fixture", f"{query} {method}")
            (tmp_path / name).write_text(json.dumps(payload))

        adapter = FixtureEngineAdapter(tmp_path)
        baseline = EvalReport(method="noqe")
        expanded = EvalReport(method="graph")
        for query, gold in gold_sets.items():
            for method, report in (("plain", baseline), ("expanded", expanded)):
                ranked = adapter.search("fixture", f"{query} {method}", 10).urls
                retrieved_gold = set(ranked) & gold
                if method == "expanded":
                    plain = adapter.search("fixture", f"{query} plain", 10).urls
                    assert len(retrieved_gold) > len(set(plain) & gold)
                report.record(query, "P", 3, precision_at(ranked, gold, 3))
                report.record(query, "S", 3, success_at(ranked, gold, 3))

        ratios = improvement_ratios(baseline, [expanded])
        assert ratios[("P", 3)]["graph"] > 1.0
        assert ratios[("S", 3)]["graph"] > 1.0
