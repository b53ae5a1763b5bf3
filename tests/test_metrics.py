"""P@x, S@x, NDCG, Cohen's kappa and report plumbing."""

import math
import random

import pytest

from wikiqe.metrics import (
    NDCG_CUTOFFS,
    PRECISION_CUTOFFS,
    EvalReport,
    JudgmentSet,
    cohens_kappa,
    csv_table,
    improvement_ratios,
    ndcg_at,
    precision_at,
    success_at,
)


# ---------------------------------------------------------------------------
# precision / success
# ---------------------------------------------------------------------------

def test_precision_partial_overlap():
    assert precision_at(["d1", "d3", "d2"], {"d1", "d2"}, 3) == pytest.approx(2 / 3)


def test_precision_full_overlap_is_one():
    assert precision_at(["d1", "d2"], {"d1", "d2", "d9"}, 2) == 1.0


def test_precision_short_list_uses_its_own_length():
    assert precision_at(["d1"], {"d1"}, 5) == 1.0


def test_precision_empty_list_is_zero():
    assert precision_at([], {"d1"}, 3) == 0.0


def test_success_hit_and_miss():
    assert success_at(["d1", "d2"], {"d1"}, 1) == 1
    assert success_at(["d1", "d2"], {"zz"}, 2) == 0


def test_precision_success_match_set_oracle_on_random_instances():
    rng = random.Random(411)
    docs = [f"u{i}" for i in range(30)]
    for _ in range(1000):
        ranked = rng.sample(docs, rng.randint(0, 20))
        gold = set(rng.sample(docs, rng.randint(0, 15)))
        x = rng.randint(1, 25)
        top = ranked[:x]
        expected_hits = len(set(top) & gold)
        p = precision_at(ranked, gold, x)
        s = success_at(ranked, gold, x)
        if ranked:
            assert p == pytest.approx(expected_hits / min(x, len(ranked)))
        else:
            assert p == 0.0
        assert s == (1 if expected_hits > 0 else 0)
        # success dominates precision: any precision implies a hit
        if p > 0:
            assert s == 1


# ---------------------------------------------------------------------------
# NDCG
# ---------------------------------------------------------------------------

def test_ndcg_ideal_ordering_scores_one():
    grades = {"a": 2, "b": 2, "c": 1, "d": 1, "e": 0}
    ranked = ["a", "b", "c", "d", "e"]
    for k in (3, 5, 7, 10):
        assert ndcg_at(ranked, grades, k) == pytest.approx(1.0)


def test_ndcg_hand_computed_example():
    # Retrieved grades [0, 1, 2] against the graded pool {2, 1, 0}:
    # DCG  = 0 + 1/log2(3) + 2/log2(4) = 1.6309...
    # IDCG = 2 + 1/log2(3)             = 2.6309...
    grades = {"worst": 0, "mid": 1, "best": 2}
    value = ndcg_at(["worst", "mid", "best"], grades, 3)
    assert value == pytest.approx(0.6199, abs=1e-4)
    expected = (1 / math.log2(3) + 1.0) / (2.0 + 1 / math.log2(3))
    assert value == pytest.approx(expected, abs=1e-12)


def test_ndcg_all_zero_grades_is_zero():
    assert ndcg_at(["a", "b"], {"a": 0, "b": 0}, 3) == 0.0


def test_ndcg_normalizes_over_all_graded_documents():
    # "missing" is graded but never retrieved; it still raises the ideal.
    grades = {"a": 2, "missing": 2}
    assert ndcg_at(["a"], grades, 2) == pytest.approx(2 / (2 + 2 / math.log2(3)))


def test_ndcg_one_whenever_ranking_sorts_grades_non_increasingly():
    rng = random.Random(52)
    for _ in range(200):
        n = rng.randint(1, 12)
        grades = {f"u{i}": rng.choice([0, 1, 2]) for i in range(n)}
        ranked = sorted(grades, key=lambda u: -grades[u])
        k = rng.randint(1, 12)
        expected = 0.0 if not any(grades.values()) else 1.0
        assert ndcg_at(ranked, grades, k) == pytest.approx(expected)


def test_ndcg_stays_in_unit_interval():
    rng = random.Random(53)
    for _ in range(300):
        grades = {f"u{i}": rng.choice([0, 1, 2]) for i in range(rng.randint(1, 15))}
        ranked = rng.sample(sorted(grades), rng.randint(0, len(grades)))
        value = ndcg_at(ranked, grades, rng.randint(1, 10))
        assert 0.0 <= value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------

def test_kappa_identical_judges():
    assert cohens_kappa([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_kappa_independence_example():
    # p_o = 0.5 and p_e = 0.5 -> kappa exactly 0.
    assert cohens_kappa([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)


def test_kappa_constant_judges_degenerate_case():
    assert cohens_kappa([1, 1, 1], [1, 1, 1]) == 1.0
    assert cohens_kappa([1, 1], [2, 2]) == 0.0


def test_kappa_length_mismatch_errors():
    with pytest.raises(ValueError, match="length"):
        cohens_kappa([0, 1], [0])


def test_kappa_rejects_bad_grades():
    with pytest.raises(ValueError):
        cohens_kappa([0, 3], [0, 1])


def test_kappa_symmetric_and_bounded():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 25)
        a = [rng.choice([0, 1, 2]) for _ in range(n)]
        b = [rng.choice([0, 1, 2]) for _ in range(n)]
        k_ab = cohens_kappa(a, b)
        k_ba = cohens_kappa(b, a)
        assert k_ab == pytest.approx(k_ba, abs=1e-12)
        assert -1.0 - 1e-12 <= k_ab <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# judgments
# ---------------------------------------------------------------------------

def test_judgments_csv_round_trip(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text(
        "query,url,judge,grade\n"
        "q one,https://a/1,j1,2\n"
        "q one,https://a/1,j2,1\n"
        "q one,https://a/2,j1,0\n",
        encoding="utf-8",
    )
    judgments = JudgmentSet.from_csv(path)
    assert judgments.judges() == ["j1", "j2"]
    assert judgments.query_grades("q one", "j1") == {"https://a/1": 2, "https://a/2": 0}
    a, b = judgments.paired_grades("j1", "j2")
    assert (a, b) == ([2], [1])


def test_judgments_csv_names_bad_line(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text(
        "query,url,judge,grade\nq,https://a/1,j1,2\nq,https://a/2,j1,seven\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=":3"):
        JudgmentSet.from_csv(path)


def test_judgments_csv_names_the_physical_line_after_a_multi_line_field(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text(
        'query,url,judge,grade\n"q\nspans two lines",https://a/1,j1,2\nq,https://a/2,j1,nine\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r":4: grade 'nine' is not an integer$"):
        JudgmentSet.from_csv(path)


def test_judgments_csv_rejects_out_of_range_grade(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text("query,url,judge,grade\nq,https://a/1,j1,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        JudgmentSet.from_csv(path)


# ---------------------------------------------------------------------------
# reports and ratios
# ---------------------------------------------------------------------------

def report_from(method, per_query):
    report = EvalReport(method=method)
    for query, value in per_query.items():
        report.record(query, "P", 3, value)
    return report


def test_report_csv_layout():
    report = report_from("graph", {"q1": 0.5})
    report.record("q1", "S", 3, 1)
    lines = report.to_csv().splitlines()
    assert lines[0] == "query,method,metric,cutoff,value"
    assert "q1,graph,P,3,0.5" in lines
    assert "q1,graph,S,3,1" in lines


def test_score_records_the_policy_cutoffs_and_averages_ndcg_over_judges():
    ranked, gold = ["d1", "d2", "d3"], {"d2"}
    judge_grades = [{"d1": 2, "d2": 0}, {"d2": 2, "d3": 1}]
    report = EvalReport(method="graph")
    report.score("q", ranked, gold, judge_grades)
    assert sorted(report.values["q"]) == sorted(
        [(m, x) for m in ("P", "S") for x in PRECISION_CUTOFFS]
        + [("NDCG", k) for k in NDCG_CUTOFFS]
    )
    assert report.values["q"][("P", 3)] == pytest.approx(1 / 3)
    assert report.values["q"][("S", 3)] == 1
    for k in NDCG_CUTOFFS:
        mean = (ndcg_at(ranked, judge_grades[0], k) + ndcg_at(ranked, judge_grades[1], k)) / 2
        assert report.values["q"][("NDCG", k)] == mean
    ungraded = EvalReport(method="graph")
    ungraded.score("q", ranked, gold, [])
    assert {metric for metric, _ in ungraded.values["q"]} == {"P", "S"}


def test_csv_table_writes_one_header_over_all_reports():
    first, second = report_from("a", {"q1": 0.5}), report_from("b", {"q2": 1.0})
    table = csv_table([first, second])
    assert table == first.to_csv() + "".join(second.to_csv().splitlines(keepends=True)[1:])


def test_ratios_identical_reports_are_one():
    base = report_from("noqe", {"q1": 0.4, "q2": 0.6})
    variant = report_from("graph", {"q1": 0.4, "q2": 0.6})
    table = improvement_ratios(base, [variant])
    assert table[("P", 3)]["graph"] == pytest.approx(1.0)


def test_ratios_reference_improvement():
    base = report_from("noqe", {"q1": 0.5})
    variant = report_from("graph", {"q1": 0.81})
    table = improvement_ratios(base, [variant])
    assert table[("P", 3)]["graph"] == pytest.approx(1.62)


def test_ratios_zero_baseline_is_undefined_marker():
    base = report_from("noqe", {"q1": 0.0})
    variant = report_from("graph", {"q1": 0.9})
    table = improvement_ratios(base, [variant])
    assert table[("P", 3)]["graph"] is None


def test_ratios_query_mismatch_errors():
    base = report_from("noqe", {"q1": 0.5})
    variant = report_from("graph", {"q2": 0.5})
    with pytest.raises(ValueError, match="query sets differ"):
        improvement_ratios(base, [variant])
