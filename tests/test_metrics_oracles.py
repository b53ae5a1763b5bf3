"""Differential oracles for the metrics and the judgment store: NDCG@k
against a brute-force ideal ordering (Järvelin & Kekäläinen, TOIS 2002),
Cohen's kappa against a numpy confusion matrix (Cohen 1960), P@x and S@x
against set arithmetic, and the JudgmentSet lookups against brute-force
answers over the raw CSV rows."""

import csv
import itertools
import math
import tempfile
from pathlib import Path

import pytest

from wikiqe.metrics import JudgmentSet, cohens_kappa, ndcg_at, precision_at, success_at

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=200, deadline=None)

DOCS = [f"https://d/{i}" for i in range(10)]
grades = st.integers(0, 2)


def dcg(order, graded, k):
    return sum(graded.get(url, 0) / math.log2(i + 1) for i, url in enumerate(order[:k], start=1))


@settings
@hypothesis.given(
    graded=st.dictionaries(st.sampled_from(DOCS[:7]), grades, max_size=7),
    ranked=st.lists(st.sampled_from(DOCS), unique=True, max_size=10),
    k=st.integers(1, 10),
)
def test_ndcg_matches_brute_force_ideal_ordering(graded, ranked, k):
    window = min(k, len(graded))
    ideal = max((dcg(order, graded, k) for order in itertools.permutations(graded, window)),
                default=0.0)
    expected = dcg(ranked, graded, k) / ideal if ideal > 0 else 0.0
    assert ndcg_at(ranked, graded, k) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings
@hypothesis.given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.lists(grades, min_size=n, max_size=n),
                        st.lists(grades, min_size=n, max_size=n))))
def test_kappa_matches_confusion_matrix_formula(pair):
    np = pytest.importorskip("numpy")
    judge_a, judge_b = pair
    confusion = np.zeros((3, 3))
    np.add.at(confusion, (judge_a, judge_b), 1)
    confusion /= confusion.sum()
    observed = np.trace(confusion)
    expected = confusion.sum(axis=1) @ confusion.sum(axis=0)
    if len(set(judge_a)) == 1 and set(judge_a) == set(judge_b):
        oracle = 1.0  # both judges constant on one grade: chance agreement is 1
    else:
        oracle = (observed - expected) / (1.0 - expected)
    assert cohens_kappa(judge_a, judge_b) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@settings
@hypothesis.given(
    ranked=st.lists(st.sampled_from(DOCS), unique=True, max_size=10),
    gold=st.sets(st.sampled_from(DOCS)),
    x=st.integers(1, 12),
)
def test_precision_and_success_match_set_arithmetic(ranked, gold, x):
    hits = set(ranked[:x]) & gold
    assert precision_at(ranked, gold, x) == (len(hits) / min(x, len(ranked)) if ranked else 0.0)
    assert success_at(ranked, gold, x) == int(bool(hits))


# ---------------------------------------------------------------------------
# JudgmentSet against the raw rows
# ---------------------------------------------------------------------------

rows = st.integers(1, 3).flatmap(lambda judges: st.lists(st.tuples(
    st.sampled_from(["q1", "q2", "q3"]),
    st.sampled_from(DOCS[:5]),
    st.sampled_from([f"j{i}" for i in range(1, judges + 1)]),
    grades,
), max_size=40))

# Interleaved queries, a duplicate row whose last grade wins, three judges.
MIXED = [("q2", DOCS[3], "j2", 1), ("q1", DOCS[0], "j1", 2), ("q2", DOCS[1], "j1", 0),
         ("q1", DOCS[0], "j3", 1), ("q2", DOCS[3], "j2", 2), ("q2", DOCS[3], "j1", 0)]


@settings
@hypothesis.example(raw=MIXED)
@hypothesis.given(raw=rows)
def test_judgment_lookups_match_the_raw_rows(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "judgments.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["query", "url", "judge", "grade"])
            writer.writerows(raw)
        judgments = JudgmentSet.from_csv(path)

    last = {}  # (query, url, judge) -> grade; a later row overrides an earlier one
    first_seen = []  # (query, url) pairs in order of first appearance
    for query, url, judge, grade in raw:
        last[(query, url, judge)] = grade
        if (query, url) not in first_seen:
            first_seen.append((query, url))
    judges = sorted({judge for _q, _u, judge, _g in raw})
    queries = sorted({query for query, _u, _j, _g in raw})

    assert judgments.judges() == judges
    assert judgments.queries() == queries
    assert judgments.grades == {
        (q, u): {j: g for (q2, u2, j), g in last.items() if (q2, u2) == (q, u)}
        for q, u in first_seen
    }
    for query in queries + ["absent"]:
        for judge in judges + ["nobody"]:
            expected = [(u, last[(q, u, judge)]) for q, u in first_seen
                        if q == query and (q, u, judge) in last]
            assert list(judgments.query_grades(query, judge).items()) == expected
        assert judgments.graders(query) == [
            j for j in judges if any((query, u, j) in last for u in DOCS)
        ]
    for judge_a, judge_b in itertools.product(judges, repeat=2):
        for query in [None] + queries:
            pairs = [(last[(q, u, judge_a)], last[(q, u, judge_b)]) for q, u in sorted(first_seen)
                     if query in (None, q) and (q, u, judge_a) in last and (q, u, judge_b) in last]
            assert judgments.paired_grades(judge_a, judge_b, query=query) == (
                [a for a, _ in pairs], [b for _, b in pairs])
    expected_kappas = {}
    if len(judges) >= 2:
        for query in queries:
            a, b = judgments.paired_grades(judges[0], judges[1], query=query)
            if a:
                expected_kappas[query] = cohens_kappa(a, b)
    assert judgments.kappas() == expected_kappas
