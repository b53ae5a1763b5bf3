"""Retrieval-quality and agreement metrics: P@x, S@x, NDCG@k, Cohen's kappa.

All computations are pure and per query; reports macro-average over the
query set. The CSV that csv_table writes for reports (``query,method,
metric,cutoff,value``) is the plot-data feed for external chart tooling.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from ._value import Value
from .text import _read_text

__all__ = [
    "PRECISION_CUTOFFS",
    "NDCG_CUTOFFS",
    "precision_at",
    "success_at",
    "ndcg_at",
    "cohens_kappa",
    "JudgmentSet",
    "EvalReport",
    "csv_table",
    "improvement_ratios",
]

PRECISION_CUTOFFS = (3, 5, 10, 20, 50)
NDCG_CUTOFFS = (3, 5, 7, 10)
VALID_GRADES = (0, 1, 2)  # not / partially / fully relevant


def precision_at(ranked: list[str], gold: set[str], x: int) -> float:
    """Fraction of the top-x results that are in the gold set.

    The denominator is min(x, len(ranked)) so short result lists are not
    penalized for positions they never filled. Empty list -> 0.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if not ranked:
        return 0.0
    hits = sum(1 for url in ranked[:x] if url in gold)
    return hits / min(x, len(ranked))


def success_at(ranked: list[str], gold: set[str], x: int) -> int:
    """1 if any of the top-x results is in the gold set, else 0."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return int(any(url in gold for url in ranked[:x]))


def ndcg_at(ranked: list[str], grades: dict[str, int], k: int) -> float:
    """Normalized DCG with graded gains.

    Gain is the raw grade (0/1/2), discount 1/log2(i + 1) at 1-based rank
    i. The ideal DCG is computed over ALL graded documents for the query,
    not just the retrieved ones. All grades zero -> 0 by convention.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = sum(
        grades.get(url, 0) / math.log2(i + 1)
        for i, url in enumerate(ranked[:k], start=1)
    )
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0:
        return 0.0
    return dcg / idcg


def cohens_kappa(judge_a: list[int], judge_b: list[int]) -> float:
    """Chance-corrected agreement between two judges' graded labels.

    kappa = (p_o - p_e) / (1 - p_e) over the 3x3 confusion matrix. When
    expected agreement is already 1 (both judges constant on the same
    grade) the measure degenerates: returns 1 on perfect agreement,
    0 otherwise.
    """
    if len(judge_a) != len(judge_b):
        raise ValueError(f"judgment lists differ in length: {len(judge_a)} vs {len(judge_b)}")
    if not judge_a:
        raise ValueError("judgment lists are empty")
    for grade in (*judge_a, *judge_b):
        if grade not in VALID_GRADES:
            raise ValueError(f"grade must be one of {VALID_GRADES}, got {grade!r}")
    n = len(judge_a)
    observed = sum(1 for a, b in zip(judge_a, judge_b) if a == b) / n
    expected = sum(
        (judge_a.count(g) / n) * (judge_b.count(g) / n) for g in VALID_GRADES
    )
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)


class JudgmentSet:
    """Graded relevance labels: (query, url) -> judge id -> grade in {0,1,2},
    kept by query (urls in first-seen order) so a query's lookups read only its rows."""

    def __init__(self, grades: dict[tuple[str, str], dict[str, int]]):
        self._by_query: dict[str, dict[str, dict[str, int]]] = {}
        for (query, url), per_judge in grades.items():
            for judge, grade in per_judge.items():
                if grade not in VALID_GRADES:
                    raise ValueError(f"grade for {(query, url)} by {judge!r} must be 0/1/2, got {grade!r}")
            self._by_query.setdefault(query, {})[url] = per_judge
        self._judges = sorted({judge for per_judge in grades.values() for judge in per_judge})

    @classmethod
    def from_csv(cls, path: str | Path) -> "JudgmentSet":
        """Load ``query,url,judge,grade`` rows; bad grades and unparsable lines name their line."""
        grades: dict[tuple[str, str], dict[str, int]] = {}
        reader = csv.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
        try:
            # each row with its last physical line: a quoted field can span several
            header, rows = reader.fieldnames, [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # not a ValueError, so main would not report it
            raise ValueError(f"{path}:{reader.reader.line_num}: {exc}") from None
        required = {"query", "url", "judge", "grade"}
        if header is None or not required.issubset(header):
            raise ValueError(f"{path}: header must contain {sorted(required)}")
        for lineno, row in rows:
            try:
                grade = int(row["grade"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{lineno}: grade {row['grade']!r} is not an integer") from None
            if grade not in VALID_GRADES:
                raise ValueError(f"{path}:{lineno}: grade must be 0, 1 or 2, got {grade}")
            grades.setdefault((row["query"], row["url"]), {})[row["judge"]] = grade
        return cls(grades)

    def judges(self) -> list[str]:
        return list(self._judges)

    def query_grades(self, query: str, judge: str) -> dict[str, int]:
        """url -> grade for one (query, judge) pair, urls in first-seen order."""
        return {
            url: per_judge[judge]
            for url, per_judge in self._by_query.get(query, {}).items()
            if judge in per_judge
        }

    def graders(self, query: str) -> list[str]:
        """The judges who graded some url of ``query``, in judge order."""
        return [judge for judge in self._judges if self.query_grades(query, judge)]

    def paired_grades(
        self, judge_a: str, judge_b: str, query: str | None = None
    ) -> tuple[list[int], list[int]]:
        """Aligned grade lists over every (query, url) both judges scored,
        in (query, url) order; restricted to one query when given."""
        left, right = [], []
        for q in self.queries() if query is None else [query]:
            for _url, per_judge in sorted(self._by_query.get(q, {}).items()):
                if judge_a in per_judge and judge_b in per_judge:
                    left.append(per_judge[judge_a])
                    right.append(per_judge[judge_b])
        return left, right

    def kappas(self) -> dict[str, float]:
        """query -> kappa of the first two judges, over the queries both graded."""
        if len(self._judges) < 2:
            return {}
        pairs = {q: self.paired_grades(*self._judges[:2], query=q) for q in self.queries()}
        return {q: cohens_kappa(a, b) for q, (a, b) in pairs.items() if a}

    def queries(self) -> list[str]:
        return sorted(self._by_query)


def csv_table(reports: list[EvalReport]) -> str:
    """One ``query,method,metric,cutoff,value`` CSV of the reports, in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query", "method", "metric", "cutoff", "value"])
    for report in reports:
        for query in report.queries():
            for (metric, cutoff), value in sorted(report.values[query].items()):
                writer.writerow([query, report.method, metric, cutoff, f"{value:.12g}"])
    return buf.getvalue()


class EvalReport(Value):
    """Metric values for one method across a query set.

    ``values[query][(metric, cutoff)]`` holds P/S/NDCG scores.
    """

    def __init__(self, method: str, values: dict[str, dict[tuple[str, int], float]] | None = None):
        self.method = method
        self.values = {} if values is None else values

    def record(self, query: str, metric: str, cutoff: int, value: float) -> None:
        self.values.setdefault(query, {})[(metric, cutoff)] = value

    def score(self, query: str, ranked: list[str], gold: set[str],
              judge_grades: list[dict[str, int]]) -> None:
        """Record P and S at PRECISION_CUTOFFS against ``gold`` and NDCG at NDCG_CUTOFFS
        averaged over ``judge_grades`` (one url -> grade map per judge, in judge order)."""
        for x in PRECISION_CUTOFFS:
            self.record(query, "P", x, precision_at(ranked, gold, x))
            self.record(query, "S", x, success_at(ranked, gold, x))
        if judge_grades:
            for k in NDCG_CUTOFFS:
                scores = [ndcg_at(ranked, grades, k) for grades in judge_grades]
                self.record(query, "NDCG", k, sum(scores) / len(scores))

    def queries(self) -> list[str]:
        return sorted(self.values)

    def macro_average(self, metric: str, cutoff: int) -> float | None:
        """Mean over queries that have the metric; None when none do."""
        key = (metric, cutoff)
        found = [per_query[key] for per_query in self.values.values() if key in per_query]
        return sum(found) / len(found) if found else None

    def metric_keys(self) -> list[tuple[str, int]]:
        return sorted({key for per_query in self.values.values() for key in per_query})

    def to_csv(self) -> str:
        return csv_table([self])


def improvement_ratios(
    baseline: EvalReport, variants: list[EvalReport]
) -> dict[tuple[str, int], dict[str, float | None]]:
    """Macro-averaged variant/baseline ratio per metric.

    A zero baseline yields None (undefined), never infinity. Variants
    must cover the same query set as the baseline.
    """
    base_queries = set(baseline.queries())
    for variant in variants:
        if set(variant.queries()) != base_queries:
            raise ValueError(
                f"query sets differ between {baseline.method!r} and {variant.method!r}"
            )
    table: dict[tuple[str, int], dict[str, float | None]] = {}
    for key in baseline.metric_keys():
        base_value = baseline.macro_average(*key)
        row = table[key] = {}
        for variant in variants:
            value = variant.macro_average(*key)
            undefined = base_value in (None, 0) or value is None
            row[variant.method] = None if undefined else value / base_value
    return table
