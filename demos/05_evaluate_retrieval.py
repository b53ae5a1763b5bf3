"""Score retrieval runs: P@x, S@x, NDCG with graded judgments, kappa.

Runs are ranked URL lists per (query, method); the gold standard is the
fused pseudo-relevant set. Graded human judgments add NDCG and the
inter-judge agreement check, and improvement ratios compare methods
against a no-expansion baseline.
"""

from pathlib import Path

from wikiqe import (
    EvalReport,
    JudgmentSet,
    cohens_kappa,
    improvement_ratios,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
query = "adolescent alcoholism"

judgments = JudgmentSet.from_csv(FIXTURES / "judgments.csv")
print(f"judges: {judgments.judges()}")

grades_j1 = judgments.query_grades(query, "j1")
grades_j2 = judgments.query_grades(query, "j2")
a, b = judgments.paired_grades("j1", "j2", query=query)
print(f"inter-judge agreement (kappa) on {len(a)} documents: {cohens_kappa(a, b):.3f}\n")

# Treat the judged URLs (in judged order) as the gold run and build a
# weaker baseline run that buries two relevant documents.
gold_run = list(grades_j1)
baseline_run = gold_run[3:] + gold_run[:3]
gold_set = {url for url, grade in grades_j1.items() if grade > 0}

methods = {"graph": gold_run, "noqe": baseline_run}
reports = {}
for method, ranked in methods.items():
    reports[method] = EvalReport(method=method)
    reports[method].score(query, ranked, gold_set, [grades_j1, grades_j2])

for method, report in reports.items():
    print(f"method {method!r}:")
    for (metric, cutoff), value in sorted(report.values[query].items()):
        print(f"  {metric}@{cutoff:<3} = {value:.4f}")

ratios = improvement_ratios(reports["noqe"], [reports["graph"]])
print("\nimprovement over the no-expansion baseline:")
for (metric, cutoff), row in sorted(ratios.items()):
    value = row["graph"]
    shown = "undefined" if value is None else f"{value:.2f}"
    print(f"  {metric}@{cutoff}: {shown}")

print("\nreport CSV head:")
for line in reports["graph"].to_csv().splitlines()[:4]:
    print(f"  {line}")
