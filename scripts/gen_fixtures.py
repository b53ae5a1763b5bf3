#!/usr/bin/env python3
"""Regenerate the offline fixture bundle under fixtures/.

Everything is seeded, so reruns produce byte-identical files. The bundle
contains a small article snapshot (the crawl cache format), recorded SERP
files for the five fixture engines, three synonym dictionaries, a
two-judge judgment file, the 30 benchmark queries and a ready-to-use
run config pointing at all of the above.
"""

import json
import random
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from wikiqe.centrality import build_table  # noqa: E402
from wikiqe.config import DEFAULT_ENGINES, SIX_SOURCE_WEIGHTS, RunConfig  # noqa: E402
from wikiqe.fusion import gold_variants, serp_fixture_name  # noqa: E402
from wikiqe.ingest import CrawlConfig, PageCache, PageRecord, WikiSource, search_key  # noqa: E402
from wikiqe.text import BASIC_QUERIES, benchmark_queries  # noqa: E402

FIXTURES = REPO / "fixtures"
SERP_LENGTH = 200

# ---------------------------------------------------------------------------
# snapshot: the "adolescent alcoholism" neighborhood
# ---------------------------------------------------------------------------

YOUTH = "alcohol consumption by youth in the united states"

ADOLESCENT_PAGES = {
    "alcoholism": ["substance abuse", "ethanol", "alcoholism in family systems"],
    YOUTH: ["binge drinking", "alcoholic beverage", "substance abuse", "public health"],
    "adolescence": ["puberty", "youth culture"],
    "binge drinking": ["alcoholic beverage", "alcohol intoxication", "ethanol"],
    "alcoholism in family systems": ["alcoholism"],
    "alcoholic beverage": [
        "ethanol", "alcohol intoxication", "legal drinking age",
        "dmoz", "stereotype", "disability-adjusted life year",
    ],
    "substance abuse": ["cocaine addiction", "addiction", "self-medication", "public health"],
    "public health": ["disability-adjusted life year", "dmoz"],
    "ethanol": ["alcohol intoxication"],
    "alcohol intoxication": ["alcohol withdrawal syndrome"],
    "alcohol withdrawal syndrome": ["benzodiazepine", "physical dependence"],
    "cocaine addiction": ["addiction"],
    "addiction": ["addictive personality", "physical dependence"],
    "self-medication": ["benzodiazepine"],
    "puberty": [],
    "youth culture": [],
    "legal drinking age": [],
    "dmoz": [],
    "stereotype": [],
    "disability-adjusted life year": [],
    "benzodiazepine": [],
    "physical dependence": [],
    "addictive personality": [],
}

ADOLESCENT_SEARCH = [
    "alcoholism",
    YOUTH,
    "adolescence",
    "binge drinking",
    "alcoholism in family systems",
]

# Generic small clusters for the remaining nine basic queries, enough for
# the benchmark command to expand every generated query offline.
TOPIC_NODES = {
    "database overlap": [
        "data integration", "record linkage", "data deduplication",
        "schema matching", "federated database system", "information retrieval",
    ],
    "multilingual OPACs": [
        "online public access catalog", "library catalog", "machine translation",
        "cross-language information retrieval", "metadata", "unicode",
    ],
    "programming algorithm": [
        "coding theory", "computer program", "data structure",
        "computational complexity theory", "pseudocode", "sorting algorithm",
    ],
    "roadmap plan": [
        "technology roadmap", "strategic planning", "project management",
        "milestone (project management)", "gantt chart", "product lifecycle",
    ],
    "comparative education methodology": [
        "comparative education", "educational research", "case study",
        "quantitative research", "qualitative research", "curriculum studies",
    ],
    "java applet programming": [
        "java (programming language)", "java applet", "java virtual machine",
        "web browser", "bytecode", "sandbox (computer security)",
    ],
    "indexing digital libraries": [
        "digital library", "search engine indexing", "metadata",
        "information retrieval", "dublin core", "full-text search",
    ],
    "geographical stroke incidence": [
        "health geography", "epidemiology", "stroke belt",
        "cerebrovascular disease", "disease cluster", "incidence (epidemiology)",
    ],
    "culturally responsive teaching": [
        "multicultural education", "pedagogy", "educational equity",
        "student engagement", "culturally relevant teaching", "inclusion (education)",
    ],
}


def build_snapshot() -> None:
    snapshot = FIXTURES / "snapshot"
    cache = PageCache(snapshot)
    cache.put_search(search_key("adolescent alcoholism"), ADOLESCENT_SEARCH)
    for title, links in ADOLESCENT_PAGES.items():
        cache.put_page(PageRecord(
            title=title, outlinks=links, fetched_at=1500000000.0, source="snapshot",
        ))
    for basic, nodes in TOPIC_NODES.items():
        root = nodes[0]
        cache.put_search(search_key(basic), [root])
        hub_links = nodes[1:] + [f"{basic.split()[0].casefold()} studies"]
        cache.put_page(PageRecord(
            title=root, outlinks=hub_links, fetched_at=1500000000.0, source="snapshot",
        ))
        for i, node in enumerate(nodes[1:]):
            targets = [nodes[(i + 2) % len(nodes)]] if i % 2 == 0 else []
            cache.put_page(PageRecord(
                title=node, outlinks=targets, fetched_at=1500000000.0, source="snapshot",
            ))
    print(f"snapshot: {len(list((snapshot / 'pages').glob('*.json')))} pages")


# ---------------------------------------------------------------------------
# synonym dictionaries
# ---------------------------------------------------------------------------

WORDNET = {
    "adolescent": ["stripling", "teenage", "young person"],
    "alcoholism": ["alcohol", "dipsomania", "drink"],
    "database": ["data bank", "information store"],
    "overlap": ["convergence", "intersection"],
    "multilingual": ["polyglot"],
    "opacs": ["catalog", "catalogue"],
    "programming": ["programing", "coding"],
    "algorithm": ["algorithmic rule", "formula"],
    "roadmap": ["guide", "plan of action"],
    "plan": ["program", "design"],
    "comparative": ["relative"],
    "education": ["instruction", "pedagogy"],
    "methodology": ["method", "procedure"],
    "java": ["coffee"],
    "applet": ["widget"],
    "indexing": ["categorization"],
    "digital": ["numeric", "electronic"],
    "libraries": ["depository", "collection"],
    "geographical": ["geographic"],
    "stroke": ["apoplexy", "cerebrovascular accident"],
    "incidence": ["relative incidence", "frequency"],
    "culturally": ["ethnically"],
    "responsive": ["reactive"],
    "teaching": ["instruction", "didactics"],
}

WIKISYNONYMS = {
    "adolescent": ["adolescence", "teenager"],
    "alcoholism": ["alcoholic", "alcohol dependence"],
    "database": ["data store", "dbms"],
    "overlap": ["intersection theory"],
    "multilingual": ["multilingualism"],
    "opacs": ["online catalog"],
    "programming": ["computer programming", "software development"],
    "algorithm": ["algorithmics"],
    "roadmap": ["technology roadmap"],
    "plan": ["planning"],
    "comparative": ["comparative method"],
    "education": ["learning"],
    "methodology": ["research design"],
    "java": ["java platform"],
    "applet": ["java applet"],
    "indexing": ["subject indexing"],
    "digital": ["digitization"],
    "libraries": ["library science"],
    "geographical": ["geography"],
    "stroke": ["cerebrovascular"],
    "incidence": ["prevalence"],
    "culturally": ["cultural"],
    "responsive": ["responsiveness"],
    "teaching": ["teacher education"],
}

MOBY = {
    "adolescent": ["juvenal", "minor", "youth", "teener", "young blood"],
    "alcoholism": ["drug", "dipsomania", "problem drinking", "grog blossom"],
    "database": ["records", "register", "archive"],
    "overlap": ["overlay", "imbrication", "lap over"],
    "multilingual": ["polyglot", "bilingual"],
    "opacs": ["listing", "registry"],
    "programming": ["scheduling", "planning", "codification"],
    "algorithm": ["mapping", "formula", "rule"],
    "roadmap": ["chart", "itinerary", "blueprint"],
    "plan": ["scheme", "design", "strategy"],
    "comparative": ["relative", "analogical"],
    "education": ["schooling", "tuition", "edification"],
    "methodology": ["system", "procedure", "routineness"],
    "java": ["mocha", "brew"],
    "applet": ["gadget", "doohickey"],
    "indexing": ["tabulation", "cataloging"],
    "digital": ["numeral", "binary"],
    "libraries": ["athenaeum", "bookroom"],
    "geographical": ["topographic", "regional"],
    "stroke": ["shot", "blow", "seizure"],
    "incidence": ["frequency", "rate", "routineness"],
    "culturally": ["socially"],
    "responsive": ["reactive", "sensitive"],
    "teaching": ["tutelage", "instruction", "guidance"],
}


DICTIONARIES = {"wordnet": WORDNET, "wikisynonyms": WIKISYNONYMS, "moby": MOBY}


def dump_dictionary(path: Path, entries: dict) -> None:
    lines = [f"{head}: {', '.join(syns)}" for head, syns in sorted(entries.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_dictionaries() -> None:
    dicts = FIXTURES / "dicts"
    dicts.mkdir(parents=True, exist_ok=True)
    for name, entries in DICTIONARIES.items():
        dump_dictionary(dicts / f"{name}.txt", entries)
    print(f"dictionaries: {', '.join(DICTIONARIES)}")


# ---------------------------------------------------------------------------
# SERP fixtures
# ---------------------------------------------------------------------------

DOMAINS = [
    "en.wikipedia.org", "www.niaaa.nih.gov", "pubmed.ncbi.nlm.nih.gov",
    "www.cdc.gov", "www.who.int", "www.ncbi.nlm.nih.gov", "jamanetwork.com",
    "www.sciencedirect.com", "link.springer.com", "academic.oup.com",
    "www.healthline.com", "www.mayoclinic.org", "www.webmd.com",
    "www.samhsa.gov", "www.drugabuse.gov", "onlinelibrary.wiley.com",
    "www.bmj.com", "www.thelancet.com", "journals.plos.org", "www.jstor.org",
]


def url_pool(rng: random.Random, size: int = 300) -> list[str]:
    slugs = [
        "alcohol-use", "underage-drinking", "binge-drinking", "alcohol-health",
        "substance-abuse", "addiction-treatment", "public-health", "ethanol",
        "youth-risk", "prevention", "screening", "family-systems", "dependence",
        "withdrawal", "epidemiology", "teen-drinking", "intervention", "policy",
    ]
    pool = []
    seen = set()
    while len(pool) < size:
        domain = rng.choice(DOMAINS)
        slug = rng.choice(slugs)
        url = f"https://{domain}/{slug}-{rng.randint(1, 999)}"
        if url not in seen:
            seen.add(url)
            pool.append(url)
    return pool


def adolescent_variants() -> dict[str, str]:
    """The six expanded gold queries, computed through the real pipeline."""
    source = WikiSource(PageCache(FIXTURES / "snapshot"))
    config = CrawlConfig(hop_bound=3)
    graph = source.build_graph("adolescent alcoholism", config)
    best = graph.select_best_concept()
    table = build_table(best)
    dictionaries = {name: FIXTURES / "dicts" / f"{name}.txt" for name in DICTIONARIES}
    return gold_variants(table, "adolescent alcoholism", SIX_SOURCE_WEIGHTS, dictionaries)


def build_serps(variants: dict[str, str]) -> None:
    serp_dir = FIXTURES / "serp"
    serp_dir.mkdir(parents=True, exist_ok=True)
    pool_rng = random.Random(1203)
    pool = url_pool(pool_rng)
    count = 0
    for engine in DEFAULT_ENGINES:
        for source_name, variant in sorted(variants.items()):
            rng = random.Random(f"{engine.engine_id}|{source_name}")
            urls = rng.sample(pool, SERP_LENGTH)
            payload = {
                "engine": engine.engine_id,
                "query": variant,
                "results": [
                    {"rank": i, "url": url, "title": f"{source_name} result {i}"}
                    for i, url in enumerate(urls, start=1)
                ],
            }
            name = serp_fixture_name(engine.engine_id, variant)
            (serp_dir / name).write_text(
                json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
            )
            count += 1
    print(f"serp: {count} files x {SERP_LENGTH} entries")
    manifest = {v: serp_fixture_name("<engine>", v) for v in variants.values()}
    (serp_dir / "QUERIES.txt").write_text(
        "".join(f"{q}\n" for q in sorted(manifest)), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# judgments, queries, config
# ---------------------------------------------------------------------------

def build_judgments(variants: dict[str, str]) -> None:
    """Two judges over the top gold URLs for the reference query."""
    from wikiqe.fusion import FixtureEngineAdapter, run_mse

    adapter = FixtureEngineAdapter(FIXTURES / "serp")
    outcome = run_mse(adapter, variants, DEFAULT_ENGINES, SIX_SOURCE_WEIGHTS, cap=SERP_LENGTH)
    top = outcome.fused.urls()[:10]
    judge_one = [2, 2, 2, 1, 2, 1, 1, 0, 1, 0]
    judge_two = [2, 2, 1, 1, 2, 1, 0, 0, 1, 1]
    lines = ["query,url,judge,grade"]
    for url, g1, g2 in zip(top, judge_one, judge_two):
        lines.append(f"adolescent alcoholism,{url},j1,{g1}")
        lines.append(f"adolescent alcoholism,{url},j2,{g2}")
    (FIXTURES / "judgments.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("judgments: 10 urls x 2 judges")


def build_queries_and_config() -> None:
    (FIXTURES / "queries.txt").write_text(
        "".join(q + "\n" for q in benchmark_queries()), encoding="utf-8"
    )
    config = RunConfig(
        snapshot_dir=Path("snapshot"),
        serp_dir=Path("serp"),
        dictionaries={name: Path(f"dicts/{name}.txt") for name in DICTIONARIES},
        output_dir=Path("out"),
        seed=0,
    )
    config.save(FIXTURES / "config.json")
    print(f"queries: {len(benchmark_queries())}; config: fixtures/config.json")


def main() -> None:
    if FIXTURES.exists():
        shutil.rmtree(FIXTURES)
    FIXTURES.mkdir(parents=True)
    build_snapshot()
    build_dictionaries()
    variants = adolescent_variants()
    build_serps(variants)
    build_judgments(variants)
    build_queries_and_config()
    print(f"basic queries covered: {len(BASIC_QUERIES)}")


if __name__ == "__main__":
    main()
