"""Run configuration: crawl/PageRank/fusion parameters plus fixture paths.

Configs load from a JSON file; relative paths inside it resolve against
the file's own directory, so a fixture bundle can be checked out anywhere.
Two weight presets ship: "paper" (the six-source reference split with the
five reference engine confidences) and "tuned" (graph-only 20-30-20).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .centrality import PageRankParams
from .fusion import (
    DEFAULT_ENGINES,
    SIX_SOURCE_WEIGHTS,
    GRAPH_TUNED_WEIGHTS,
    EngineConfig,
    KnowledgeWeights,
)
from .ingest import CrawlConfig

__all__ = ["RunConfig", "BASIC_QUERIES", "benchmark_queries", "query_slug"]

# The ten basic multi-domain benchmark queries (five two-term, five
# three-term); benchmark_queries() expands them with operator joins.
BASIC_QUERIES = [
    "database overlap",
    "multilingual OPACs",
    "programming algorithm",
    "roadmap plan",
    "adolescent alcoholism",
    "comparative education methodology",
    "java applet programming",
    "indexing digital libraries",
    "geographical stroke incidence",
    "culturally responsive teaching",
]


def benchmark_queries() -> list[str]:
    """Expand each basic query three ways: plain, AND-joined, OR-joined."""
    queries = []
    for basic in BASIC_QUERIES:
        tokens = basic.split()
        queries.append(" ".join(tokens))
        queries.append(" and ".join(tokens))
        queries.append(" or ".join(tokens))
    return queries


def query_slug(query: str) -> str:
    """Filesystem-safe identifier for a query."""
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in query.casefold())
    return "_".join(filter(None, cleaned.split("_")))


@dataclass
class RunConfig:
    crawl: CrawlConfig = field(default_factory=CrawlConfig)
    pagerank: PageRankParams = field(default_factory=PageRankParams)
    weights: KnowledgeWeights = SIX_SOURCE_WEIGHTS
    engines: list[EngineConfig] = field(default_factory=lambda: list(DEFAULT_ENGINES))
    snapshot_dir: Path | None = None
    serp_dir: Path | None = None
    dictionaries: dict[str, Path] = field(default_factory=dict)
    stopwords_path: Path | None = None
    output_dir: Path = Path("out")
    seed: int = 0

    def apply_preset(self, name: str) -> None:
        if name == "paper":
            self.weights = SIX_SOURCE_WEIGHTS
        elif name == "tuned":
            self.weights = GRAPH_TUNED_WEIGHTS
        else:
            raise ValueError(f"unknown preset {name!r} (expected 'paper' or 'tuned')")

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "crawl": asdict(self.crawl),
            "pagerank": asdict(self.pagerank),
            "weights": self.weights.as_map(),
            "engines": [
                {"engine_id": e.engine_id, "confidence": e.confidence} for e in self.engines
            ],
            "paths": {
                "snapshot_dir": str(self.snapshot_dir) if self.snapshot_dir else None,
                "serp_dir": str(self.serp_dir) if self.serp_dir else None,
                "dictionaries": {k: str(v) for k, v in self.dictionaries.items()},
                "stopwords": str(self.stopwords_path) if self.stopwords_path else None,
                "output_dir": str(self.output_dir),
            },
            "seed": self.seed,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict, base: Path | None = None) -> "RunConfig":
        base = base or Path(".")

        def resolve(value):
            if value is None:
                return None
            p = Path(value)
            return p if p.is_absolute() else base / p

        paths = data.get("paths", {})
        engines = data.get("engines")
        config = cls(
            crawl=CrawlConfig(**data.get("crawl", {})),
            pagerank=PageRankParams(**data.get("pagerank", {})),
            weights=(KnowledgeWeights(**data["weights"]) if "weights" in data
                     else SIX_SOURCE_WEIGHTS),
            engines=(list(DEFAULT_ENGINES) if engines is None
                     else [EngineConfig(**e) for e in engines]),
            snapshot_dir=resolve(paths.get("snapshot_dir")),
            serp_dir=resolve(paths.get("serp_dir")),
            dictionaries={k: resolve(v) for k, v in paths.get("dictionaries", {}).items()},
            stopwords_path=resolve(paths.get("stopwords")),
            output_dir=resolve(paths.get("output_dir")) or Path("out"),
            seed=data.get("seed", 0),
        )
        config.validate_paths()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or text that is not UTF-8
            raise ValueError(f"{path}: {exc}") from None
        return cls.from_dict(data, base=path.parent)

    def validate_paths(self) -> None:
        """Input paths must exist when configured (output_dir is created)."""
        checks = [("snapshot_dir", self.snapshot_dir), ("serp_dir", self.serp_dir),
                  ("stopwords", self.stopwords_path)]
        checks += [(f"dictionaries.{name}", p) for name, p in self.dictionaries.items()]
        for label, p in checks:
            if p is not None and not Path(p).exists():
                raise FileNotFoundError(f"configured path {label} does not exist: {p}")
