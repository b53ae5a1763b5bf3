"""Run configuration: crawl/PageRank/fusion parameters plus fixture paths.

Configs load from a JSON file; relative paths inside it resolve against
the file's own directory, so a fixture bundle can be checked out anywhere.
A config without ``weights`` or ``engines`` uses the reference set-up: the
six-source weight split and the five reference engine confidences.
A config that does not parse or type-check raises :class:`ConfigError`
naming the file and the key path, e.g. ``config.json: crawl.hop_bound:
expected int, got 'x'``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._value import FrozenValue, Value, as_dict, fields
from .centrality import PageRankParams
from .expand import KNOWLEDGE_SOURCES, THESAURUS_SOURCES
from .ingest import CrawlConfig
# Re-exported from text: benchmark/workloads.py imports them from here.
from .text import BASIC_QUERIES, query_slug

__all__ = [
    "ConfigError",
    "RunConfig",
    "EngineConfig",
    "KnowledgeWeights",
    "DEFAULT_ENGINES",
    "SIX_SOURCE_WEIGHTS",
    "BASIC_QUERIES",
    "query_slug",
]

class EngineConfig(FrozenValue):
    def __init__(self, engine_id: str, confidence: int):
        super().__init__(engine_id, confidence)
        if self.confidence <= 0:
            raise ValueError(f"engine confidence must be > 0, got {self.confidence}")


class KnowledgeWeights(FrozenValue):
    """Per-source weights used when fusing expanded-query result lists."""

    def __init__(self, degree: int = 0, closeness: int = 0, pagerank: int = 0,
                 wordnet: int = 0, wikisynonyms: int = 0, moby: int = 0):
        super().__init__(degree, closeness, pagerank, wordnet, wikisynonyms, moby)
        values = self.as_map().values()
        if any(w < 0 for w in values):
            raise ValueError("knowledge weights must be >= 0")
        if not any(values):
            raise ValueError("at least one knowledge weight must be > 0")

    def as_map(self) -> dict[str, int]:
        return {source: getattr(self, source) for source in KNOWLEDGE_SOURCES}


# The reference set-up: the five fixture engine ids with their confidence
# values, and the six-source weight split.
DEFAULT_ENGINES = [
    EngineConfig("google", 30),
    EngineConfig("lycos", 25),
    EngineConfig("bing", 20),
    EngineConfig("ask", 15),
    EngineConfig("exalead", 10),
]
SIX_SOURCE_WEIGHTS = KnowledgeWeights(
    degree=30, closeness=20, pagerank=20, wordnet=10, wikisynonyms=10, moby=10
)


class ConfigError(ValueError):
    """A run config that does not parse or type-check; names the key path,
    and the file when the config came from :meth:`RunConfig.load`."""


# JSON value types accepted for each annotated field type (bools excluded).
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _check(value, expected: str, where: str):
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[expected]):
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return value


def _object(value, where: str, keys=None) -> dict:
    """``value`` if it is a JSON object holding no key outside ``keys``;
    ``where`` is its key path, empty for the whole config."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected object, got {value!r}" if where
                          else f"expected object, got {value!r}")
    for key in value if keys is not None else ():
        if key not in keys:
            key = key if key.isprintable() else repr(key)  # a line break would split the error
            raise ConfigError(f"{where}.{key}: unknown key" if where else f"{key}: unknown key")
    return value


def _section(cls, data, where: str):
    """Build the value type ``cls`` from a JSON object: its keys are the
    parameters of ``cls.__init__``, each of the JSON type its annotation
    names, and those without a default are required."""
    init = cls.__init__
    names = fields(cls)
    for key, value in _object(data, where, names).items():
        _check(value, init.__annotations__[key], f"{where}.{key}")
    for name in names[:len(names) - len(init.__defaults__ or ())]:
        if name not in data:
            raise ConfigError(f"{where}.{name}: missing")
    try:
        return cls(**data)
    except ValueError as exc:  # a range check in __init__
        raise ConfigError(f"{where}: {exc}") from None


class RunConfig(Value):
    def __init__(
        self,
        crawl: CrawlConfig = CrawlConfig(),
        pagerank: PageRankParams = PageRankParams(),
        weights: KnowledgeWeights = SIX_SOURCE_WEIGHTS,
        engines: list[EngineConfig] | None = None,  # None: a copy of DEFAULT_ENGINES
        snapshot_dir: Path | None = None,
        serp_dir: Path | None = None,
        dictionaries: dict[str, Path] | None = None,  # None: a new empty dict
        stopwords_path: Path | None = None,
        output_dir: Path = Path("out"),
        seed: int = 0,
    ):
        self.crawl = crawl
        self.pagerank = pagerank
        self.weights = weights
        self.engines = list(DEFAULT_ENGINES) if engines is None else engines
        self.snapshot_dir = snapshot_dir
        self.serp_dir = serp_dir
        self.dictionaries = {} if dictionaries is None else dictionaries
        self.stopwords_path = stopwords_path
        self.output_dir = output_dir
        self.seed = seed

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "crawl": as_dict(self.crawl),
            "pagerank": as_dict(self.pagerank),
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
        _object(data, "", ("crawl", "pagerank", "weights", "engines", "paths", "seed"))
        paths = _object(data.get("paths", {}), "paths",
                        ("snapshot_dir", "serp_dir", "dictionaries", "stopwords", "output_dir"))

        def resolve(key, value):
            if value is None:
                return None
            p = Path(_check(value, "str", key))
            return p if p.is_absolute() else base / p

        engines = data.get("engines")
        if engines is not None and not isinstance(engines, list):
            raise ConfigError(f"engines: expected list, got {engines!r}")
        dictionaries = _object(paths.get("dictionaries", {}), "paths.dictionaries", THESAURUS_SOURCES)
        config = cls(
            crawl=_section(CrawlConfig, data.get("crawl", {}), "crawl"),
            pagerank=_section(PageRankParams, data.get("pagerank", {}), "pagerank"),
            weights=(_section(KnowledgeWeights, data["weights"], "weights") if "weights" in data
                     else SIX_SOURCE_WEIGHTS),
            engines=(list(DEFAULT_ENGINES) if engines is None
                     else [_section(EngineConfig, e, f"engines[{i}]") for i, e in enumerate(engines)]),
            snapshot_dir=resolve("paths.snapshot_dir", paths.get("snapshot_dir")),
            serp_dir=resolve("paths.serp_dir", paths.get("serp_dir")),
            dictionaries={k: resolve(f"paths.dictionaries.{k}", v) for k, v in dictionaries.items()},
            stopwords_path=resolve("paths.stopwords", paths.get("stopwords")),
            output_dir=resolve("paths.output_dir", paths.get("output_dir")) or Path("out"),
            seed=_check(data.get("seed", 0), "int", "seed"),
        )
        config.validate_paths()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            return cls.from_dict(json.loads(path.read_text(encoding="utf-8-sig")), base=path.parent)
        except (ValueError, RecursionError) as exc:  # bad or too deep JSON, bad UTF-8, ConfigError
            raise ConfigError(f"{path}: {exc}") from None
        except FileNotFoundError as exc:  # the config file, or a path it names
            if exc.filename is not None:  # the config file: the OS error names it
                raise
            raise FileNotFoundError(f"{path}: {exc}") from None

    def validate_paths(self) -> None:
        """Input paths must exist when configured (output_dir is created)."""
        checks = [("snapshot_dir", self.snapshot_dir), ("serp_dir", self.serp_dir),
                  ("stopwords", self.stopwords_path)]
        checks += [(f"dictionaries.{name}", p) for name, p in self.dictionaries.items()]
        for label, p in checks:
            if p is not None and not Path(p).exists():
                raise FileNotFoundError(f"configured path {label} does not exist: {p}")
