"""Country-level coauthorship graph: construction, basic stats, subgraphs.

The graph is undirected, simple and weighted: two countries are linked when
they appear together in the affiliation country list of at least one record
inside the build window, and the edge weight counts such joint records.
Single-country records still contribute nodes, so isolated countries are
kept. A built graph is immutable by convention and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

from .countries import CountryRegistry
from .errors import DataError, UsageError
from .ingest import CoverageStats, RecordSet, coverage_stats


@dataclass(frozen=True)
class TimeWindow:
    """Inclusive year interval."""

    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise UsageError(f"window start {self.start_year} is after end {self.end_year}")

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year

    def label(self) -> str:
        return f"{self.start_year}-{self.end_year}"

    @classmethod
    def covering(cls, rs: RecordSet) -> "TimeWindow":
        span = rs.year_span()
        if span is None:
            return cls(0, 0)
        return cls(*span)


@dataclass
class NodeAttr:
    code: str
    paper_count: int | None = None
    first_year: int | None = None
    region: str | None = None


def _typed(value, kinds, what: str):
    """`value` if it is an instance of `kinds` and no bool; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{what} {value!r} has the wrong type")
    return value


class CoauthorshipGraph:
    """Undirected weighted simple graph over country codes."""

    def __init__(self, nodes, edges, window: TimeWindow):
        self.window = window
        self._nodes: dict[str, NodeAttr] = {}
        for attr in sorted(nodes, key=lambda a: a.code):
            if attr.code in self._nodes:
                raise DataError(f"duplicate node {attr.code}")
            self._nodes[attr.code] = attr
        self._adj: dict[str, dict[str, int]] = {code: {} for code in self._nodes}
        self._m = 0
        for a, b, w in sorted(edges):
            if a == b:
                raise DataError(f"self-loop on {a}")
            if a not in self._nodes or b not in self._nodes:
                raise DataError(f"edge {a}-{b} references a missing node")
            if not isinstance(w, int) or w < 1:
                raise DataError(f"edge {a}-{b} weight {w!r} must be a positive integer")
            if b in self._adj[a]:
                raise DataError(f"duplicate edge {a}-{b}")
            self._adj[a][b] = w
            self._adj[b][a] = w
            self._m += 1

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return self._m

    def codes(self) -> list[str]:
        return list(self._nodes)

    def has_node(self, code: str) -> bool:
        return code in self._nodes

    def node(self, code: str) -> NodeAttr:
        return self._nodes[code]

    def degree(self, code: str) -> int:
        return len(self._adj[code])

    def degrees(self) -> dict[str, int]:
        return {code: len(nbrs) for code, nbrs in self._adj.items()}

    def neighbors(self, code: str) -> list[str]:
        return sorted(self._adj[code])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def weight(self, a: str, b: str) -> int:
        return self._adj[a][b]

    def edges(self) -> list[tuple[str, str, int]]:
        """Edges as (a, b, weight) with a < b, sorted."""
        return [(a, b, w) for a, nbrs in self._adj.items() for b, w in sorted(nbrs.items()) if a < b]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoauthorshipGraph):
            return NotImplemented
        return (
            self.window == other.window
            and self._nodes == other._nodes
            and self.edges() == other.edges()
        )

    def to_dict(self) -> dict:
        return {
            "window": {"start_year": self.window.start_year, "end_year": self.window.end_year},
            "nodes": [
                {
                    "code": a.code,
                    "paper_count": a.paper_count,
                    "first_year": a.first_year,
                    "region": a.region,
                }
                for a in self._nodes.values()
            ],
            "edges": [[a, b, w] for a, b, w in self.edges()],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CoauthorshipGraph":
        try:
            window = TimeWindow(
                _typed(doc["window"]["start_year"], int, "window start_year"),
                _typed(doc["window"]["end_year"], int, "window end_year"),
            )
            nodes = [
                NodeAttr(
                    code=_typed(nd["code"], str, "node code"),
                    paper_count=_typed(nd.get("paper_count"), (int, type(None)), "node paper_count"),
                    first_year=_typed(nd.get("first_year"), (int, type(None)), "node first_year"),
                    region=_typed(nd.get("region"), (str, type(None)), "node region"),
                )
                for nd in doc["nodes"]
            ]
            edges = [
                (_typed(a, str, "edge endpoint"), _typed(b, str, "edge endpoint"), _typed(w, int, "edge weight"))
                for a, b, w in doc["edges"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed graph document: {exc}") from exc
        return cls(nodes, edges, window)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CoauthorshipGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid graph JSON: {exc.msg}") from exc
        return cls.from_dict(doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CoauthorshipGraph":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def graph_from_edges(edges, nodes=None, window: TimeWindow | None = None) -> CoauthorshipGraph:
    """Build a graph directly from an edge list (weights default to 1).

    Convenience for synthetic graphs; node attributes beyond the code are
    left unset.
    """
    norm = []
    for edge in edges:
        if len(edge) == 2:
            a, b = edge
            w = 1
        else:
            a, b, w = edge
        if a == b:
            raise DataError(f"self-loop on {a}")
        a, b = (a, b) if a < b else (b, a)
        norm.append((a, b, w))
    codes = set(nodes or [])
    codes.update(a for a, _, _ in norm)
    codes.update(b for _, b, _ in norm)
    attrs = [NodeAttr(code=c) for c in sorted(codes)]
    return CoauthorshipGraph(attrs, norm, window or TimeWindow(0, 0))


class ResolvedCorpus:
    """A record set resolved against a registry once and bucketed by year.

    Each distinct raw name is resolved once. The corpus keeps every
    country's first year over the whole corpus (so grouping by entry year is
    stable across windows), the per-occurrence tally of names the registry
    cannot resolve, and per-year paper counts and pair weights. The graph of
    any window is the sum of the year buckets it contains.
    """

    def __init__(self, rs: RecordSet, registry: CountryRegistry):
        self.rs = rs
        self.registry = registry
        self.first_year: dict[str, int] = {}
        self.unknown: dict[str, int] = {}
        self._years: dict[int, tuple[dict[str, int], dict[tuple[str, str], int]]] = {}
        resolved: dict[str, str | None] = {}
        for record in rs.records:
            found = set()
            for raw in record.raw_countries:
                if raw not in resolved:
                    entry = registry.resolve(raw)
                    resolved[raw] = entry.code if entry else None
                if resolved[raw] is None:
                    self.unknown[raw] = self.unknown.get(raw, 0) + 1
                else:
                    found.add(resolved[raw])
            counts, weights = self._years.setdefault(record.year, ({}, {}))
            codes = sorted(found)
            for code in codes:
                counts[code] = counts.get(code, 0) + 1
                if code not in self.first_year or record.year < self.first_year[code]:
                    self.first_year[code] = record.year
            for pair in combinations(codes, 2):
                weights[pair] = weights.get(pair, 0) + 1

    @cached_property
    def coverage(self) -> CoverageStats:
        """Affiliation coverage of the records, with the tally of unresolved names."""
        return coverage_stats(self.rs, self.unknown)

    def _buckets(self, window: TimeWindow):
        """The (paper counts, pair weights) buckets of the years inside the window."""
        return [bucket for year, bucket in self._years.items() if window.contains(year)]

    def size(self, window: TimeWindow) -> tuple[int, int]:
        """(n, m) of the window's graph, counted without building it."""
        nodes: set[str] = set()
        links: set[tuple[str, str]] = set()
        for counts, pairs in self._buckets(window):
            nodes.update(counts)
            links.update(pairs)
        return len(nodes), len(links)

    def graph(self, window: TimeWindow | None = None) -> CoauthorshipGraph:
        """The coauthorship graph of the records inside the window.

        Every in-window record contributes +1 to the paper count of each
        distinct resolved country it lists, and +1 weight to every pair among
        them; unresolvable names are dropped. The default window covers the
        whole corpus.
        """
        if window is None:
            window = TimeWindow.covering(self.rs)
        paper_count: dict[str, int] = {}
        weights: dict[tuple[str, str], int] = {}
        for counts, pairs in self._buckets(window):
            for code, count in counts.items():
                paper_count[code] = paper_count.get(code, 0) + count
            for pair, w in pairs.items():
                weights[pair] = weights.get(pair, 0) + w
        nodes = [
            NodeAttr(
                code=code,
                paper_count=count,
                first_year=self.first_year[code],
                region=self.registry.get(code).region,
            )
            for code, count in paper_count.items()
        ]
        edges = [(a, b, w) for (a, b), w in weights.items()]
        return CoauthorshipGraph(nodes, edges, window)


def build_network(
    rs: RecordSet,
    registry: CountryRegistry,
    window: TimeWindow | None = None,
) -> CoauthorshipGraph:
    """Build the coauthorship graph for records inside the window (see ResolvedCorpus)."""
    return ResolvedCorpus(rs, registry).graph(window)


@dataclass
class BasicStats:
    n: int
    m: int
    density: float
    mean_degree: float
    max_degree: int
    max_degree_codes: list[str]
    degree: dict[str, int]


def basic_stats(g: CoauthorshipGraph) -> BasicStats:
    """Node/link counts, density 2m/(n(n-1)), mean and max degree."""
    degree = g.degrees()
    n, m = g.n, g.m
    density = (2 * m) / (n * (n - 1)) if n >= 2 else 0.0
    mean_degree = (2 * m) / n if n else 0.0
    max_degree = max(degree.values(), default=0)
    argmax = sorted(c for c, d in degree.items() if d == max_degree) if n else []
    return BasicStats(
        n=n,
        m=m,
        density=density,
        mean_degree=mean_degree,
        max_degree=max_degree,
        max_degree_codes=argmax,
        degree=degree,
    )


def induced_subgraph(g: CoauthorshipGraph, keep) -> CoauthorshipGraph:
    """Subgraph on `keep`: kept nodes, edges with both endpoints kept."""
    keep = set(keep)
    unknown = keep - set(g.codes())
    if unknown:
        raise UsageError(f"unknown codes in keep set: {sorted(unknown)}")
    nodes = [g.node(c) for c in sorted(keep)]
    edges = [(a, b, w) for a, b, w in g.edges() if a in keep and b in keep]
    return CoauthorshipGraph(nodes, edges, g.window)
