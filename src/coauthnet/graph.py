"""Country-level coauthorship graph: the resolved corpus (it holds the year
buckets, not the records), graph construction, subgraphs.

The graph is undirected, simple and weighted: two countries are linked when
they appear together in the affiliation country list of at least one record
inside the build window, and the edge weight counts such joint records.
Single-country records still contribute nodes, so isolated countries are
kept. A built graph is immutable by convention and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import permutations
from pathlib import Path

from .countries import REGIONS, CountryRegistry, is_country_code
from .errors import DataError, UsageError, read_json
from .ingest import YEAR_MAX, YEAR_MIN, CoverageStats, RecordSet, coverage_stats


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


def _counts(value, what: str) -> dict[str, int]:
    """A JSON object of int counts, each at least 1; TypeError or ValueError otherwise."""
    counts = {key: _typed(n, int, f"{what} count") for key, n in _typed(value, dict, f"{what} counts").items()}
    if min(counts.values(), default=1) < 1:
        raise ValueError(f"{what} counts must be >= 1")
    return counts


def _node_from_dict(nd: dict) -> NodeAttr:
    """A graph.json node; ValueError for a malformed code, a negative paper count
    or an unknown region."""
    attr = NodeAttr(
        code=_typed(nd["code"], str, "node code"),
        paper_count=_typed(nd.get("paper_count"), (int, type(None)), "node paper_count"),
        first_year=_typed(nd.get("first_year"), (int, type(None)), "node first_year"),
        region=_typed(nd.get("region"), (str, type(None)), "node region"),
    )
    if not is_country_code(attr.code):
        raise ValueError(f"node code {attr.code!r} is not 2-3 uppercase letters")
    if attr.paper_count is not None and attr.paper_count < 0:
        raise ValueError(f"node {attr.code} paper_count {attr.paper_count} is negative")
    if attr.region is not None and attr.region not in REGIONS:
        raise ValueError(f"node {attr.code} region {attr.region!r} is not one of {REGIONS}")
    return attr


def _links(adj: dict[str, dict[str, int]]) -> list[tuple[str, str, int]]:
    """The edges of a symmetric adjacency as (a, b, weight) with a < b, sorted: the one
    spelling of an edge list that graph.json and corpus.json write and _checked reads."""
    return sorted([(a, b, w) for a, row in adj.items() for b, w in row.items() if a < b])


def _checked(codes: list[str], edges) -> dict[str, dict[str, int]]:
    """The symmetric adjacency of (a, b, weight) edges over node codes, both spelled as _links writes
    them: codes strictly ascending, each edge a < b, edges sorted. Nothing is sorted, and each edge is
    read once, so the first faulty edge is named: TypeError or ValueError if it is not [str, str, int],
    DataError for a duplicate or misplaced node or edge, a self-loop, a missing node or a weight below 1."""
    for prev, code in zip(codes, codes[1:]):
        if code <= prev:
            raise DataError(f"duplicate node {code}" if code == prev else f"node {code} is listed after {prev}")
    adj: dict[str, dict[str, int]] = {code: {} for code in codes}
    pa = pb = ""
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            _typed(edge, (list, tuple), "edge")
            raise ValueError(f"edge {edge!r} has {len(edge)} entries, not 3")
        a, b, w = edge
        if type(a) is not str or type(b) is not str or type(w) is not int:  # _typed names the first
            _typed(a, str, "edge endpoint"), _typed(b, str, "edge endpoint"), _typed(w, int, "edge weight")
        if a >= b:
            raise DataError(f"self-loop on {a}" if a == b else f"edge {a}-{b} does not list its codes in order")
        if a not in adj or b not in adj:
            raise DataError(f"edge {a}-{b} references a missing node")
        if w < 1:
            raise DataError(f"edge {a}-{b} weight {w!r} must be a positive integer")
        if a < pa or (a == pa and b <= pb):
            raise DataError(f"duplicate edge {a}-{b}" if (a, b) == (pa, pb) else f"edge {a}-{b} is listed after {pa}-{pb}")
        adj[a][b] = adj[b][a] = w
        pa, pb = a, b
    return adj


def _year_key(key: str) -> int:
    """The year a corpus.json key spells in canonical form; ValueError otherwise."""
    year = int(key) if key.isascii() and key.isdigit() else None
    if str(year) != key:
        raise ValueError(f"year key {key!r} is not a canonical integer")
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year


class CoauthorshipGraph:
    """Undirected weighted simple graph over country codes."""

    def __init__(self, nodes: list[NodeAttr], adj: dict[str, dict[str, int]], window: TimeWindow):
        """A graph from nodes sorted by code and a symmetric adjacency with positive
        int weights over those nodes, taken as given: the rows are copied, nothing
        is sorted or checked. An edge list from outside goes through _checked first."""
        self.window = window
        self._nodes = {attr.code: attr for attr in nodes}
        self._adj = {attr.code: dict(adj.get(attr.code, ())) for attr in nodes}
        self._m = sum(map(len, self._adj.values())) // 2

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

    def neighbor_set(self, code: str):
        """The neighbours of `code` in no particular order (a read-only view)."""
        return self._adj[code].keys()

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def weight(self, a: str, b: str) -> int:
        return self._adj[a][b]

    def edges(self) -> list[tuple[str, str, int]]:
        """Edges as (a, b, weight) with a < b, sorted."""
        return _links(self._adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoauthorshipGraph):
            return NotImplemented
        return self.window == other.window and self._nodes == other._nodes and self._adj == other._adj

    def to_json(self) -> str:
        """graph.json: sorted compact JSON of the window, the nodes and the edges [a, b, w] with a < b."""
        doc = {"window": asdict(self.window), "nodes": [asdict(a) for a in self._nodes.values()], "edges": self.edges()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CoauthorshipGraph":
        """The graph of a graph.json; DataError naming the file if malformed."""
        doc = read_json(path)
        try:
            window = TimeWindow(
                _typed(doc["window"]["start_year"], int, "window start_year"),
                _typed(doc["window"]["end_year"], int, "window end_year"),
            )
            nodes = [_node_from_dict(nd) for nd in doc["nodes"]]
            adj = _checked([attr.code for attr in nodes], doc["edges"])
        except KeyError as exc:
            raise DataError(f"{path}: malformed graph document: no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed graph document: {exc}") from exc
        return cls(nodes, adj, window)


def graph_from_edges(edges, nodes=None, window: TimeWindow | None = None) -> CoauthorshipGraph:
    """Build a graph directly from an edge list (weights default to 1).

    The builder of synthetic graphs and of read_pajek's graph: edges come in any
    order and orientation, and node attributes beyond the code are left unset.
    """
    edges = [(*edge, 1) if len(edge) == 2 else edge for edge in edges]
    edges = sorted((min(a, b), max(a, b), w) for a, b, w in edges)
    codes = sorted({*(nodes or ()), *(code for a, b, _ in edges for code in (a, b))})
    return CoauthorshipGraph(list(map(NodeAttr, codes)), _checked(codes, edges), window or TimeWindow(0, 0))


def _add(totals: dict, delta: dict, sign: int) -> None:
    """totals += sign * delta, key by key; a key whose total reaches 0 is deleted."""
    for key, value in delta.items():
        total = totals.get(key, 0) + sign * value
        if total:
            totals[key] = total
        else:
            del totals[key]


UNCLASSIFIED_SUBJECT = "(unclassified)"


class ResolvedCorpus:
    """A record set resolved against a registry once and bucketed by year;
    it holds the buckets, not the records, and corpus.json (to_json, load)
    hands it to the next process.

    Each distinct raw name is resolved once. The corpus keeps the year span,
    the record count (papers) and how many list a country name
    (with_affiliation), every country's region and first year over the whole
    corpus (so grouping by entry year is stable across windows), the
    per-occurrence tally of names the registry cannot resolve, and per year
    the paper counts per subject (UNCLASSIFIED_SUBJECT for none) and per
    country, and the adjacency (code -> {neighbour: weight}, both directions).
    Coverage is computed from these counts on first use.

    A window's graph is the sum of the year buckets it contains. A sequence
    of windows is stepped, not re-summed: running totals subtract the years
    that leave the previous window and add the years that enter, deleting
    any count or weight that reaches 0, and a window that shares no year
    with the previous one starts from empty. Counts and weights are ints,
    so the totals are exact whatever the order of the steps.
    """

    def __init__(self, rs: RecordSet, registry: CountryRegistry):
        self.papers = len(rs.records)
        self.with_affiliation = 0
        self.unknown: dict[str, int] = {}
        self.subjects: dict[int, dict[str, int]] = {}
        self._years: dict[int, tuple[dict[str, int], dict[str, dict[str, int]]]] = {}
        resolved: dict[str, str | None] = {}
        for record in rs.records:
            self.with_affiliation += bool(record.raw_countries)
            found = set()
            for raw in record.raw_countries:
                if raw not in resolved:
                    entry = registry.resolve(raw)
                    resolved[raw] = entry.code if entry else None
                if resolved[raw] is None:
                    self.unknown[raw] = self.unknown.get(raw, 0) + 1
                else:
                    found.add(resolved[raw])
            subjects = self.subjects.setdefault(record.year, {})
            for subject in record.subjects or (UNCLASSIFIED_SUBJECT,):
                subjects[subject] = subjects.get(subject, 0) + 1
            counts, adj = self._years.setdefault(record.year, ({}, {}))
            for code in found:
                counts[code] = counts.get(code, 0) + 1
            for a, b in permutations(found, 2):
                row = adj.setdefault(a, {})
                row[b] = row.get(b, 0) + 1
        self._index_years()
        self.region = {code: registry.get(code).region for code in self.first_year}

    def _index_years(self) -> None:
        """Set first_year (each code's first year bucket; the years run backwards, so
        the earliest is the one kept) and span from the year buckets."""
        self.first_year = {code: year for year in sorted(self._years, reverse=True) for code in self._years[year][0]}
        self.span: tuple[int, int] | None = (min(self._years), max(self._years)) if self._years else None

    def to_json(self) -> str:
        """corpus.json: sorted compact JSON; per year [paper counts, links [a, b, w] with a < b, subject counts]."""
        years = {str(year): [counts, _links(adj), self.subjects[year]] for year, (counts, adj) in self._years.items()}
        doc = {"papers": self.papers, "with_affiliation": self.with_affiliation, "region": self.region,
               "unknown": self.unknown, "years": years}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def load(cls, path: str | Path) -> "ResolvedCorpus":
        """The corpus of a corpus.json. Its region map is checked as graph.json nodes
        are, and each year's links as graph.json edges are (_checked). DataError naming
        the file if malformed, if a year key is not spelled as to_json writes it, or for
        counts no record set yields: a count below 1, with_affiliation outside [0, papers], a region
        no year counts, a code counted in more papers over all years than with_affiliation, or a link
        weight above either endpoint's paper count in its year."""
        doc = read_json(path)
        corpus = cls.__new__(cls)
        corpus.subjects, corpus._years = {}, {}
        try:
            corpus.papers = _typed(doc["papers"], int, "papers")
            corpus.with_affiliation = _typed(doc["with_affiliation"], int, "with_affiliation")
            if not 0 <= corpus.with_affiliation <= corpus.papers:
                raise ValueError(f"with_affiliation {corpus.with_affiliation} is not within [0, papers {corpus.papers}]")
            corpus.region = _typed(doc["region"], dict, "region")
            for code, region in corpus.region.items():
                _node_from_dict({"code": code, "region": _typed(region, str, "region")})
            corpus.unknown = _counts(doc["unknown"], "unknown")
            years, totals = _typed(doc["years"], dict, "years"), {}
            for year, bucket in sorted((_year_key(key), value) for key, value in years.items()):
                if len(_typed(bucket, list, f"year {year}")) != 3:
                    raise ValueError(f"year {year} has {len(bucket)} entries, not 3: paper counts, links, subject counts")
                counts, links, subjects = bucket
                counts = _counts(counts, f"year {year} paper")
                for code, n in counts.items():
                    if code not in corpus.region:
                        raise ValueError(f"year {year} counts code {code!r}, which has no region")
                    totals[code] = totals.get(code, 0) + n
                    if totals[code] > corpus.with_affiliation:
                        raise ValueError(f"code {code} has {totals[code]} papers by year {year}, above with_affiliation")
                adj = {}
                for code, row in _checked(sorted(counts), links).items():
                    if (heaviest := max(row.values(), default=0)) > counts[code]:
                        raise ValueError(f"year {year} link weight {heaviest} exceeds {code}'s paper count {counts[code]}")
                    if row:
                        adj[code] = row
                corpus._years[year] = counts, adj
                corpus.subjects[year] = _counts(subjects, f"year {year} subject")
            corpus._index_years()
            if uncounted := sorted(corpus.region.keys() - corpus.first_year.keys()):
                raise ValueError(f"region codes {uncounted} are counted in no year")
        except KeyError as exc:
            raise DataError(f"{path}: malformed corpus document: no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed corpus document: {exc}") from exc
        return corpus

    @cached_property
    def coverage(self) -> CoverageStats:
        return coverage_stats(self.papers, self.with_affiliation, self.unknown)

    def _totals(self, windows):
        """Yield (window, paper counts, adjacency) per window, each stepped
        from the previous window's totals, which it updates in place."""
        counts: dict[str, int] = {}
        adj: dict[str, dict[str, int]] = {}
        prev: set[int] = set()
        for window in windows:
            years = {year for year in self._years if window.contains(year)}
            if not years & prev:
                counts, adj, prev = {}, {}, set()
            for sign, step in ((-1, prev - years), (1, years - prev)):
                for year in step:
                    year_counts, year_adj = self._years[year]
                    _add(counts, year_counts, sign)
                    for code, delta in year_adj.items():
                        row = adj.setdefault(code, {})
                        _add(row, delta, sign)
                        if not row:
                            del adj[code]
            prev = years
            yield window, counts, adj

    def graphs(self, windows):
        """Yield the coauthorship graph of each window, in the given order.

        Every in-window record contributes +1 to the paper count of each
        distinct resolved country it lists, and +1 weight to every pair among
        them; unresolvable names are dropped.
        """
        for window, counts, adj in self._totals(windows):
            nodes = [
                NodeAttr(
                    code=code,
                    paper_count=counts[code],
                    first_year=self.first_year[code],
                    region=self.region[code],
                )
                for code in sorted(counts)
            ]
            yield CoauthorshipGraph(nodes, adj, window)

    def sizes(self, windows):
        """Yield (n, m) of each window's graph, counted without building it."""
        for _, counts, adj in self._totals(windows):
            yield len(counts), sum(map(len, adj.values())) // 2

    def graph(self, window: TimeWindow | None = None) -> CoauthorshipGraph:
        """The graph of one window (see graphs); the default window is the corpus span."""
        return next(self.graphs([window or TimeWindow(*(self.span or (0, 0)))]))


def build_network(
    rs: RecordSet,
    registry: CountryRegistry,
    window: TimeWindow | None = None,
) -> CoauthorshipGraph:
    """Build the coauthorship graph for records inside the window (see ResolvedCorpus)."""
    return ResolvedCorpus(rs, registry).graph(window)


def induced_subgraph(g: CoauthorshipGraph, keep) -> CoauthorshipGraph:
    """Subgraph on `keep`: kept nodes, edges with both endpoints kept."""
    keep = set(keep)
    unknown = keep - set(g.codes())
    if unknown:
        raise UsageError(f"unknown codes in keep set: {sorted(unknown)}")
    edges = [(a, b, w) for a, b, w in g.edges() if a in keep and b in keep]
    keep = sorted(keep)
    return CoauthorshipGraph(list(map(g.node, keep)), _checked(keep, edges), g.window)
