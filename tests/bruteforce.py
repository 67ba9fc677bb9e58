"""Brute-force reference implementations used to cross-check the production
metrics. Deliberately naive: Floyd-style all-pairs distances plus exhaustive
enumeration of shortest paths. Only suitable for small graphs."""

from __future__ import annotations

import json
import math
from itertools import combinations

from coauthnet.errors import DataError
from coauthnet.ingest import YEAR_MAX, YEAR_MIN, PublicationRecord, RecordSet

INF = math.inf


def _adjacency(nodes, edges):
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def floyd_distances(nodes, edges):
    dist = {(a, b): (0 if a == b else INF) for a in nodes for b in nodes}
    for a, b in edges:
        dist[(a, b)] = 1
        dist[(b, a)] = 1
    for k in nodes:
        for i in nodes:
            dik = dist[(i, k)]
            if dik is INF:
                continue
            for j in nodes:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def bfs_distances(nodes, edges):
    """The floyd_distances result by one breadth-first search per source, for
    graphs too large for Floyd's n^3 interpreter steps."""
    adj = _adjacency(nodes, edges)
    dist = {(a, b): INF for a in nodes for b in nodes}
    for s in nodes:
        dist[(s, s)] = 0
        frontier = [s]
        while frontier:
            reached = []
            for v in frontier:
                for w in adj[v]:
                    if dist[(s, w)] is INF:
                        dist[(s, w)] = dist[(s, v)] + 1
                        reached.append(w)
            frontier = reached
    return dist


def enumerate_geodesics(nodes, edges, s, t, dist=None):
    """All shortest s-t paths, via depth-limited DFS."""
    if dist is None:
        dist = floyd_distances(nodes, edges)
    target_len = dist[(s, t)]
    if target_len is INF:
        return []
    adj = _adjacency(nodes, edges)
    paths = []

    def extend(path):
        u = path[-1]
        if u == t:
            paths.append(tuple(path))
            return
        remaining = target_len - (len(path) - 1)
        for v in sorted(adj[u]):
            if v not in path and dist[(v, t)] == remaining - 1:
                path.append(v)
                extend(path)
                path.pop()

    extend([s])
    return paths


def oracle_path_stats(nodes, edges):
    """(diameter, sorted endpoint pairs, mean path length, connected pair count)."""
    dist = floyd_distances(nodes, edges)
    finite = [
        (a, b, dist[(a, b)])
        for a, b in combinations(sorted(nodes), 2)
        if dist[(a, b)] is not INF
    ]
    if not finite:
        return 0, [], 0.0, 0
    diameter = max(d for _, _, d in finite)
    endpoints = sorted((a, b) for a, b, d in finite if d == diameter and d > 0)
    mean = sum(d for _, _, d in finite) / len(finite)
    return int(diameter), endpoints, mean, len(finite)


def oracle_betweenness(nodes, edges):
    nodes = sorted(nodes)
    n = len(nodes)
    acc = {v: 0.0 for v in nodes}
    if n < 3:
        return acc
    dist = floyd_distances(nodes, edges)
    for s, t in combinations(nodes, 2):
        paths = enumerate_geodesics(nodes, edges, s, t, dist)
        if not paths:
            continue
        sigma = len(paths)
        for path in paths:
            for v in path[1:-1]:
                acc[v] += 1.0 / sigma
    norm = (n - 1) * (n - 2) / 2
    return {v: acc[v] / norm for v in nodes}


def oracle_closeness(nodes, edges):
    dist = floyd_distances(nodes, edges)
    out = {}
    for v in sorted(nodes):
        farness = sum(dist[(v, u)] for u in nodes if u != v and dist[(v, u)] is not INF)
        out[v] = 1.0 / farness if farness > 0 else 0.0
    return out


def oracle_clustering(nodes, edges, mode="exclude_low_degree"):
    adj = _adjacency(nodes, edges)
    per_node = {}
    values = []
    for v in sorted(nodes):
        k = len(adj[v])
        if k < 2:
            per_node[v] = None if mode == "exclude_low_degree" else 0.0
            if mode == "zero_low_degree":
                values.append(0.0)
            continue
        links = sum(1 for a, b in combinations(sorted(adj[v]), 2) if b in adj[a])
        coeff = links / (k * (k - 1) / 2)
        per_node[v] = coeff
        values.append(coeff)
    return per_node, (sum(values) / len(values) if values else 0.0)


def oracle_components(nodes, edges):
    """Component sizes (descending) via repeated closure."""
    remaining = set(nodes)
    adj = _adjacency(nodes, edges)
    sizes = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = {seed}
        while frontier:
            frontier = {w for v in frontier for w in adj[v]} - comp
            comp |= frontier
        sizes.append(len(comp))
        remaining -= comp
    return sorted(sizes, reverse=True)


def oracle_edge_weights(records_with_codes):
    """Joint-paper counts per country pair, recomputed straight from records.

    Takes (year, [codes]) pairs already restricted to the window of interest.
    """
    weights = {}
    for _, codes in records_with_codes:
        distinct = sorted(set(codes))
        for a, b in combinations(distinct, 2):
            weights[(a, b)] = weights.get((a, b), 0) + 1
    return weights


def _oracle_dedup(items):
    seen = {}
    for item in items:
        item = item.strip()
        if item:
            seen.setdefault(item)
    return list(seen)


def _oracle_record(obj, line):
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise DataError("record id must be a non-empty string", line=line)
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise DataError(f"record {rid!r}: year must be an integer", line=line)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"record {rid!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line)
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"record {rid!r}: text must be a string", line=line)
    countries = obj.get("countries", [])
    subjects = obj.get("subjects", [])
    for name, value in (("countries", countries), ("subjects", subjects)):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise DataError(f"record {rid!r}: {name} must be a list of strings", line=line)
    return PublicationRecord(
        id=rid, year=year, text=text, raw_countries=_oracle_dedup(countries), subjects=_oracle_dedup(subjects)
    )


def oracle_parse_records(path):
    """The JSONL parse_records of a plain per-line reader: json.loads of every
    non-blank line, all lines validated before any duplicate id is sought, then
    one sort by (year, id). An int of too many digits escapes as ValueError."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid JSON: {exc.msg}", line=line) from exc
            except RecursionError as exc:
                raise DataError("invalid JSON: nested too deeply", line=line) from exc
            if not isinstance(obj, dict):
                raise DataError("each line must hold a JSON object", line=line)
            rows.append((_oracle_record(obj, line), line))
    seen = {}
    for record, line in rows:
        if record.id in seen:
            raise DataError(f"duplicate record id {record.id!r} (first seen on line {seen[record.id]})", line=line)
        seen[record.id] = line
    return RecordSet(records=sorted((r for r, _ in rows), key=lambda r: (r.year, r.id)))
