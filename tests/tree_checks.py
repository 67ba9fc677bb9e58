"""Relations that the artifacts of one output tree hold with one another.

    tree_faults(root) -> list of faults, one line each; [] when they all hold

`root` is a tree that `coauthnet report`, or the six stages run in sequence,
wrote. The relations:
- summary.json n and m equal graph.json's node and edge counts and, for a
  corpus with at least one year, the last snapshots.csv row;
- the degree_histogram.json counts sum to n and tally centrality.json's
  degrees;
- each graph.json node's paper_count is the sum of its corpus.json year
  counts, and its first_year is the first year counting it, as in
  first_years.json;
- coverage.json's kept and with-affiliation counts equal corpus.json's;
- in cumulative mode, when slice and metrics use one clustering mode, the
  last series_summary.csv row equals the summary.json fields it names.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path


def _doc(root: Path, name: str):
    return json.loads((root / name).read_text(encoding="utf-8"))


def _rows(root: Path, name: str) -> list[dict]:
    with open(root / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def tree_faults(root: Path) -> list[str]:
    faults = []
    config, graph, corpus = _doc(root, "config.json"), _doc(root, "graph.json"), _doc(root, "corpus.json")
    summary, coverage = _doc(root, "summary.json"), _doc(root, "coverage.json")

    n, m = summary["n"], summary["m"]
    if (n, m) != (len(graph["nodes"]), len(graph["edges"])):
        faults.append(f"summary.json n, m = {n}, {m}; graph.json has {len(graph['nodes'])}, {len(graph['edges'])}")
    snapshots = _rows(root, "snapshots.csv")
    if corpus["years"] and (not snapshots or (int(snapshots[-1]["n"]), int(snapshots[-1]["m"])) != (n, m)):
        faults.append(f"last snapshots.csv row {snapshots[-1:]} is not n, m = {n}, {m}")

    histogram = {row["degree"]: row["count"] for row in _doc(root, "degree_histogram.json")}
    if sum(histogram.values()) != n:
        faults.append(f"degree_histogram.json counts sum to {sum(histogram.values())}, not n = {n}")
    degrees = Counter(row["degree"] for row in _doc(root, "centrality.json"))
    if histogram != degrees:
        faults.append("degree_histogram.json does not tally centrality.json's degrees")

    paper_count: Counter = Counter()
    first_year: dict[str, int] = {}
    for year, (counts, _, _) in sorted(corpus["years"].items(), key=lambda item: int(item[0])):
        for code, count in counts.items():
            paper_count[code] += count
            first_year.setdefault(code, int(year))
    nodes = {node["code"]: (node["paper_count"], node["first_year"]) for node in graph["nodes"]}
    if nodes != {code: (paper_count[code], first_year[code]) for code in first_year}:
        faults.append("graph.json paper_count and first_year differ from corpus.json's year counts")
    if _doc(root, "first_years.json") != first_year:
        faults.append("first_years.json differs from the first year corpus.json counts each country")

    kept = (coverage["kept_after_topic_filter"], coverage["with_affiliation"])
    if kept != (corpus["papers"], corpus["with_affiliation"]):
        faults.append(f"coverage.json kept, with_affiliation = {kept}; corpus.json has "
                      f"{corpus['papers']}, {corpus['with_affiliation']}")

    sliced = config["slice"]
    series = _rows(root, "series_summary.csv")
    if sliced["mode"] == "cumulative" and sliced["clustering_mode"] == config["metrics"]["clustering_mode"] and series:
        last = series[-1]
        differ = [key for key in last if key in summary and float(last[key]) != summary[key]]
        if differ:
            faults.append(f"last series_summary.csv row differs from summary.json in {differ}")
    return faults
