"""Acceptance suite: one test per exit criterion, each timed against its
stated budget and printing a pass line (run with -s to see them)."""

import json
import random
import shutil
import time

from coauthnet import builtin_registry, summary
from coauthnet.cli import main
from coauthnet.export import LayoutSpec, compute_layout, read_dot, read_pajek, write_dot, write_pajek
from coauthnet.graph import graph_from_edges
from coauthnet.metrics import betweenness, closeness, clustering, components, path_stats, random_edge_set, small_world
from coauthnet.temporal import densification_fit

from bruteforce import (
    oracle_betweenness,
    oracle_closeness,
    oracle_clustering,
    oracle_components,
    oracle_path_stats,
)
from conftest import (
    FIXTURE_EDGES,
    densifying_corpus_rows,
    densifying_registry_csv,
    random_edges,
    rank_pairs,
    synthetic_corpus_rows,
    write_jsonl,
)

TOL = 1e-9


def _finish(number: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s < {budget:g}s)")


def test_criterion_1_reference_graph_suite():
    t0 = time.monotonic()
    g = graph_from_edges(FIXTURE_EDGES)
    stats = summary(g)
    assert stats.n == 8
    assert stats.m == 11
    assert abs(stats.density - 11 / 28) <= 1e-12
    assert g.degree("A") == 3
    assert g.degree("B") == 4
    per_node, _ = clustering(g)
    assert abs(per_node["A"] - 1 / 3) <= 1e-12
    paths = path_stats(g)
    assert paths.diameter == 4
    assert ("F", "G") in paths.diameter_endpoints
    assert ("F", "H") in paths.diameter_endpoints
    assert abs(stats.m / stats.n - 11 / 8) <= 1e-12
    part = components(g)
    assert part.sizes == [8]

    # Brute-force re-verification that the fixed edge set realizes the same
    # stated facts (degrees, clustering, diameter, connectivity).
    labels = sorted(g.codes())
    diameter, endpoints, _, pairs = oracle_path_stats(labels, FIXTURE_EDGES)
    assert diameter == 4
    assert {("F", "G"), ("F", "H")} <= set(endpoints)
    assert pairs == 8 * 7 // 2
    oracle_per, _ = oracle_clustering(labels, FIXTURE_EDGES)
    assert abs(oracle_per["A"] - 1 / 3) <= 1e-12
    assert oracle_components(labels, FIXTURE_EDGES) == [8]
    _finish(1, "reference graph suite", t0, 1.0)


def test_criterion_2_summary_arithmetic_identities():
    t0 = time.monotonic()
    rng = random.Random(2)
    labels = [f"C{i:03d}" for i in range(97)]
    edges = [(labels[i], labels[j]) for i, j in rank_pairs(97, random_edge_set(97, 761, rng))]
    stats = summary(graph_from_edges(edges, nodes=labels))
    assert round(stats.density, 2) == 0.16
    assert round(stats.mean_degree, 1) == 15.7
    _finish(2, "summary arithmetic identities", t0, 1.0)


def test_criterion_3_oracle_equivalence_on_200_graphs():
    t0 = time.monotonic()
    rng = random.Random(1234)
    for index in range(200):
        n = rng.randint(2, 10)
        labels, edges = random_edges(rng, n, rng.uniform(0.05, 0.95))
        g = graph_from_edges(edges, nodes=labels)

        expected_b = oracle_betweenness(labels, edges)
        for code, value in betweenness(g).items():
            assert abs(value - expected_b[code]) <= TOL, (index, code)

        expected_c = oracle_closeness(labels, edges)
        for code, value in closeness(g).items():
            assert abs(value - expected_c[code]) <= TOL, (index, code)

        diameter, endpoints, mean, _ = oracle_path_stats(labels, edges)
        paths = path_stats(g)
        assert paths.diameter == diameter, index
        assert paths.diameter_endpoints == endpoints, index
        assert abs(paths.mean_path_length - mean) <= TOL, index

        for mode in ("exclude_low_degree", "zero_low_degree"):
            per_node, average = clustering(g, mode)
            oracle_per, oracle_avg = oracle_clustering(labels, edges, mode)
            assert abs(average - oracle_avg) <= TOL, (index, mode)
            for code in labels:
                if oracle_per[code] is None:
                    assert per_node[code] is None, (index, code)
                else:
                    assert abs(per_node[code] - oracle_per[code]) <= TOL, (index, code)

        assert components(g).sizes == oracle_components(labels, edges), index
    _finish(3, "oracle equivalence on 200 random graphs", t0, 30.0)


def test_criterion_4_densification_recovery():
    t0 = time.monotonic()
    points = [(n, round(0.5 * n**1.5)) for n in (10, 20, 40, 80, 160)]
    fit = densification_fit(points)
    assert abs(fit.alpha - 1.5) <= 0.05
    assert fit.r_squared >= 0.99

    exact = densification_fit([(2, 1), (4, 4)])
    assert abs(exact.alpha - 2.0) <= TOL
    assert exact.r_squared is None
    _finish(4, "densification recovery", t0, 1.0)


def test_criterion_5_cumulative_monotonicity(tmp_path):
    t0 = time.monotonic()
    from coauthnet import CountryRegistry, ResolvedCorpus, parse_records, slice_windows, summary

    registry = CountryRegistry.from_csv(densifying_registry_csv(tmp_path / "registry.csv"))
    corpus = write_jsonl(tmp_path / "corpus.jsonl", densifying_corpus_rows(30))
    rs = parse_records(corpus)
    resolved = ResolvedCorpus(rs, registry)
    windows = slice_windows(resolved.span, 5, 5, "cumulative")
    assert len(windows) == 6
    graphs = [resolved.graph(w) for w in windows]
    summaries = [summary(g) for g in graphs]

    for earlier, later in zip(summaries, summaries[1:]):
        assert earlier.n <= later.n
        assert earlier.m <= later.m
        assert earlier.mean_degree <= later.mean_degree + 1e-12
    assert summaries[0].mean_degree < summaries[-1].mean_degree

    for small, big in zip(graphs, graphs[1:]):
        assert set(small.codes()) <= set(big.codes())
        big_edges = {(a, b): w for a, b, w in big.edges()}
        for a, b, w in small.edges():
            assert (a, b) in big_edges
            assert w <= big_edges[(a, b)]
    _finish(5, "cumulative monotonicity", t0, 5.0)


def test_criterion_6_interchange_round_trips():
    t0 = time.monotonic()
    rng = random.Random(66)
    for index in range(100):
        n = rng.randint(0, 14)
        labels, edges = random_edges(rng, n, rng.random())
        weighted = [(a, b, rng.randint(1, 12)) for a, b in edges]
        g = graph_from_edges(weighted, nodes=labels)
        expected_edges = {(a, b): w for a, b, w in g.edges()}

        net, _ = write_pajek(g)
        pajek_labels, pajek_edges = read_pajek(net)
        assert pajek_labels == g.codes(), index
        assert pajek_edges == expected_edges, index

        dot_labels, dot_edges = read_dot(write_dot(g, compute_layout(g, LayoutSpec(size_attr="degree"))))
        assert dot_labels == g.codes(), index
        assert dot_edges == expected_edges, index
    _finish(6, "Pajek and DOT round trips", t0, 5.0)


def test_criterion_7_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    names = [
        "Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Australia",
        "India", "Germany", "Poland", "Chile", "Kenya", "USSR", "Czechoslovakia",
        "Faroe Islands", "Yugoslavia", "United States", "China", "Sweden", "Italy",
    ]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_corpus_rows(random.Random(42), 400, names))
    out = tmp_path / "out"
    args = [
        "report", "--input", str(corpus), "--out", str(out),
        "--sw-samples", "40", "--seed", "0", "--layout", "grouped_circles",
    ]

    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert "report.md" in first and "network.svg" in first and "smallworld.json" in first
    _finish(7, "pipeline determinism", t0, 30.0)


def test_criterion_8_small_world_sanity():
    t0 = time.monotonic()
    from itertools import combinations

    k10 = graph_from_edges(list(combinations([f"K{i}" for i in range(10)], 2)))
    assert small_world(k10, samples=10, seed=0).sigma == 1.0

    ring_edges = set()
    for i in range(20):
        for d in (1, 2):
            ring_edges.add(tuple(sorted((f"R{i:02d}", f"R{(i + d) % 20:02d}"))))
    ring = graph_from_edges(sorted(ring_edges))
    assert small_world(ring, samples=100, seed=0).sigma > 1.0

    # a draw from the baseline ensemble itself should sit near sigma = 1
    draw_rng = random.Random(0)
    labels = [f"E{i:02d}" for i in range(20)]
    drawn_edges = [(labels[i], labels[j]) for i, j in rank_pairs(20, random_edge_set(20, 60, draw_rng))]
    drawn = graph_from_edges(drawn_edges, nodes=labels)
    sigma = small_world(drawn, samples=200, seed=0).sigma
    assert 0.7 <= sigma <= 1.3, sigma
    _finish(8, "small-world sanity", t0, 20.0)


def test_criterion_9_scale(tmp_path):
    registry = builtin_registry()
    names = [registry.get(code).display_name for code in registry.codes()[:100]]
    rows = synthetic_corpus_rows(random.Random(0), 10000, names)
    corpus = write_jsonl(tmp_path / "big.jsonl", rows)
    out = tmp_path / "out"

    t0 = time.monotonic()
    assert main(["report", "--input", str(corpus), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 100
    assert summary["m"] > 1000
    assert (out / "report.md").exists()
    _finish(9, "10k-record pipeline scale", t0, 10.0)
