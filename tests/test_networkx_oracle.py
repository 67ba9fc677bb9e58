"""networkx as a second oracle, independent of tests/bruteforce.py.

networkx is a test-only dependency; coauthnet never imports it.
"""

import math
import random

import pytest

from coauthnet.graph import graph_from_edges
from coauthnet.metrics import betweenness, closeness, clustering, components, path_stats, random_edge_set, small_world

from conftest import random_edges, rank_pairs

nx = pytest.importorskip("networkx")


def sample_graphs():
    """Random graphs with several components and isolated nodes, n in {0, 1, 2, 3, 40}."""
    rng = random.Random(2024)
    for n in (0, 1, 2, 3, 40):
        for p in (0.0, 0.04, 0.08, 0.5):
            labels, edges = random_edges(rng, n, p)
            yield labels, edges


def to_nx(labels, edges):
    h = nx.Graph()
    h.add_nodes_from(labels)
    h.add_edges_from(edges)
    return h


def nx_clustering(h, nodes, mode):
    """(per-node values, average) in coauthnet's convention for either mode."""
    local = nx.clustering(h, nodes)
    per_node = {}
    for v in nodes:
        if h.degree(v) >= 2:
            per_node[v] = local[v]
        else:
            per_node[v] = None if mode == "exclude_low_degree" else 0.0
    values = [per_node[v] for v in sorted(nodes) if per_node[v] is not None]
    return per_node, (sum(values) / len(values) if values else 0.0)


def test_path_stats_matches_networkx():
    for labels, edges in sample_graphs():
        lengths = dict(nx.shortest_path_length(to_nx(labels, edges)))
        finite = [lengths[a][b] for a in labels for b in labels if a < b and b in lengths[a]]
        ps = path_stats(graph_from_edges(edges, nodes=labels))
        assert ps.connected_pair_count == len(finite)
        assert ps.diameter == max(finite, default=0)
        assert ps.mean_path_length == (sum(finite) / len(finite) if finite else 0.0)


def test_closeness_matches_networkx():
    for labels, edges in sample_graphs():
        h = to_nx(labels, edges)
        expected = nx.closeness_centrality(h, wf_improved=False)
        got = closeness(graph_from_edges(edges, nodes=labels))
        for v in labels:
            size = len(nx.node_connected_component(h, v))
            want = expected[v] / (size - 1) if size > 1 else 0.0
            assert math.isclose(got[v], want, rel_tol=1e-12), v


def test_betweenness_matches_networkx():
    for labels, edges in sample_graphs():
        h = to_nx(labels, edges)
        got = betweenness(graph_from_edges(edges, nodes=labels))
        n = len(labels)
        # networkx counts each unordered pair once when not normalized;
        # coauthnet divides that count by (n-1)(n-2)/2, the number of pairs
        # that exclude a given node, as networkx does when normalized.
        raw = nx.betweenness_centrality(h, normalized=False)
        expected = nx.betweenness_centrality(h, normalized=True)
        for v in labels:
            want = raw[v] / ((n - 1) * (n - 2) / 2) if n >= 3 else 0.0
            assert math.isclose(got[v], want, rel_tol=1e-12, abs_tol=1e-15), v
            assert math.isclose(got[v], expected[v], rel_tol=1e-12, abs_tol=1e-15), v


def test_components_and_giant_match_networkx():
    for labels, edges in sample_graphs():
        h = to_nx(labels, edges)
        g = graph_from_edges(edges, nodes=labels)
        part = components(g)
        assert part.sizes == sorted((len(c) for c in nx.connected_components(h)), reverse=True)
        assert part.isolated_count == nx.number_of_isolates(h)
        # The giant is the largest component, ties going to the smallest code.
        ranked = sorted(nx.connected_components(h), key=lambda comp: (-len(comp), min(comp)))
        ids = list(part.assignment.values())
        giant = max(set(ids), key=lambda c: (ids.count(c), -c), default=None)
        assert sorted(code for code, c in part.assignment.items() if c == giant) == (sorted(ranked[0]) if ranked else [])


@pytest.mark.parametrize("mode", ["exclude_low_degree", "zero_low_degree"])
def test_local_clustering_matches_networkx(mode):
    for labels, edges in sample_graphs():
        per_node, average = clustering(graph_from_edges(edges, nodes=labels), mode)
        expected, expected_average = nx_clustering(to_nx(labels, edges), labels, mode)
        assert math.isclose(average, expected_average, rel_tol=1e-12)
        for v in labels:
            if expected[v] is None:
                assert per_node[v] is None
            else:
                assert math.isclose(per_node[v], expected[v], rel_tol=1e-12), v


@pytest.mark.parametrize("mode", ["exclude_low_degree", "zero_low_degree"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_small_world_sample_giant_matches_networkx(mode, seed):
    # A sparse graph, so its random samples fall apart into several components.
    labels, edges = random_edges(random.Random(11), 40, 0.05)
    g = graph_from_edges(edges, nodes=labels)
    report = small_world(g, samples=1, seed=seed, clustering_mode=mode)

    sample = to_nx(range(g.n), rank_pairs(g.n, random_edge_set(g.n, g.m, random.Random(seed))))
    assert nx.number_connected_components(sample) > 1
    giant = max(nx.connected_components(sample), key=lambda comp: (len(comp), -min(comp)))
    sub = sample.subgraph(giant)
    _, c_expected = nx_clustering(sub, list(giant), mode)
    assert math.isclose(report.l_random_mean, nx.average_shortest_path_length(sub), rel_tol=1e-12)
    assert math.isclose(report.c_random_mean, c_expected, rel_tol=1e-12)
