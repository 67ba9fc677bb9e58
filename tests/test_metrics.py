import math
import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coauthnet import ResolvedCorpus, UsageError, parse_records, slice_windows, summary
from coauthnet.graph import graph_from_edges
from coauthnet.metrics import (
    _geodesics,
    betweenness,
    centrality_table,
    closeness,
    clustering,
    components,
    degree_distribution,
    is_clique,
    path_stats,
    random_edge_set,
    small_world,
    top_k_by_degree,
)

from bruteforce import (
    INF,
    bfs_distances,
    floyd_distances,
    oracle_betweenness,
    oracle_closeness,
    oracle_clustering,
    oracle_components,
    oracle_path_stats,
)
from conftest import random_edges, random_graph, rank_pairs, synthetic_corpus_rows, write_jsonl


def k_graph(n):
    return graph_from_edges(list(combinations([f"K{i}" for i in range(n)], 2)))


def path_graph(labels):
    return graph_from_edges(list(zip(labels, labels[1:])))


def star_graph(leaves=3):
    return graph_from_edges([("S", f"L{i}") for i in range(leaves)])


def ring_lattice(n=20, reach=2):
    edges = set()
    for i in range(n):
        for d in range(1, reach + 1):
            a, b = f"R{i:02d}", f"R{(i + d) % n:02d}"
            edges.add(tuple(sorted((a, b))))
    return graph_from_edges(sorted(edges))


# ---------------------------------------------------------------------------
# components


def test_components_basic():
    g = graph_from_edges([("A", "B")], nodes=["A", "B", "C"])
    part = components(g)
    assert part.sizes == [2, 1]
    assert part.giant_size == 2
    assert part.isolated_count == 1
    assert part.assignment["A"] == part.assignment["B"]
    assert part.assignment["C"] != part.assignment["A"]


def test_components_reference_graph(fixture_graph):
    part = components(fixture_graph)
    assert part.sizes == [8]
    assert part.isolated_count == 0


def test_components_empty():
    part = components(graph_from_edges([], nodes=[]))
    assert part.sizes == []
    assert part.giant_size == 0


def test_component_ids_by_smallest_member():
    g = graph_from_edges([("C", "D"), ("A", "B")])
    part = components(g)
    assert part.assignment["A"] == 0
    assert part.assignment["C"] == 1


# ---------------------------------------------------------------------------
# path stats


def test_path_stats_reference_graph(fixture_graph):
    ps = path_stats(fixture_graph)
    assert ps.diameter == 4
    assert ("F", "G") in ps.diameter_endpoints
    assert ("F", "H") in ps.diameter_endpoints


def test_path_stats_complete_graph():
    ps = path_stats(k_graph(4))
    assert ps.diameter == 1
    assert ps.mean_path_length == 1.0


def test_path_stats_path_graph():
    ps = path_stats(path_graph("ABCD"))
    assert ps.diameter == 3
    assert abs(ps.mean_path_length - 10 / 6) < 1e-12
    assert ps.connected_pair_count == 6


def test_path_stats_no_pairs():
    ps = path_stats(graph_from_edges([], nodes=["A", "B"]))
    assert ps.diameter == 0
    assert ps.mean_path_length == 0.0
    assert ps.diameter_endpoints == []


def test_path_stats_ignores_cross_component_pairs():
    g = graph_from_edges([("A", "B"), ("C", "D")])
    ps = path_stats(g)
    assert ps.connected_pair_count == 2
    assert ps.mean_path_length == 1.0


# ---------------------------------------------------------------------------
# centralities


def test_betweenness_path():
    result = betweenness(path_graph("ABC"))
    assert result == {"A": 0.0, "B": 1.0, "C": 0.0}


def test_betweenness_star():
    result = betweenness(star_graph(3))
    assert result["S"] == 1.0
    assert all(result[f"L{i}"] == 0.0 for i in range(3))


def test_betweenness_cycle():
    c5 = graph_from_edges([(f"N{i}", f"N{(i + 1) % 5}") for i in range(5)])
    result = betweenness(c5)
    for value in result.values():
        assert abs(value - 1 / 6) < 1e-12


def test_betweenness_small_graphs_all_zero():
    assert betweenness(graph_from_edges([("A", "B")])) == {"A": 0.0, "B": 0.0}


def test_betweenness_in_unit_interval():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        for value in betweenness(g).values():
            assert -1e-12 <= value <= 1.0 + 1e-12


def loop_betweenness(g):
    """Reference: the per-source Brandes loop betweenness ran before it
    batched all sources; path counts are Python ints."""
    codes = g.codes()
    n = len(codes)
    score = {c: 0.0 for c in codes}
    if n < 3:
        return score
    adj = {code: sorted(g.neighbor_set(code)) for code in codes}
    for source in codes:
        stack = []
        preds = {c: [] for c in codes}
        sigma = {c: 0 for c in codes}
        sigma[source] = 1
        dist = {c: -1 for c in codes}
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {c: 0.0 for c in codes}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    scale = 1.0 / ((n - 1) * (n - 2))
    return {c: score[c] * scale for c in codes}


@st.composite
def multi_component_graphs(draw):
    """Up to 60 nodes in up to 5 blocks (isolated nodes included) with shuffled codes."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    n = min(sum(sizes), 60)
    labels = [f"N{i:02d}" for i in draw(st.permutations(range(n)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    start = 0
    for size in sizes:
        block = labels[start : start + size]
        p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
        edges += [(a, b) for a, b in combinations(block, 2) if rng.random() < p]
        start += size
    return graph_from_edges(edges, nodes=labels)


@settings(max_examples=60, deadline=None)
@given(multi_component_graphs())
def test_betweenness_equals_loop_exactly(g):
    result = betweenness(g)
    assert list(result) == g.codes()
    assert result == loop_betweenness(g)


@pytest.mark.parametrize("edges, nodes", [([], []), ([], ["A"]), ([], ["A", "B"]), ([("A", "B")], [])])
def test_betweenness_below_three_nodes_equals_loop(edges, nodes):
    g = graph_from_edges(edges, nodes=nodes)
    assert betweenness(g) == loop_betweenness(g) == {c: 0.0 for c in g.codes()}


def criterion_9_graph(tmp_path, registry):
    names = [registry.get(code).display_name for code in registry.codes()[:100]]
    rows = synthetic_corpus_rows(random.Random(0), 10000, names)
    g = ResolvedCorpus(parse_records(write_jsonl(tmp_path / "big.jsonl", rows)), registry).graph()
    assert (g.n, g.m) == (100, 2453)
    return g


def test_betweenness_equals_loop_on_criterion_9_graph(tmp_path, registry):
    g = criterion_9_graph(tmp_path, registry)
    assert betweenness(g) == loop_betweenness(g)


def test_kernel_adjacency_of_stepped_graphs_matches_edge_list(tmp_path, registry):
    names = [registry.get(code).display_name for code in registry.codes()[:30]]
    rs = parse_records(write_jsonl(tmp_path / "c.jsonl", synthetic_corpus_rows(random.Random(8), 600, names)))
    corpus = ResolvedCorpus(rs, registry)
    windows = slice_windows(corpus.span, 3, 5, "sliding") + slice_windows(corpus.span, 5, 3, "sliding")
    for g in corpus.graphs(sorted(windows, key=lambda w: w.start_year)):
        index = {code: i for i, code in enumerate(g.codes())}
        expected = np.zeros((g.n, g.n), dtype=bool)
        for a, b, _ in g.edges():
            expected[index[a], index[b]] = expected[index[b], index[a]] = True
        assert np.array_equal(_geodesics(g).dist == 1, expected), g.window


def test_bfs_distances_equal_floyd():
    rng = random.Random(4)
    for n, p in ((12, 0.15), (30, 0.1), (30, 0.5)):
        labels, edges = random_edges(rng, n, p)
        assert bfs_distances(labels, edges) == floyd_distances(labels, edges)


@pytest.mark.parametrize("n, p, seed", [(176, 0.4, 1), (176, 0.012, 2), (300, 0.05, 3), (300, 0.006, 4)])
def test_kernel_equals_oracles_at_blas_threading_sizes(n, p, seed):
    """Products of n x n matrices at these sizes run threaded in a BLAS that
    is not pinned to one thread, as in a test process that does not set
    OPENBLAS_NUM_THREADS: distances, triangles and betweenness must come out
    exact, on dense graphs and on sparse ones with many levels alike."""
    labels, edges = random_edges(random.Random(seed), n, p)
    g = graph_from_edges(edges, nodes=labels)
    codes = g.codes()
    geo = _geodesics(g)
    oracle = bfs_distances(labels, edges)
    assert geo.dist.tolist() == [[0 if oracle[(a, b)] is INF else oracle[(a, b)] for b in codes] for a in codes]
    per_node, _ = oracle_clustering(labels, edges, "zero_low_degree")
    assert geo.clustering_terms("zero_low_degree") == [per_node[code] for code in codes]
    degree = g.degrees()
    links = [round(per_node[code] * degree[code] * (degree[code] - 1) / 2) for code in codes]
    assert geo.triangles.tolist() == links
    assert betweenness(g) == loop_betweenness(g)


def test_betweenness_counts_2_pow_40_geodesics_exactly():
    # 40 diamonds in a row: hub H00 - {T, U} - H01 - ... - H40, so H00 and
    # H40 are joined by 2^40 geodesics.
    edges = []
    for k in range(40):
        left, right = f"H{k:02d}", f"H{k + 1:02d}"
        edges += [(left, f"T{k:02d}"), (left, f"U{k:02d}"), (f"T{k:02d}", right), (f"U{k:02d}", right)]
    g = graph_from_edges(edges)
    result = betweenness(g)
    assert result == loop_betweenness(g)
    # Interior hub Hk separates 3k nodes from 3(40-k); each of those pairs
    # passes through it, and so does half of each neighbouring diamond's
    # T-U pair.
    norm = (g.n - 1) * (g.n - 2) / 2
    for k in range(1, 40):
        assert math.isclose(result[f"H{k:02d}"] * norm, 9 * k * (40 - k) + 1, rel_tol=1e-12)


def test_closeness_path():
    result = closeness(path_graph("ABC"))
    assert result["B"] == 0.5
    assert abs(result["A"] - 1 / 3) < 1e-12
    assert abs(result["C"] - 1 / 3) < 1e-12


def test_closeness_complete_graph():
    result = closeness(k_graph(4))
    for value in result.values():
        assert abs(value - 1 / 3) < 1e-12


def test_closeness_stays_within_component():
    result = closeness(graph_from_edges([("A", "B"), ("C", "D")]))
    assert all(value == 1.0 for value in result.values())


def test_closeness_isolated_is_zero():
    result = closeness(graph_from_edges([("A", "B")], nodes=["A", "B", "Z"]))
    assert result["Z"] == 0.0


def test_closeness_monotone_under_edge_addition():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(4, 9)
        labels, edges = random_edges(rng, n, 0.5)
        g = graph_from_edges(edges, nodes=labels)
        part = components(g)
        # pick a missing edge inside one component, if any
        candidates = [
            (a, b)
            for a, b in combinations(labels, 2)
            if not g.has_edge(a, b) and part.assignment[a] == part.assignment[b]
        ]
        if not candidates:
            continue
        extra = rng.choice(candidates)
        g2 = graph_from_edges(edges + [extra], nodes=labels)
        before = closeness(g)
        after = closeness(g2)
        comp = {c for c in labels if part.assignment[c] == part.assignment[extra[0]]}
        for code in comp:
            # farness can only shrink, so closeness can only grow
            assert after[code] >= before[code] - 1e-12


# ---------------------------------------------------------------------------
# clustering


def test_clustering_reference_node(fixture_graph):
    per_node, _ = clustering(fixture_graph)
    assert abs(per_node["A"] - 1 / 3) < 1e-12


def test_clustering_triangle_both_modes():
    tri = k_graph(3)
    for mode in ("exclude_low_degree", "zero_low_degree"):
        per_node, average = clustering(tri, mode)
        assert all(value == 1.0 for value in per_node.values())
        assert average == 1.0


def test_clustering_star():
    per_node, average = clustering(star_graph(3))
    assert per_node["S"] == 0.0
    assert per_node["L0"] is None
    assert average == 0.0


def test_clustering_zero_mode_counts_low_degree():
    g = graph_from_edges([("A", "B"), ("A", "C"), ("B", "C"), ("C", "D")])
    _, avg_excl = clustering(g, "exclude_low_degree")
    per_zero, avg_zero = clustering(g, "zero_low_degree")
    assert per_zero["D"] == 0.0
    assert avg_zero < avg_excl


def test_clustering_unknown_mode():
    with pytest.raises(UsageError):
        clustering(k_graph(3), "strict")


# ---------------------------------------------------------------------------
# degree distribution / clique / top-k


def test_degree_distribution_star():
    assert degree_distribution(star_graph(3)) == [
        {"degree": 1, "count": 3, "probability": 0.75},
        {"degree": 3, "count": 1, "probability": 0.25},
    ]


def test_degree_distribution_cycle():
    c5 = graph_from_edges([(f"N{i}", f"N{(i + 1) % 5}") for i in range(5)])
    assert degree_distribution(c5) == [{"degree": 2, "count": 5, "probability": 1.0}]


def test_degree_distribution_reference_graph(fixture_graph):
    rows = degree_distribution(fixture_graph)
    assert [(row["degree"], row["count"]) for row in rows] == [(1, 1), (2, 2), (3, 3), (4, 2)]


def test_degree_probabilities_sum_to_one():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert abs(sum(row["probability"] for row in degree_distribution(g)) - 1.0) <= 1e-12


def test_is_clique():
    tri = k_graph(3)
    assert is_clique(tri, tri.codes())
    path = path_graph("ABC")
    assert not is_clique(path, ["A", "B", "C"])
    assert is_clique(path, ["A"])
    assert is_clique(path, [])
    with pytest.raises(UsageError):
        is_clique(path, ["A", "Z"])


def test_top_k_tie_break():
    g = graph_from_edges(
        [("B", "A"), ("B", "C"), ("B", "D"), ("B", "E"), ("A", "C"), ("A", "F"), ("C", "F")]
    )
    assert g.degree("A") == 3 and g.degree("B") == 4 and g.degree("C") == 3
    assert top_k_by_degree(g, 2) == ["B", "A"]


def test_top_k_truncation(fixture_graph):
    everything = top_k_by_degree(fixture_graph, 100)
    assert len(everything) == 8
    degrees = [fixture_graph.degree(c) for c in everything]
    assert degrees == sorted(degrees, reverse=True)
    assert top_k_by_degree(fixture_graph, 1) == ["B"]
    with pytest.raises(UsageError):
        top_k_by_degree(fixture_graph, 0)


def test_top_k_invariant_under_insertion_order():
    rng = random.Random(41)
    labels, edges = random_edges(rng, 10, 0.4)
    base = top_k_by_degree(graph_from_edges(edges, nodes=labels), 5)
    for _ in range(5):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        shuffled = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in shuffled]
        assert top_k_by_degree(graph_from_edges(shuffled, nodes=labels), 5) == base


# ---------------------------------------------------------------------------
# small world


def test_small_world_complete_graph_sigma_is_one():
    report = small_world(k_graph(10), samples=5, seed=0)
    assert report.sigma == 1.0
    assert report.l_actual == 1.0
    assert report.c_actual == 1.0


def test_small_world_ring_lattice_exceeds_one():
    report = small_world(ring_lattice(20, 2), samples=100, seed=0)
    assert report.sigma > 1.0


def test_small_world_reproducible():
    g = ring_lattice(12, 2)
    a = small_world(g, samples=40, seed=123)
    b = small_world(g, samples=40, seed=123)
    assert a == b
    c = small_world(g, samples=40, seed=124)
    assert c != a


def test_small_world_preconditions():
    with pytest.raises(UsageError):
        small_world(k_graph(10), samples=0, seed=0)
    with pytest.raises(UsageError):
        small_world(graph_from_edges([("A", "B")]), samples=10, seed=0)
    # random.Random(-5) draws exactly what random.Random(5) draws.
    with pytest.raises(UsageError, match="seed"):
        small_world(k_graph(10), samples=5, seed=-5)


def test_small_world_baseline_on_criterion_9_graph(tmp_path, registry):
    # The random baseline of the rng.sample draw this sampler replaced was
    # C 0.4957952, L 1.5044444, sigma 1.38; the keyed draw must stay near it.
    report = small_world(criterion_9_graph(tmp_path, registry), samples=100, seed=0)
    assert abs(report.c_random_mean - 0.4957952) <= 0.002
    assert abs(report.l_random_mean - 1.5044444) <= 0.002
    assert round(report.sigma, 2) == 1.38


def test_random_edge_set_properties():
    rng = random.Random(0)
    for n, m in ((5, 10), (10, 45), (8, 1), (6, 0)):
        pairs = rank_pairs(n, random_edge_set(n, m, rng))
        assert len(pairs) == m
        assert len(set(pairs)) == m
        for i, j in pairs:
            assert 0 <= i < j < n
    with pytest.raises(UsageError):
        random_edge_set(4, 7, rng)


def test_random_edge_set_covers_all_pairs():
    rng = random.Random(1)
    assert sorted(rank_pairs(5, random_edge_set(5, 10, rng))) == list(combinations(range(5), 2))


def loop_random_edge_set(n, m, rng):
    """Reference: the keyed draw in pure Python.

    Key r is bits 64r..64r+63 of one getrandbits(64 * total) call (sliced in
    blocks of 256 keys, so slicing stays linear); ranks sort by (key, rank)
    and the first m are returned in ascending rank order.
    """
    total = n * (n - 1) // 2
    bits = rng.getrandbits(64 * total)
    keys = []
    for start in range(0, total, 256):
        block = bits >> 64 * start & (2 ** (64 * 256) - 1)
        keys += [block >> 64 * r & (2**64 - 1) for r in range(min(256, total - start))]
    return sorted(sorted(range(total), key=lambda r: (keys[r], r))[:m])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_edge_set_matches_loop_unranking(data):
    n = data.draw(st.integers(0, 300), label="n")
    m = data.draw(st.integers(0, n * (n - 1) // 2), label="m")
    seed = data.draw(st.integers(0, 2**64), label="seed")
    ranks = random_edge_set(n, m, random.Random(seed))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == loop_random_edge_set(n, m, random.Random(seed))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64])
def test_random_edge_set_unranks_every_index(n):
    total = n * (n - 1) // 2
    ranks = random_edge_set(n, total, random.Random(0))
    assert ranks.tolist() == loop_random_edge_set(n, total, random.Random(0)) == list(range(total))
    assert rank_pairs(n, ranks) == list(combinations(range(n), 2))


class _ZeroBits:
    """An rng whose every key is 0, so every rank ties."""

    def getrandbits(self, k):
        return 0


@pytest.mark.parametrize("n, m", [(2, 1), (6, 0), (6, 4), (6, 15), (30, 200)])
def test_random_edge_set_ties_go_to_the_lower_rank(n, m):
    assert random_edge_set(n, m, _ZeroBits()).tolist() == list(range(m))


def test_random_edge_set_is_uniform_on_k5():
    # 6,000 seeded draws of 3 of K5's 10 pairs: 120 subsets, 50 expected
    # each. 172.5 is the chi-square 0.999 quantile at 119 degrees of freedom.
    rng = random.Random(0)
    counts = {}
    for _ in range(6000):
        subset = tuple(random_edge_set(5, 3, rng).tolist())
        counts[subset] = counts.get(subset, 0) + 1
    assert sorted(counts) == list(combinations(range(10), 3))
    assert sum((c - 50) ** 2 / 50 for c in counts.values()) < 172.5


def test_giant_component_codes():
    # Component ids follow the smallest member code, so the largest component
    # with the smallest id is the giant, ties going to the smallest code.
    for edges, nodes, expected in (
        ([("A", "B"), ("B", "C"), ("X", "Y")], None, ["A", "B", "C"]),
        ([("X", "Y"), ("B", "C")], ["A"], ["B", "C"]),
        ([], None, []),
    ):
        assignment = components(graph_from_edges(edges, nodes=nodes)).assignment
        ids = list(assignment.values())
        giant = max(set(ids), key=lambda c: (ids.count(c), -c), default=None)
        assert [code for code, c in assignment.items() if c == giant] == expected


# ---------------------------------------------------------------------------
# summary


def test_summary_reference_graph(fixture_graph):
    s = summary(fixture_graph)
    assert s.n == 8
    assert s.m == 11
    assert round(s.density, 2) == 0.39
    assert s.diameter == 4
    assert s.isolated_count == 0
    assert s.isolated_fraction == 0.0
    assert s.giant_size == 8
    assert s.giant_fraction == 1.0
    assert not s.empty


def test_summary_empty_graph():
    s = summary(graph_from_edges([], nodes=[]))
    assert s.empty
    assert s.n == 0 and s.m == 0
    assert s.density == 0.0
    assert s.diameter == 0
    assert s.mean_path_length == 0.0


def test_centrality_table_rows(fixture_graph):
    rows = centrality_table(fixture_graph)
    assert [row["code"] for row in rows] == sorted(fixture_graph.codes())
    b_row = next(row for row in rows if row["code"] == "B")
    assert b_row["degree"] == 4
    f_row = next(row for row in rows if row["code"] == "F")
    assert f_row["local_clustering"] is None


# ---------------------------------------------------------------------------
# oracle equivalence (smaller spot check; the full sweep runs in acceptance)


def test_metrics_match_bruteforce_oracle():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 10)
        labels, edges = random_edges(rng, n, rng.uniform(0.1, 0.9))
        g = graph_from_edges(edges, nodes=labels)

        assert components(g).sizes == oracle_components(labels, edges)

        diameter, endpoints, mean, pairs = oracle_path_stats(labels, edges)
        ps = path_stats(g)
        assert ps.diameter == diameter
        assert ps.diameter_endpoints == endpoints
        assert abs(ps.mean_path_length - mean) <= 1e-9
        assert ps.connected_pair_count == pairs

        expected_b = oracle_betweenness(labels, edges)
        for code, value in betweenness(g).items():
            assert abs(value - expected_b[code]) <= 1e-9

        expected_c = oracle_closeness(labels, edges)
        for code, value in closeness(g).items():
            assert abs(value - expected_c[code]) <= 1e-9

        for mode in ("exclude_low_degree", "zero_low_degree"):
            per_node, average = clustering(g, mode)
            oracle_per, oracle_avg = oracle_clustering(labels, edges, mode)
            assert abs(average - oracle_avg) <= 1e-9
            for code in labels:
                if oracle_per[code] is None:
                    assert per_node[code] is None
                else:
                    assert abs(per_node[code] - oracle_per[code]) <= 1e-9


def test_unnormalized_betweenness_counts_interior_incidences():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(3, 8)
        labels, edges = random_edges(rng, n, 0.5)
        g = graph_from_edges(edges, nodes=labels)
        norm = (n - 1) * (n - 2) / 2
        total = sum(betweenness(g).values()) * norm
        expected = sum(oracle_betweenness(labels, edges).values()) * norm
        assert abs(total - expected) <= 1e-9
        assert math.isfinite(total)
