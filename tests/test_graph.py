import random
from itertools import combinations

import pytest

from coauthnet import (
    CoauthorshipGraph,
    DataError,
    NodeAttr,
    ResolvedCorpus,
    TimeWindow,
    UsageError,
    basic_stats,
    build_network,
    graph_from_edges,
    induced_subgraph,
    parse_records,
    slice_windows,
)
from coauthnet.temporal import densification_snapshots

from bruteforce import oracle_edge_weights
from conftest import synthetic_corpus_rows, write_jsonl


def _corpus(tmp_path, rows):
    return parse_records(write_jsonl(tmp_path / "corpus.jsonl", rows))


def test_build_from_records(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["Ukraine", "United States"]},
        {"id": "p3", "year": 1992, "countries": ["Ukraine"]},
    ]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.codes() == ["RUS", "UKR", "USA"]
    assert g.node("UKR").paper_count == 3
    assert g.node("RUS").paper_count == 1
    assert g.node("USA").paper_count == 1
    assert g.edges() == [("RUS", "UKR", 1), ("UKR", "USA", 1)]


def test_three_country_record_expands_pairwise(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia", "Germany"]}]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.edges() == [("DEU", "RUS", 1), ("DEU", "UKR", 1), ("RUS", "UKR", 1)]


def test_window_excludes_out_of_range_records(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 2000, "countries": ["France", "Japan"]},
    ]
    g = build_network(_corpus(tmp_path, rows), registry, TimeWindow(1999, 2001))
    assert g.codes() == ["FRA", "JPN"]
    assert not g.has_node("UKR")


def test_repeat_collaboration_accumulates_weight(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["Russia", "Ukraine"]},
    ]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.weight("RUS", "UKR") == 2
    assert g.node("UKR").paper_count == 2


def test_same_country_twice_in_record_is_single_node(tmp_path, registry):
    # Aliases of one country collapse to a single code, so no self-loop.
    rows = [{"id": "p1", "year": 1990, "countries": ["United States", "USA"]}]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.codes() == ["USA"]
    assert g.m == 0


def test_unknown_countries_dropped_but_known_kept(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Atlantis", "Ukraine", "France"]}]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.codes() == ["FRA", "UKR"]
    assert g.edges() == [("FRA", "UKR", 1)]


def test_first_year_spans_whole_corpus(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 2005, "countries": ["Ukraine", "France"]},
    ]
    g = build_network(_corpus(tmp_path, rows), registry, TimeWindow(2004, 2006))
    assert g.node("UKR").first_year == 1986
    assert g.node("FRA").first_year == 2005


def test_node_regions_come_from_registry(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "Japan"]}]
    g = build_network(_corpus(tmp_path, rows), registry)
    assert g.node("UKR").region == "Europe"
    assert g.node("JPN").region == "Asia"


def test_window_validation():
    with pytest.raises(UsageError):
        TimeWindow(2000, 1999)


def test_basic_stats_reference_graph(fixture_graph):
    st = basic_stats(fixture_graph)
    assert st.n == 8
    assert st.m == 11
    assert abs(st.density - 11 / 28) < 1e-12
    assert abs(st.mean_degree - 11 / 8 * 2) < 1e-12
    assert st.max_degree == 4
    assert st.max_degree_codes == ["B", "E"]


def test_basic_stats_complete_graph():
    k4 = graph_from_edges(list(combinations("WXYZ", 2)))
    st = basic_stats(k4)
    assert st.density == 1.0
    assert st.mean_degree == 3.0


def test_basic_stats_degenerate():
    empty = graph_from_edges([], nodes=[])
    assert basic_stats(empty).density == 0.0
    single = graph_from_edges([], nodes=["A"])
    assert basic_stats(single).density == 0.0
    assert basic_stats(single).mean_degree == 0.0


def test_degree_sum_and_symmetry_on_built_graphs(tmp_path, registry):
    rng = random.Random(5)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Australia", "India"]
    rows = synthetic_corpus_rows(rng, 300, names)
    g = build_network(_corpus(tmp_path, rows), registry)
    degrees = g.degrees()
    assert sum(degrees.values()) == 2 * g.m
    for a, b, w in g.edges():
        assert a != b
        assert w >= 1
        assert g.has_edge(b, a)
        assert g.weight(b, a) == w
        assert w <= min(g.node(a).paper_count, g.node(b).paper_count)


def test_build_is_additive_over_record_partitions(tmp_path, registry):
    rng = random.Random(9)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt"]
    rows = synthetic_corpus_rows(rng, 200, names)
    full = build_network(_corpus(tmp_path, rows), registry)
    part_a = build_network(_corpus(tmp_path, rows[::2]), registry)
    part_b = build_network(_corpus(tmp_path, rows[1::2]), registry)

    merged_weights = {}
    for part in (part_a, part_b):
        for a, b, w in part.edges():
            merged_weights[(a, b)] = merged_weights.get((a, b), 0) + w
    assert merged_weights == {(a, b): w for a, b, w in full.edges()}

    merged_counts = {}
    for part in (part_a, part_b):
        for code in part.codes():
            merged_counts[code] = merged_counts.get(code, 0) + part.node(code).paper_count
    assert merged_counts == {c: full.node(c).paper_count for c in full.codes()}


def test_edge_weights_match_bruteforce_recount(tmp_path, registry):
    rng = random.Random(13)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Atlantis"]
    rows = synthetic_corpus_rows(rng, 400, names)
    rs = _corpus(tmp_path, rows)
    corpus = ResolvedCorpus(rs, registry)

    resolved = []
    for record in rs.records:
        codes = [registry.resolve(raw).code for raw in record.raw_countries if registry.resolve(raw)]
        resolved.append((record.year, codes))
    first_year = {}
    for year, codes in resolved:
        for code in codes:
            first_year[code] = min(first_year.get(code, year), year)

    windows = [TimeWindow(1990, 2005)]
    for length, step in ((1, 1), (3, 2), (5, 5), (7, 3)):
        for mode in ("sliding", "cumulative"):
            windows += slice_windows(rs, length, step, mode)
    assert len(windows) > 40
    for window in windows:
        g = corpus.graph(window)
        in_window = [(year, codes) for year, codes in resolved if window.contains(year)]
        assert oracle_edge_weights(in_window) == {(a, b): w for a, b, w in g.edges()}, window
        paper_count = {}
        for _, codes in in_window:
            for code in set(codes):
                paper_count[code] = paper_count.get(code, 0) + 1
        assert {c: g.node(c).paper_count for c in g.codes()} == paper_count, window
        assert {c: g.node(c).first_year for c in g.codes()} == {c: first_year[c] for c in paper_count}, window
        assert g == build_network(rs, registry, window)


def test_window_size_matches_built_graph(tmp_path, registry):
    rng = random.Random(17)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Atlantis"]
    rs = _corpus(tmp_path, synthetic_corpus_rows(rng, 400, names))
    corpus = ResolvedCorpus(rs, registry)
    assert corpus.unknown

    windows = [TimeWindow(1990, 2005), TimeWindow(1900, 1900)]
    for length, step in ((1, 1), (3, 2), (5, 5), (7, 3)):
        for mode in ("sliding", "cumulative"):
            windows += slice_windows(rs, length, step, mode)
    assert len(windows) > 40
    for window in windows:
        g = corpus.graph(window)
        assert corpus.size(window) == (g.n, g.m), window
    snapshots = densification_snapshots(corpus, 2)
    assert snapshots[1] == [(g.n, g.m) for g in map(corpus.graph, snapshots[0])]


def test_induced_subgraph():
    tri = graph_from_edges([("A", "B"), ("B", "C"), ("A", "C")])
    sub = induced_subgraph(tri, {"A", "B"})
    assert sub.codes() == ["A", "B"]
    assert sub.edges() == [("A", "B", 1)]
    assert induced_subgraph(tri, {"A", "B", "C"}) == tri
    lone = induced_subgraph(tri, {"A"})
    assert lone.n == 1 and lone.m == 0
    with pytest.raises(UsageError):
        induced_subgraph(tri, {"A", "Z"})


def test_induced_subgraph_keeps_attributes(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "France"]}]
    g = build_network(_corpus(tmp_path, rows), registry)
    sub = induced_subgraph(g, {"UKR"})
    assert sub.node("UKR") == g.node("UKR")


def test_json_round_trip(tmp_path, registry):
    rng = random.Random(2)
    rows = synthetic_corpus_rows(rng, 100, ["Ukraine", "France", "Japan"])
    g = build_network(_corpus(tmp_path, rows), registry)
    assert CoauthorshipGraph.from_json(g.to_json()) == g
    g.save(tmp_path / "graph.json")
    assert CoauthorshipGraph.load(tmp_path / "graph.json") == g


def test_json_is_canonical(fixture_graph):
    doc = fixture_graph.to_dict()
    assert [nd["code"] for nd in doc["nodes"]] == sorted(nd["code"] for nd in doc["nodes"])
    assert doc["edges"] == sorted(doc["edges"])
    assert fixture_graph.to_json() == fixture_graph.to_json()


def test_from_json_rejects_garbage():
    with pytest.raises(DataError):
        CoauthorshipGraph.from_json("{not json")
    with pytest.raises(DataError):
        CoauthorshipGraph.from_json('{"nodes": []}')


def test_graph_validation():
    with pytest.raises(DataError, match="self-loop"):
        graph_from_edges([("A", "A")])
    with pytest.raises(DataError, match="missing node"):
        CoauthorshipGraph([NodeAttr("A")], [("A", "B", 1)], TimeWindow(0, 0))
    with pytest.raises(DataError, match="weight"):
        CoauthorshipGraph([NodeAttr("A"), NodeAttr("B")], [("A", "B", 0)], TimeWindow(0, 0))
    with pytest.raises(DataError, match="duplicate edge"):
        CoauthorshipGraph([NodeAttr("A"), NodeAttr("B")], [("A", "B", 1), ("B", "A", 1)], TimeWindow(0, 0))


def test_empty_records_skipped_for_graph_but_counted(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "France"]},
        {"id": "p2", "year": 1990},
    ]
    rs = _corpus(tmp_path, rows)
    g = build_network(rs, registry)
    assert g.n == 2
    assert rs.coverage.total == 2
    assert rs.coverage.with_affiliation == 1
