import gc
import json
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coauthnet import (
    CoauthorshipGraph,
    DataError,
    ResolvedCorpus,
    TimeWindow,
    UsageError,
    parse_records,
    slice_windows,
    summary,
)
from coauthnet.graph import UNCLASSIFIED_SUBJECT, _checked, build_network, graph_from_edges, induced_subgraph
from coauthnet.ingest import PublicationRecord, RecordSet
from coauthnet.temporal import densification_snapshots, discipline_series, first_year_series

from bruteforce import oracle_edge_weights
from conftest import FIXTURE_CORPUS, synthetic_corpus_rows, write_jsonl


def _corpus(tmp_path, rows):
    return parse_records(write_jsonl(tmp_path / "corpus.jsonl", rows))


def test_build_from_records(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["Ukraine", "United States"]},
        {"id": "p3", "year": 1992, "countries": ["Ukraine"]},
    ]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.codes() == ["RUS", "UKR", "USA"]
    assert g.node("UKR").paper_count == 3
    assert g.node("RUS").paper_count == 1
    assert g.node("USA").paper_count == 1
    assert g.edges() == [("RUS", "UKR", 1), ("UKR", "USA", 1)]


def test_three_country_record_expands_pairwise(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia", "Germany"]}]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.edges() == [("DEU", "RUS", 1), ("DEU", "UKR", 1), ("RUS", "UKR", 1)]


def test_window_excludes_out_of_range_records(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 2000, "countries": ["France", "Japan"]},
    ]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph(TimeWindow(1999, 2001))
    assert g.codes() == ["FRA", "JPN"]
    assert not g.has_node("UKR")


def test_repeat_collaboration_accumulates_weight(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["Russia", "Ukraine"]},
    ]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.weight("RUS", "UKR") == 2
    assert g.node("UKR").paper_count == 2


def test_same_country_twice_in_record_is_single_node(tmp_path, registry):
    # Aliases of one country collapse to a single code, so no self-loop.
    rows = [{"id": "p1", "year": 1990, "countries": ["United States", "USA"]}]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.codes() == ["USA"]
    assert g.m == 0


def test_unknown_countries_dropped_but_known_kept(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Atlantis", "Ukraine", "France"]}]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.codes() == ["FRA", "UKR"]
    assert g.edges() == [("FRA", "UKR", 1)]


def test_first_year_spans_whole_corpus(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 2005, "countries": ["Ukraine", "France"]},
    ]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph(TimeWindow(2004, 2006))
    assert g.node("UKR").first_year == 1986
    assert g.node("FRA").first_year == 2005


def test_node_regions_come_from_registry(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "Japan"]}]
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    assert g.node("UKR").region == "Europe"
    assert g.node("JPN").region == "Asia"


def test_window_validation():
    with pytest.raises(UsageError):
        TimeWindow(2000, 1999)


def test_basic_stats_reference_graph(fixture_graph):
    st = summary(fixture_graph)
    assert st.n == 8
    assert st.m == 11
    assert abs(st.density - 11 / 28) < 1e-12
    assert abs(st.mean_degree - 11 / 8 * 2) < 1e-12
    assert st.max_degree == 4
    assert st.max_degree_codes == ["B", "E"]


def test_basic_stats_complete_graph():
    k4 = graph_from_edges(list(combinations("WXYZ", 2)))
    st = summary(k4)
    assert st.density == 1.0
    assert st.mean_degree == 3.0


def test_basic_stats_degenerate():
    empty = graph_from_edges([], nodes=[])
    assert summary(empty).density == 0.0
    single = graph_from_edges([], nodes=["A"])
    assert summary(single).density == 0.0
    assert summary(single).mean_degree == 0.0


def test_degree_sum_and_symmetry_on_built_graphs(tmp_path, registry):
    rng = random.Random(5)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Australia", "India"]
    rows = synthetic_corpus_rows(rng, 300, names)
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
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
    full = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    part_a = ResolvedCorpus(_corpus(tmp_path, rows[::2]), registry).graph()
    part_b = ResolvedCorpus(_corpus(tmp_path, rows[1::2]), registry).graph()

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
    years = [record.year for record in rs.records]
    assert corpus.span == (min(years), max(years))
    subjects = {}
    for record in rs.records:
        for subject in record.subjects or [UNCLASSIFIED_SUBJECT]:
            per_year = subjects.setdefault(subject, {})
            per_year[record.year] = per_year.get(record.year, 0) + 1
    assert UNCLASSIFIED_SUBJECT in subjects
    series = discipline_series(corpus)
    assert series == subjects
    assert list(series) == sorted(subjects) and all(list(s) == sorted(s) for s in series.values())

    windows = [TimeWindow(1990, 2005)]
    for length, step in ((1, 1), (3, 2), (5, 5), (7, 3)):
        for mode in ("sliding", "cumulative"):
            windows += slice_windows(corpus.span, length, step, mode)
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


def test_corpus_keeps_no_record_alive(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990, "countries": ["Ukraine", "Atlantis"], "subjects": ["Physics"]}]
    rs = _corpus(tmp_path, rows)
    corpus = ResolvedCorpus(rs, registry)
    record = weakref.ref(rs.records[0])
    del rs
    gc.collect()
    assert record() is None
    assert corpus.span == (1990, 1990) and corpus.graph().codes() == ["UKR"]
    assert corpus.coverage.unknown_country_names == [("Atlantis", 1)]


def test_window_size_matches_built_graph(tmp_path, registry):
    rng = random.Random(17)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Atlantis"]
    rs = _corpus(tmp_path, synthetic_corpus_rows(rng, 400, names))
    corpus = ResolvedCorpus(rs, registry)
    assert corpus.unknown

    windows = [TimeWindow(1990, 2005), TimeWindow(1900, 1900)]
    for length, step in ((1, 1), (3, 2), (5, 5), (7, 3)):
        for mode in ("sliding", "cumulative"):
            windows += slice_windows(corpus.span, length, step, mode)
    assert len(windows) > 40
    for window in windows:
        g = corpus.graph(window)
        assert next(corpus.sizes([window])) == (g.n, g.m), window
    snapshots = densification_snapshots(corpus, 2)
    assert snapshots[1] == [(g.n, g.m) for g in map(corpus.graph, snapshots[0])]


_STEP_NAMES = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Atlantis"]


@st.composite
def increasing_windows(draw):
    """Windows over 1995-2014 (the records span 2000-2009) with strictly
    increasing end years, lengths 1-7: gaps, overlaps and windows outside the
    corpus span all occur."""
    ends = sorted(draw(st.sets(st.integers(1995, 2014), max_size=8)))
    return [TimeWindow(end - draw(st.integers(0, 6)), end) for end in ends]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(2000, 2009), st.lists(st.sampled_from(_STEP_NAMES), max_size=4)), max_size=30),
    windows=increasing_windows(),
)
# Egypt publishes only in 2000: the second window, which keeps 2001, steps
# Egypt's count and its link to France down to 0.
@example(
    rows=[(2000, ["Egypt", "France"]), (2001, ["France", "Japan"]), (2003, ["Japan"])],
    windows=[TimeWindow(2000, 2001), TimeWindow(2001, 2003)],
)
def test_stepped_windows_match_recount(registry, tmp_path_factory, rows, windows):
    records = [PublicationRecord(id=f"r{i:03d}", year=year, raw_countries=names) for i, (year, names) in enumerate(rows)]
    rs = RecordSet(sorted(records, key=lambda r: (r.year, r.id)))
    corpus = ResolvedCorpus(rs, registry)
    resolved = [(r.year, [e.code for e in map(registry.resolve, r.raw_countries) if e]) for r in rs.records]
    first_year = {}
    for year, codes in resolved:
        for code in codes:
            first_year[code] = min(first_year.get(code, year), year)

    graphs = list(corpus.graphs(windows))
    assert [g.window for g in graphs] == windows
    path = tmp_path_factory.mktemp("stepped") / "graph.json"
    assert list(corpus.sizes(windows)) == [(g.n, g.m) for g in graphs]
    for window, g in zip(windows, graphs):
        in_window = [(year, codes) for year, codes in resolved if window.contains(year)]
        assert {(a, b): w for a, b, w in g.edges()} == oracle_edge_weights(in_window), window
        paper_count = {}
        for _, codes in in_window:
            for code in set(codes):
                paper_count[code] = paper_count.get(code, 0) + 1
        assert {c: g.node(c).paper_count for c in g.codes()} == paper_count, window
        assert {c: g.node(c).first_year for c in g.codes()} == {c: first_year[c] for c in paper_count}, window
        g.save(path)
        rebuilt = CoauthorshipGraph.load(path)
        assert g == rebuilt and g.m == rebuilt.m and g.degrees() == rebuilt.degrees(), window


@pytest.mark.parametrize("source", ["fixture", "synthetic"])
def test_loaded_corpus_equals_built_corpus(tmp_path, registry, source):
    if source == "fixture":
        rs = parse_records(FIXTURE_CORPUS)
    else:
        rows = synthetic_corpus_rows(random.Random(23), 500, ["Ukraine", "USSR", "France", "Japan", "Brazil", "Atlantis"])
        # 1980 lists no name the registry knows; 2020 lists no name and no subject.
        rows += [{"id": "x1", "year": 1980, "countries": ["Atlantis", "Narnia"]}, {"id": "x2", "year": 2020}]
        rs = _corpus(tmp_path, rows)
    built = ResolvedCorpus(rs, registry)
    if source == "synthetic":
        assert built.unknown and built.span == (1980, 2020) and built.graph(TimeWindow(1980, 1980)).n == 0
        assert built.subjects[2020] == {UNCLASSIFIED_SUBJECT: 1}
    path = tmp_path / "corpus.json"
    path.write_text(built.to_json(), encoding="utf-8")
    loaded = ResolvedCorpus.load(path)

    assert loaded.to_json() == built.to_json()
    for attr in ("papers", "with_affiliation", "unknown", "region", "first_year", "subjects", "span", "coverage"):
        assert getattr(loaded, attr) == getattr(built, attr), attr
    assert loaded.coverage is loaded.coverage
    for length, step in ((1, 1), (3, 2), (5, 5)):
        for mode in ("sliding", "cumulative"):
            windows = slice_windows(built.span, length, step, mode)
            assert list(loaded.graphs(windows)) == list(built.graphs(windows)), (length, step, mode)
            assert list(loaded.sizes(windows)) == list(built.sizes(windows)), (length, step, mode)
    assert first_year_series(loaded) == first_year_series(built)
    assert discipline_series(loaded) == discipline_series(built)


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
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    sub = induced_subgraph(g, {"UKR"})
    assert sub.node("UKR") == g.node("UKR")


def test_json_round_trip(tmp_path, registry):
    rng = random.Random(2)
    rows = synthetic_corpus_rows(rng, 100, ["Ukraine", "France", "Japan"])
    g = ResolvedCorpus(_corpus(tmp_path, rows), registry).graph()
    g.save(tmp_path / "graph.json")
    assert CoauthorshipGraph.load(tmp_path / "graph.json") == g


def test_json_is_canonical(fixture_graph):
    doc = json.loads(fixture_graph.to_json())
    assert [nd["code"] for nd in doc["nodes"]] == sorted(nd["code"] for nd in doc["nodes"])
    assert doc["edges"] == sorted(doc["edges"])
    assert fixture_graph.to_json() == fixture_graph.to_json()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        CoauthorshipGraph.load(path)
    path.write_text('{"nodes": []}', encoding="utf-8")
    with pytest.raises(DataError):
        CoauthorshipGraph.load(path)


def test_graph_validation():
    with pytest.raises(DataError, match="^self-loop on A$"):
        graph_from_edges([("A", "A")])
    with pytest.raises(DataError, match="^duplicate edge A-B$"):
        graph_from_edges([("A", "B"), ("B", "A", 2)])
    with pytest.raises(TypeError, match="^edge weight True has the wrong type$"):
        graph_from_edges([("A", "B", True)])
    for codes, edges, message in (
        (["A"], [("A", "B", 1)], "edge A-B references a missing node"),
        (["A", "B"], [("A", "B", 0)], "edge A-B weight 0 must be a positive integer"),
        (["A", "B"], [("A", "B", 1), ("B", "A", 1)], "edge B-A does not list its codes in order"),
        (["A", "A"], [], "duplicate node A"),
        (["B", "A"], [], "node A is listed after B"),
    ):
        with pytest.raises(DataError, match=f"^{message}$"):
            _checked(codes, edges)


# Edge faults, and the message that names each in a graph.json and in a corpus.json year.
_EDGE_FAULTS = {
    "self-loop": ([["AT", "AT", 1]], "self-loop on AT"),
    "missing-endpoint": ([["AT", "CH", 1]], "edge AT-CH references a missing node"),
    "zero-weight": ([["AT", "BE", 0]], "edge AT-BE weight 0 must be a positive integer"),
    "bool-weight": ([["AT", "BE", True]], "edge weight True has the wrong type"),
    "float-weight": ([["AT", "BE", 1.5]], "edge weight 1.5 has the wrong type"),
    "int-endpoint": ([["AT", 7, 1]], "edge endpoint 7 has the wrong type"),
    "duplicate-edge": ([["AT", "BE", 1], ["AT", "BE", 2]], "duplicate edge AT-BE"),
    "reversed-edge": ([["BE", "AT", 1]], "edge BE-AT does not list its codes in order"),
    "unsorted-edges": ([["AT", "CZ", 1], ["AT", "BE", 1]], "edge AT-BE is listed after AT-CZ"),
    "long-edge": ([["AT", "BE", 1, 5]], "edge ['AT', 'BE', 1, 5] has 4 entries, not 3"),
    "short-edge": ([["AT", "BE"]], "edge ['AT', 'BE'] has 2 entries, not 3"),
    "string-edge": (["ATB"], "edge 'ATB' has the wrong type"),
    "order-fault-before-type-fault": ([["BE", "AT", 1], ["AT", "CZ", True]], "edge BE-AT does not list its codes in order"),
}


@pytest.mark.parametrize("links, message", _EDGE_FAULTS.values(), ids=list(_EDGE_FAULTS))
def test_edge_faults_read_alike_in_graph_and_corpus_json(tmp_path, links, message):
    codes = ["AT", "BE", "CZ"]
    graph = {"window": {"start_year": 1990, "end_year": 1990}, "nodes": [{"code": code} for code in codes], "edges": links}
    corpus = {"papers": 2, "with_affiliation": 2, "region": dict.fromkeys(codes, "Europe"), "unknown": {},
              "years": {"1990": [dict.fromkeys(codes, 1), links, {}]}}
    for kind, doc, load in (("graph", graph, CoauthorshipGraph.load), ("corpus", corpus, ResolvedCorpus.load)):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load(path)
        assert str(caught.value).removeprefix(f"{path}: ").removeprefix(f"malformed {kind} document: ") == message, kind


@pytest.mark.parametrize("kind", ["graph", "corpus"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_only_the_canonical_spelling_loads(tmp_path, registry, kind, data):
    """Reordering the nodes, edges or a year's links of a canonical graph.json or
    corpus.json, or listing some edges b, a, loads only when nothing changed."""
    corpus = ResolvedCorpus(parse_records(FIXTURE_CORPUS), registry)
    canonical = corpus.graph().to_json() if kind == "graph" else corpus.to_json()
    doc = json.loads(canonical)
    if kind == "graph":
        holder, key = doc, data.draw(st.sampled_from(["nodes", "edges"]))
    else:
        holder, key = doc["years"][data.draw(st.sampled_from(sorted(doc["years"])))], 1
    items = holder[key]
    order = data.draw(st.permutations(range(len(items))))
    flipped = set() if key == "nodes" else data.draw(st.sets(st.sampled_from(range(len(items))), max_size=2))
    holder[key] = [[items[i][1], items[i][0], items[i][2]] if i in flipped else items[i] for i in order]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    load = CoauthorshipGraph.load if kind == "graph" else ResolvedCorpus.load
    if order == list(range(len(items))) and not flipped:
        assert load(path).to_json() == canonical
    else:
        with pytest.raises(DataError, match="is listed after|does not list its codes in order"):
            load(path)


def test_empty_records_skipped_for_graph_but_counted(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine", "France"]},
        {"id": "p2", "year": 1990},
    ]
    rs = _corpus(tmp_path, rows)
    corpus = ResolvedCorpus(rs, registry)
    assert corpus.graph().n == 2
    assert corpus.coverage.kept_after_topic_filter == 2
    assert corpus.coverage.with_affiliation == 1
