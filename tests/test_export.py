import math
import random
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coauthnet import DataError, TimeWindow, UsageError
from coauthnet.countries import REGIONS
from coauthnet.export import (
    EDGE_W_MAX,
    EDGE_W_MIN,
    LAYOUT_KINDS,
    R_MAX,
    R_MIN,
    SIZE_ATTRS,
    LayoutSpec,
    compute_layout,
    emit_series,
    escape,
    read_dot,
    read_pajek,
    render_network_svg,
    write_dot,
    write_pajek,
    write_window_series,
)
from coauthnet.graph import CoauthorshipGraph, NodeAttr, _checked, build_network, graph_from_edges
from coauthnet.ingest import parse_records
from coauthnet.temporal import SUMMARY_SELECTORS, WindowSeries

from conftest import FIXTURE_CORPUS, FIXTURE_EDGES, random_edges


def attr_graph(edges, attrs):
    codes = sorted(attrs)
    return CoauthorshipGraph([NodeAttr(code, **attrs[code]) for code in codes], _checked(codes, edges), TimeWindow(0, 0))


# ---------------------------------------------------------------------------
# Pajek


def test_pajek_two_node_document():
    g = graph_from_edges([("UA", "US", 3)])
    net, clu = write_pajek(g)
    assert net == '*Vertices 2\n1 "UA"\n2 "US"\n*Edges\n1 2 3\n'
    assert clu == "*Vertices 2\n0\n0\n"


def test_pajek_empty_graph():
    net, _ = write_pajek(graph_from_edges([], nodes=[]))
    assert net == "*Vertices 0\n*Edges\n"


def test_pajek_reference_graph_round_trip(fixture_graph):
    net, _ = write_pajek(fixture_graph)
    lines = net.splitlines()
    assert lines[0] == "*Vertices 8"
    assert lines[9] == "*Edges"
    assert len(lines) == 1 + 8 + 1 + 11
    labels, edges = read_pajek(net)
    assert labels == fixture_graph.codes()
    assert edges == {(a, b): w for a, b, w in fixture_graph.edges()}


def test_pajek_partition_document():
    g = attr_graph([("UA", "US", 1)], {"UA": {"region": "Europe"}, "US": {"region": "NorthAmerica"}})
    _, clu = write_pajek(g)
    assert clu == "*Vertices 2\n1\n3\n"


def _edit(text: str, start: int, stop: int, *new: str) -> str:
    """`text` with its 1-based lines start..stop-1 replaced by `new`."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[: start - 1] + list(new) + lines[stop - 1 :])


# A 4-node, 4-edge export each reader must reject once one line of it changes.
_EDITED = graph_from_edges([("A", "B", 2), ("A", "C", 1), ("B", "C", 3), ("C", "D", 1)])
_NET = write_pajek(_EDITED)[0]  # line 1 *Vertices 4, 2-5 vertices, 6 *Edges, 7-10 edges
_DOT = write_dot(_EDITED, compute_layout(_EDITED, LayoutSpec(size_attr="degree")))  # 1 header, 2-5, 6-9, 10 }
_DOT_LINES = _DOT.splitlines(keepends=True)

# Malformed text and the line its DataError names.
_BAD_NET = {
    "no-header": ('1 "A"\n', 1),
    "bogus-vertex": ("*Vertices 1\nbogus line\n", 1),
    "vertex-count": ('*Vertices 2\n1 "A"\n*Edges\n', 1),
    "unknown-index": ('*Vertices 1\n1 "A"\n*Edges\n1 9 1\n', 4),
    "crlf": (_NET.replace("\n", "\r\n"), 1),
    "blank-line": (_edit(_NET, 3, 3, "\n"), 3),
    "trailing-space": (_edit(_NET, 2, 3, '1 "A" \n'), 2),
    "no-final-newline": (_NET[:-1], 10),
    "duplicate-edge": (_edit(_NET, 8, 8, "1 2 2\n"), 8),
    "swapped-edges": (_edit(_NET, 7, 9, "1 3 1\n", "1 2 2\n"), 7),
    "reversed-edge": (_edit(_NET, 7, 8, "2 1 2\n"), 7),
    "no-weight": (_edit(_NET, 7, 8, "1 2\n"), 7),
    "lower-case-header": (_NET.replace("*Vertices", "*vertices"), 1),
}


@pytest.mark.parametrize("text, line", _BAD_NET.values(), ids=list(_BAD_NET))
def test_pajek_reader_rejects_malformed(text, line):
    with pytest.raises(DataError) as info:
        read_pajek(text)
    assert info.value.line == line


def test_pajek_round_trip_random_graphs():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(0, 12)
        labels, edges = random_edges(rng, n, rng.random())
        weighted = [(a, b, rng.randint(1, 9)) for a, b in edges]
        g = graph_from_edges(weighted, nodes=labels)
        net, _ = write_pajek(g)
        back_labels, back_edges = read_pajek(net)
        assert back_labels == g.codes()
        assert back_edges == {(a, b): w for a, b, w in g.edges()}


# ---------------------------------------------------------------------------
# DOT

_DOT_SPEC = LayoutSpec(kind="circular", size_attr="degree")


def test_dot_single_edge():
    g = graph_from_edges([("A", "B", 2)])
    text = write_dot(g, compute_layout(g, _DOT_SPEC))
    assert text.count("--") == 1
    assert '"A" -- "B" [weight=2, penwidth=8.00];' in text
    assert text.startswith("graph coauthorship {\n")
    assert text.endswith("}\n")


def test_dot_empty_graph():
    g = graph_from_edges([], nodes=[])
    assert write_dot(g, compute_layout(g, _DOT_SPEC)) == "graph coauthorship {\n}\n"


def test_dot_triangle_sorted():
    g = graph_from_edges([("C", "B"), ("B", "A"), ("A", "C")])
    text = write_dot(g, compute_layout(g, _DOT_SPEC))
    edge_lines = [line for line in text.splitlines() if "--" in line]
    assert edge_lines == [
        '  "A" -- "B" [weight=1, penwidth=8.00];',
        '  "A" -- "C" [weight=1, penwidth=8.00];',
        '  "B" -- "C" [weight=1, penwidth=8.00];',
    ]


def test_dot_round_trip_random_graphs():
    rng = random.Random(32)
    for _ in range(25):
        labels, edges = random_edges(rng, rng.randint(0, 10), rng.random())
        weighted = [(a, b, rng.randint(1, 9)) for a, b in edges]
        g = graph_from_edges(weighted, nodes=labels)
        back_nodes, back_edges = read_dot(write_dot(g, compute_layout(g, _DOT_SPEC)))
        assert back_nodes == g.codes()
        assert back_edges == {(a, b): w for a, b, w in g.edges()}


def test_dot_with_layout_still_round_trips(fixture_graph):
    text = write_dot(fixture_graph, compute_layout(fixture_graph, _DOT_SPEC))
    assert 'pos="' in text
    nodes, edges = read_dot(text)
    assert nodes == fixture_graph.codes()
    assert edges == {(a, b): w for a, b, w in fixture_graph.edges()}


_BAD_DOT = {
    "garbage": ("graph coauthorship {\n  what is this\n}\n", 2),
    "crlf": (_DOT.replace("\n", "\r\n"), 1),
    "blank-line": (_edit(_DOT, 3, 3, "\n"), 3),
    "trailing-space": (_edit(_DOT, 2, 3, _DOT_LINES[1][:-1] + " \n"), 2),
    "no-final-newline": (_DOT[:-1], 10),
    "duplicate-edge": (_edit(_DOT, 7, 7, _DOT_LINES[5]), 7),
    "swapped-edges": (_edit(_DOT, 6, 8, _DOT_LINES[6], _DOT_LINES[5]), 7),
    "reversed-edge": (_edit(_DOT, 6, 7, _DOT_LINES[5].replace('"A" -- "B"', '"B" -- "A"')), 6),
    "no-closing-brace": (_edit(_DOT, 10, 11), 10),
}


@pytest.mark.parametrize("text, line", _BAD_DOT.values(), ids=list(_BAD_DOT))
def test_dot_reader_rejects_garbage(text, line):
    with pytest.raises(DataError) as info:
        read_dot(text)
    assert info.value.line == line


@pytest.mark.parametrize("kind", LAYOUT_KINDS)
@pytest.mark.parametrize("size_attr", SIZE_ATTRS)
def test_dot_round_trips_under_every_layout(kind, size_attr, registry):
    g = build_network(parse_records(FIXTURE_CORPUS), registry)
    nodes, edges = read_dot(write_dot(g, compute_layout(g, LayoutSpec(kind=kind, size_attr=size_attr))))
    assert nodes == g.codes()
    assert edges == {(a, b): w for a, b, w in g.edges()}


# ---------------------------------------------------------------------------
# layout


def test_circular_positions_by_code():
    g = graph_from_edges([], nodes=["A", "B", "C", "D"])
    layout = compute_layout(g, LayoutSpec(kind="circular", size_attr="none"))
    for i, code in enumerate(["A", "B", "C", "D"]):
        angle = math.radians(90.0 + i * 90.0)
        assert layout.positions[code][0] == pytest.approx(0.5 + 0.42 * math.cos(angle))
        assert layout.positions[code][1] == pytest.approx(0.5 + 0.42 * math.sin(angle))


def test_positions_stay_in_unit_square(fixture_graph):
    for kind in ("circular", "center_top_k"):
        layout = compute_layout(fixture_graph, LayoutSpec(kind=kind, size_attr="degree", k=3))
        for x, y in layout.positions.values():
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0


def test_center_top_k_inner_nodes():
    # star centre S plus the extra edge L0-L1: S and L0 have the top degrees
    g = graph_from_edges([("S", "L0"), ("S", "L1"), ("S", "L2"), ("L0", "L1")])
    spec = LayoutSpec(kind="center_top_k", size_attr="degree", k=2)
    layout = compute_layout(g, spec)
    center = (0.5, 0.5)

    def dist(code):
        x, y = layout.positions[code]
        return math.hypot(x - center[0], y - center[1])

    assert layout.highlight == ("S", "L0")
    for code in g.codes():
        if code in layout.highlight:
            assert dist(code) == pytest.approx(0.16)
        else:
            assert dist(code) == pytest.approx(0.42)

    svg = render_network_svg(g, layout)
    assert svg.count('stroke="#e0a800"') == 1  # only the S-L0 edge is highlighted


def test_grouped_circles_by_region():
    g = attr_graph(
        [("FRA", "JPN", 1)],
        {
            "FRA": {"region": "Europe", "paper_count": 1},
            "JPN": {"region": "Asia", "paper_count": 1},
            "UKR": {"region": "Europe", "paper_count": 1},
        },
    )
    layout = compute_layout(g, LayoutSpec(kind="grouped_circles", size_attr="none"))
    europe_slot = (0.5 + 0.32 * math.cos(math.radians(90)), 0.5 + 0.32 * math.sin(math.radians(90)))
    asia_slot = (0.5 + 0.32 * math.cos(math.radians(150)), 0.5 + 0.32 * math.sin(math.radians(150)))
    for code, slot in (("FRA", europe_slot), ("UKR", europe_slot), ("JPN", asia_slot)):
        x, y = layout.positions[code]
        assert math.hypot(x - slot[0], y - slot[1]) == pytest.approx(0.13)


def test_grouped_circles_requires_regions(fixture_graph):
    with pytest.raises(UsageError, match="region"):
        compute_layout(fixture_graph, LayoutSpec(kind="grouped_circles", size_attr="none"))


def test_year_bands_chronological():
    g = attr_graph(
        [],
        {
            "AAA": {"first_year": 1986},
            "BBB": {"first_year": 1990},
            "CCC": {"first_year": 1986},
        },
    )
    layout = compute_layout(g, LayoutSpec(kind="year_bands", size_attr="none"))
    assert layout.positions["AAA"][1] == layout.positions["CCC"][1]
    assert layout.positions["AAA"][1] < layout.positions["BBB"][1]


def test_year_bands_requires_first_year(fixture_graph):
    with pytest.raises(UsageError, match="first year"):
        compute_layout(fixture_graph, LayoutSpec(kind="year_bands", size_attr="none"))


def test_radius_scaling_boundaries():
    g = attr_graph(
        [],
        {
            "AAA": {"paper_count": 16},
            "BBB": {"paper_count": 0},
            "CCC": {"paper_count": 4},
        },
    )
    layout = compute_layout(g, LayoutSpec(kind="circular", size_attr="paper_count", gamma=0.5))
    assert layout.radii["AAA"] == pytest.approx(R_MAX)
    assert layout.radii["BBB"] == pytest.approx(R_MIN)
    # (4/16)^0.5 = 0.5 of the range
    assert layout.radii["CCC"] == pytest.approx(R_MIN + (R_MAX - R_MIN) * 0.5)


def test_radius_scaling_monotone():
    rng = random.Random(8)
    counts = [rng.randint(0, 50) for _ in range(12)]
    attrs = {f"C{i:02d}": {"paper_count": c} for i, c in enumerate(counts)}
    g = attr_graph([], attrs)
    layout = compute_layout(g, LayoutSpec(kind="circular", size_attr="paper_count", gamma=0.4))
    ordered = sorted(attrs, key=lambda c: attrs[c]["paper_count"])
    for lo, hi in zip(ordered, ordered[1:]):
        assert layout.radii[lo] <= layout.radii[hi] + 1e-15


def test_edge_width_scaling():
    g = graph_from_edges([("A", "B", 1), ("B", "C", 4)])
    layout = compute_layout(g, LayoutSpec(kind="circular", size_attr="none", gamma=0.5))
    assert [edge[:3] for edge in layout.edges] == g.edges()
    widths = [width for *_, width in layout.edges]
    assert widths[1] == pytest.approx(EDGE_W_MAX)
    assert widths[0] == pytest.approx(EDGE_W_MIN + (EDGE_W_MAX - EDGE_W_MIN) * 0.5)


def test_missing_paper_count_is_usage_error(fixture_graph):
    with pytest.raises(UsageError, match="paper count"):
        compute_layout(fixture_graph, LayoutSpec(kind="circular", size_attr="paper_count"))


def test_layout_spec_validation():
    with pytest.raises(UsageError):
        LayoutSpec(kind="spiral")
    with pytest.raises(UsageError):
        LayoutSpec(size_attr="mass")
    with pytest.raises(UsageError):
        LayoutSpec(gamma=0.0)
    with pytest.raises(UsageError):
        LayoutSpec(gamma=1.5)
    with pytest.raises(UsageError):
        LayoutSpec(k=0)


# ---------------------------------------------------------------------------
# SVG


def test_network_svg_well_formed(fixture_graph):
    layout = compute_layout(fixture_graph, LayoutSpec(kind="circular", size_attr="degree"))
    svg = render_network_svg(fixture_graph, layout)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg == render_network_svg(fixture_graph, layout)


def test_network_svg_contains_all_nodes(fixture_graph):
    layout = compute_layout(fixture_graph, LayoutSpec(kind="circular", size_attr="degree"))
    svg = render_network_svg(fixture_graph, layout)
    assert svg.count("<circle") == 8
    assert svg.count("<line") == 11
    for code in fixture_graph.codes():
        assert f">{code}</text>" in svg


# ---------------------------------------------------------------------------
# series emission


def test_emit_series_discipline_example():
    csv_text, svg = emit_series({"Physics": {1986: 2, 1987: 1}})
    assert csv_text == "year,Physics\n1986,2\n1987,1\n"
    assert svg.count("<polyline") == 1


def test_emit_series_region_column_order():
    from coauthnet.countries import REGIONS

    series = {region: {1986: 0} for region in REGIONS}
    csv_text, _ = emit_series(series)
    header = csv_text.splitlines()[0]
    assert header == "year," + ",".join(REGIONS)


def test_emit_series_empty():
    csv_text, svg = emit_series({})
    assert csv_text == "year\n"
    assert ET.fromstring(svg).tag.endswith("svg")
    assert "<polyline" not in svg


def test_emit_series_without_years_draws_no_line_or_x_tick():
    _, svg = emit_series({region: {} for region in REGIONS})
    root = ET.fromstring(svg)
    assert "<polyline" not in svg
    assert not [t for t in root.iter("{http://www.w3.org/2000/svg}text") if t.get("text-anchor") == "middle"]
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if t.get("text-anchor") is None] == list(REGIONS)


def test_emit_series_missing_cells_are_zero():
    csv_text, _ = emit_series({"A": {1986: 1}, "B": {1987: 2}})
    assert csv_text == "year,A,B\n1986,1,0\n1987,0,2\n"


def test_write_window_series():
    ws = WindowSeries(
        windows=[TimeWindow(1986, 1990), TimeWindow(1991, 1995)],
        rows=[(2, 1, 1.0, 1.0, 1, 1, 1.0, 0.0, 0, 2), (3, 3, 1.0, 2.0, 2, 1, 1.0, 1.0, 0, 3)],
    )
    lines = write_window_series(ws).splitlines()
    assert lines[0] == "start_year,end_year," + ",".join(SUMMARY_SELECTORS)
    assert lines[1] == "1986,1990,2,1,1.0,1.0,1,1,1.0,0.0,0,2"
    assert len(lines) == 3


def test_emit_series_charts_well_formed():
    series = {"Medicine": {1986: 1, 1987: 3}, "Physics": {1986: 2, 1987: 1}}
    csv_text, svg = emit_series(series)
    assert csv_text.splitlines()[0] == "year,Medicine,Physics"
    ET.fromstring(svg)
    assert svg.count("<polyline") == 2
    assert svg == emit_series(series)[1]


def test_emitters_are_deterministic(fixture_graph):
    assert write_pajek(fixture_graph) == write_pajek(fixture_graph)
    dots = [write_dot(fixture_graph, compute_layout(fixture_graph, _DOT_SPEC)) for _ in range(2)]
    assert dots[0] == dots[1]
    spec = LayoutSpec(kind="year_bands", size_attr="degree")
    g = attr_graph(
        [(a, b, w) for a, b, w in fixture_graph.edges()],
        {c: {"first_year": 1986 + (ord(c) % 3), "paper_count": 1} for c in fixture_graph.codes()},
    )
    svgs = [render_network_svg(g, compute_layout(g, spec)) for _ in range(2)]
    assert svgs[0] == svgs[1]


def test_fixture_edges_count():
    assert len(FIXTURE_EDGES) == 11


def _xml_char(ch: str) -> bool:
    """Whether XML 1.0 can carry `ch` (its Char production; a lone surrogate, which no UTF-8 text holds, passes)."""
    return ch in "\t\n\r" or " " <= ch <= "\ufffd" or ch >= "\U00010000"


@given(st.text(alphabet=st.sampled_from("&<>;amplgt \"'A\u00e9\x01\x0b\ufffe\uffff"), max_size=40) | st.text(max_size=40))
def test_escape_equals_saxutils(text):
    # saxutils' escape, with U+FFFD for each character XML 1.0 cannot carry
    assert escape(text) == "".join(ch if _xml_char(ch) else "\ufffd" for ch in sax_escape(text))
