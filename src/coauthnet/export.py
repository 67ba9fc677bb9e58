"""Deterministic emitters: Pajek and DOT interchange files, SVG network
renderings with four layout encodings, and CSV/SVG time-series charts.

Every emitter is a pure function producing byte-stable text: node and edge
ordering is pinned, floats use fixed-width formatting, and line endings are
LF throughout.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

from .countries import REGIONS
from .errors import DataError, UsageError
from .graph import CoauthorshipGraph
from .metrics import GraphSummary, top_k_by_degree
from .temporal import SUMMARY_SELECTORS, WindowSeries

LAYOUT_KINDS = ("circular", "grouped_circles", "center_top_k", "year_bands")
SIZE_ATTRS = ("paper_count", "degree", "none")
NODE_ORDERS = ("by_code", "by_degree_desc")

# Node radii and edge widths in unit-square coordinates.
R_MIN = 0.010
R_MAX = 0.040
EDGE_W_MIN = 0.0015
EDGE_W_MAX = 0.0080

_CANVAS = 1000.0

_PALETTE = (
    "#4878a8",
    "#d65f5f",
    "#59a14f",
    "#ef8e3b",
    "#8268b0",
    "#7f7f7f",
    "#c8a51e",
    "#5fa2ce",
)


def escape(text: str) -> str:
    """XML character data: the replacements of xml.sax.saxutils.escape, in its order.

    Importing xml.sax.saxutils pulls in urllib.request and its http, email
    and ssl imports, about 30 ms per process.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass
class LayoutSpec:
    kind: str = "circular"
    size_attr: str = "paper_count"
    gamma: float = 0.5
    k: int = 10
    highlight: set[str] | None = None
    order: str = "by_code"

    def __post_init__(self):
        if self.kind not in LAYOUT_KINDS:
            raise UsageError(f"unknown layout kind {self.kind!r} (expected one of {LAYOUT_KINDS})")
        if self.size_attr not in SIZE_ATTRS:
            raise UsageError(f"unknown size attribute {self.size_attr!r} (expected one of {SIZE_ATTRS})")
        if not 0.0 < self.gamma <= 1.0:
            raise UsageError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.k < 1:
            raise UsageError("k must be >= 1")
        if self.order not in NODE_ORDERS:
            raise UsageError(f"unknown node order {self.order!r} (expected one of {NODE_ORDERS})")


@dataclass
class RenderedLayout:
    positions: dict[str, tuple[float, float]]
    radii: dict[str, float]
    edge_widths: dict[tuple[str, str], float]


# ---------------------------------------------------------------------------
# Pajek


def write_pajek(g: CoauthorshipGraph, partition: dict[str, int] | None = None) -> tuple[str, str | None]:
    """Pajek .net text (and .clu text when a partition is given).

    Vertices are numbered 1..N in ascending code order; edge lines are
    `i j w` with i < j, sorted. The .clu lists one partition integer per
    vertex in the same order (0 for codes missing from the map).
    """
    codes = g.codes()
    index = {code: i + 1 for i, code in enumerate(codes)}
    lines = [f"*Vertices {len(codes)}"]
    lines += [f'{index[code]} "{code}"' for code in codes]
    lines.append("*Edges")
    lines += [f"{index[a]} {index[b]} {w}" for a, b, w in g.edges()]
    net = "\n".join(lines) + "\n"
    clu = None
    if partition is not None:
        clu_lines = [f"*Vertices {len(codes)}"]
        clu_lines += [str(int(partition.get(code, 0))) for code in codes]
        clu = "\n".join(clu_lines) + "\n"
    return net, clu


_PAJEK_VERTEX_RE = re.compile(r'^(\d+)\s+"([^"]*)"\s*$')
_PAJEK_EDGE_RE = re.compile(r"^(\d+)\s+(\d+)(?:\s+(\d+))?\s*$")


def read_pajek(text: str) -> tuple[list[str], dict[tuple[str, str], int]]:
    """Parse a .net document back into (labels, {(a, b): weight})."""
    labels: dict[int, str] = {}
    edges: dict[tuple[str, str], int] = {}
    section = None
    expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        lowered = line.casefold()
        if lowered.startswith("*vertices"):
            section = "vertices"
            try:
                expected = int(line.split()[1])
            except (IndexError, ValueError):
                raise DataError("malformed *Vertices header", line=lineno) from None
            continue
        if lowered.startswith("*edges"):
            section = "edges"
            continue
        if line.startswith("*"):
            raise DataError(f"unsupported section {line!r}", line=lineno)
        if section == "vertices":
            match = _PAJEK_VERTEX_RE.match(line)
            if not match:
                raise DataError(f"malformed vertex line {line!r}", line=lineno)
            labels[int(match.group(1))] = match.group(2)
        elif section == "edges":
            match = _PAJEK_EDGE_RE.match(line)
            if not match:
                raise DataError(f"malformed edge line {line!r}", line=lineno)
            i, j = int(match.group(1)), int(match.group(2))
            w = int(match.group(3)) if match.group(3) else 1
            if i not in labels or j not in labels:
                raise DataError(f"edge references unknown vertex index {i} or {j}", line=lineno)
            a, b = sorted((labels[i], labels[j]))
            edges[(a, b)] = w
        else:
            raise DataError(f"content before any section: {line!r}", line=lineno)
    if len(labels) != expected:
        raise DataError(f"vertex count mismatch: header said {expected}, found {len(labels)}")
    ordered = [labels[i] for i in sorted(labels)]
    return ordered, edges


# ---------------------------------------------------------------------------
# DOT


def write_dot(g: CoauthorshipGraph, layout: LayoutSpec | None = None) -> str:
    """Undirected DOT document; with a layout, node positions and sizes are pinned."""
    rendered = compute_layout(g, layout) if layout is not None else None
    lines = ["graph coauthorship {"]
    for code in g.codes():
        if rendered is not None:
            x, y = rendered.positions[code]
            r = rendered.radii[code]
            lines.append(f'  "{code}" [pos="{x:.4f},{y:.4f}!", width={2 * r:.4f}];')
        else:
            lines.append(f'  "{code}";')
    for a, b, w in g.edges():
        if rendered is not None:
            pw = rendered.edge_widths[(a, b)]
            lines.append(f'  "{a}" -- "{b}" [weight={w}, penwidth={pw * _CANVAS:.2f}];')
        else:
            lines.append(f'  "{a}" -- "{b}" [weight={w}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE_RE = re.compile(r'^\s*"([^"]+)"(?:\s+\[[^\]]*\])?;$')
_DOT_EDGE_RE = re.compile(r'^\s*"([^"]+)"\s+--\s+"([^"]+)"\s+\[([^\]]*)\];$')
_DOT_WEIGHT_RE = re.compile(r"weight=(\d+)")


def read_dot(text: str) -> tuple[list[str], dict[tuple[str, str], int]]:
    """Parse a DOT document produced by write_dot back into (labels, edges)."""
    nodes: list[str] = []
    edges: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line in ("graph coauthorship {", "}"):
            continue
        edge_match = _DOT_EDGE_RE.match(line)
        if edge_match:
            a, b = sorted((edge_match.group(1), edge_match.group(2)))
            weight_match = _DOT_WEIGHT_RE.search(edge_match.group(3))
            if not weight_match:
                raise DataError(f"edge without weight attribute: {line!r}", line=lineno)
            edges[(a, b)] = int(weight_match.group(1))
            continue
        node_match = _DOT_NODE_RE.match(line)
        if node_match:
            nodes.append(node_match.group(1))
            continue
        raise DataError(f"unrecognized DOT line {line!r}", line=lineno)
    return nodes, edges


# ---------------------------------------------------------------------------
# Layout and SVG


def _scaled(value: float, max_value: float, lo: float, hi: float, gamma: float) -> float:
    if max_value <= 0:
        return lo
    return lo + (hi - lo) * (value / max_value) ** gamma


def _ordered_codes(g: CoauthorshipGraph, order: str, codes=None) -> list[str]:
    pool = sorted(codes) if codes is not None else g.codes()
    if order == "by_degree_desc":
        return sorted(pool, key=lambda c: (-g.degree(c), c))
    return pool


def _on_circle(center: tuple[float, float], radius: float, count: int, i: int) -> tuple[float, float]:
    # Equal spacing, first node at 90 degrees.
    angle = math.radians(90.0 + i * 360.0 / count)
    return center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle)


def _size_values(g: CoauthorshipGraph, spec: LayoutSpec) -> dict[str, float]:
    if spec.size_attr == "degree":
        return {code: float(g.degree(code)) for code in g.codes()}
    if spec.size_attr == "paper_count":
        values = {}
        for code in g.codes():
            count = g.node(code).paper_count
            if count is None:
                raise UsageError(f"node {code} has no paper count; use size_attr='degree' or 'none'")
            values[code] = float(count)
        return values
    return {}


def compute_layout(g: CoauthorshipGraph, spec: LayoutSpec) -> RenderedLayout:
    """Deterministic positions in the unit square plus node radii and edge widths."""
    codes = g.codes()
    positions: dict[str, tuple[float, float]] = {}
    center = (0.5, 0.5)

    if spec.kind == "circular":
        ordered = _ordered_codes(g, spec.order)
        for i, code in enumerate(ordered):
            positions[code] = _on_circle(center, 0.42, len(ordered), i)

    elif spec.kind == "grouped_circles":
        missing = [c for c in codes if g.node(c).region is None]
        if missing:
            raise UsageError(f"grouped_circles needs a region for every node; missing for {missing}")
        # Six fixed region slots on a hexagon, members on a small circle each.
        for idx, region in enumerate(REGIONS):
            members = _ordered_codes(g, spec.order, [c for c in codes if g.node(c).region == region])
            if not members:
                continue
            slot = _on_circle(center, 0.32, len(REGIONS), idx)
            for j, code in enumerate(members):
                positions[code] = _on_circle(slot, 0.13, len(members), j)

    elif spec.kind == "center_top_k":
        inner = top_k_by_degree(g, min(spec.k, max(g.n, 1))) if codes else []
        inner_set = set(inner)
        outer = _ordered_codes(g, spec.order, [c for c in codes if c not in inner_set])
        for i, code in enumerate(inner):
            positions[code] = _on_circle(center, 0.16, len(inner), i)
        for i, code in enumerate(outer):
            positions[code] = _on_circle(center, 0.42, len(outer), i)

    else:  # year_bands
        missing = [c for c in codes if g.node(c).first_year is None]
        if missing:
            raise UsageError(f"year_bands needs a first year for every node; missing for {missing}")
        years = sorted({g.node(c).first_year for c in codes})
        bands = {year: i for i, year in enumerate(years)}
        for year in years:
            members = _ordered_codes(g, spec.order, [c for c in codes if g.node(c).first_year == year])
            y = (bands[year] + 0.5) / len(years)
            for j, code in enumerate(members):
                positions[code] = ((j + 0.5) / len(members), y)

    if spec.size_attr == "none":
        radii = {code: (R_MIN + R_MAX) / 2 for code in codes}
    else:
        sizes = _size_values(g, spec)
        a_max = max(sizes.values(), default=0.0)
        radii = {code: _scaled(sizes[code], a_max, R_MIN, R_MAX, spec.gamma) for code in codes}

    edge_widths = {}
    w_max = max((w for _, _, w in g.edges()), default=0)
    for a, b, w in g.edges():
        edge_widths[(a, b)] = _scaled(float(w), float(w_max), EDGE_W_MIN, EDGE_W_MAX, spec.gamma)
    return RenderedLayout(positions=positions, radii=radii, edge_widths=edge_widths)


def render_network_svg(g: CoauthorshipGraph, spec: LayoutSpec) -> str:
    """Render the graph as a standalone SVG document.

    center_top_k draws edges among the top-k in a highlight stroke (an
    explicit spec.highlight set takes precedence).
    """
    layout = compute_layout(g, spec)
    if spec.highlight is not None:
        highlight = set(spec.highlight)
    elif spec.kind == "center_top_k" and g.n:
        highlight = set(top_k_by_degree(g, min(spec.k, g.n)))
    else:
        highlight = set()

    def px(value: float) -> str:
        return f"{value * _CANVAS:.2f}"

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" '
        f'viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">\n'
    )
    out.write(f'  <rect x="0" y="0" width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" fill="#ffffff"/>\n')

    normal, highlighted = [], []
    for a, b, w in g.edges():
        (highlighted if a in highlight and b in highlight else normal).append((a, b, w))
    out.write('  <g stroke-linecap="round">\n')
    for group, stroke, opacity in ((normal, "#9aa0a6", "0.7"), (highlighted, "#e0a800", "0.9")):
        for a, b, _ in group:
            xa, ya = layout.positions[a]
            xb, yb = layout.positions[b]
            width = layout.edge_widths[(a, b)]
            out.write(
                f'    <line x1="{px(xa)}" y1="{px(ya)}" x2="{px(xb)}" y2="{px(yb)}" '
                f'stroke="{stroke}" stroke-width="{px(width)}" stroke-opacity="{opacity}"/>\n'
            )
    out.write("  </g>\n")

    out.write('  <g font-family="sans-serif" font-size="11" text-anchor="middle">\n')
    for code in g.codes():
        x, y = layout.positions[code]
        r = layout.radii[code]
        out.write(
            f'    <circle cx="{px(x)}" cy="{px(y)}" r="{px(r)}" '
            f'fill="#4878a8" stroke="#2b4a6f" stroke-width="1.00"/>\n'
        )
        label_y = y * _CANVAS + r * _CANVAS + 12.0
        out.write(f'    <text x="{px(x)}" y="{label_y:.2f}">{escape(code)}</text>\n')
    out.write("  </g>\n")
    out.write("</svg>\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Series CSV and charts


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _chart_svg(x_values: list[float], columns: dict[str, list[float]], kind: str) -> str:
    width, height = 800.0, 500.0
    left, right, top, bottom = 70.0, 170.0, 20.0, 45.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_lo, x_hi = (min(x_values), max(x_values)) if x_values else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    all_values = [v for series in columns.values() for v in series]
    y_lo = min(0.0, min(all_values, default=0.0))
    y_hi = max(all_values, default=1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    out.write(f'  <rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n')
    out.write('  <g stroke="#444444" stroke-width="1">\n')
    out.write(f'    <line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" y2="{top + plot_h:.2f}"/>\n')
    out.write(f'    <line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{top + plot_h:.2f}"/>\n')
    out.write("  </g>\n")

    out.write('  <g font-family="sans-serif" font-size="11" fill="#222222">\n')
    for tick in _nice_ticks(x_lo, x_hi):
        x = sx(tick)
        label = f"{tick:.0f}" if float(tick).is_integer() else f"{tick:g}"
        out.write(f'    <line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" y2="{top + plot_h + 5:.2f}" stroke="#444444"/>\n')
        out.write(f'    <text x="{x:.2f}" y="{top + plot_h + 18:.2f}" text-anchor="middle">{label}</text>\n')
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        label = f"{tick:.0f}" if float(tick).is_integer() else f"{tick:g}"
        out.write(f'    <line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="#444444"/>\n')
        out.write(f'    <text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{label}</text>\n')
    out.write("  </g>\n")

    keys = list(columns)
    if kind == "line":
        for i, key in enumerate(keys):
            color = _PALETTE[i % len(_PALETTE)]
            points = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(x_values, columns[key]))
            out.write(f'  <polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>\n')
    else:  # bar
        group_w = plot_w / max(len(x_values), 1)
        bar_w = group_w * 0.8 / max(len(keys), 1)
        for i, key in enumerate(keys):
            color = _PALETTE[i % len(_PALETTE)]
            for j, value in enumerate(columns[key]):
                x = left + j * group_w + group_w * 0.1 + i * bar_w
                y = sy(value)
                h = top + plot_h - y
                out.write(
                    f'  <rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" fill="{color}"/>\n'
                )

    out.write('  <g font-family="sans-serif" font-size="11">\n')
    for i, key in enumerate(keys):
        color = _PALETTE[i % len(_PALETTE)]
        y = top + 14 + i * 16
        out.write(f'    <rect x="{width - right + 10:.2f}" y="{y - 9:.2f}" width="10" height="10" fill="{color}"/>\n')
        out.write(f'    <text x="{width - right + 25:.2f}" y="{y:.2f}">{escape(key)}</text>\n')
    out.write("  </g>\n")
    out.write("</svg>\n")
    return out.getvalue()


def emit_series(series, chart: str = "none", columns: list[str] | None = None) -> tuple[str, str | None]:
    """Serialize a series to CSV, optionally with a line or bar chart SVG.

    Accepts a WindowSeries (one row per window) or a mapping of series key
    to {year: value} (one row per year, one column per key; missing cells
    are 0). Column order defaults to sorted keys.
    """
    if chart not in ("none", "line", "bar"):
        raise UsageError(f"unknown chart kind {chart!r} (expected none, line or bar)")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    if isinstance(series, WindowSeries):
        if series.values and isinstance(series.values[0], GraphSummary):
            writer.writerow(["start_year", "end_year", *SUMMARY_SELECTORS])
            rows = [
                [window.start_year, window.end_year] + [getattr(value, c) for c in SUMMARY_SELECTORS]
                for window, value in zip(series.windows, series.values)
            ]
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
            chart_columns = {c: [float(row[i + 2]) for row in rows] for i, c in enumerate(SUMMARY_SELECTORS)}
        else:
            writer.writerow(["start_year", "end_year", series.name])
            for window, value in zip(series.windows, series.values):
                writer.writerow([window.start_year, window.end_year, _format_cell(value)])
            chart_columns = {series.name: [float(v) for v in series.values]}
        x_values = [float(w.end_year) for w in series.windows]
    else:
        keys = columns if columns is not None else sorted(series)
        years = sorted({year for per_year in series.values() for year in per_year})
        writer.writerow(["year", *keys])
        for year in years:
            writer.writerow([year] + [_format_cell(series[key].get(year, 0)) for key in keys])
        chart_columns = {key: [float(series[key].get(year, 0)) for year in years] for key in keys}
        x_values = [float(y) for y in years]

    svg = _chart_svg(x_values, chart_columns, chart) if chart != "none" and x_values else None
    return buf.getvalue(), svg
