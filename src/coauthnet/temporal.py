"""Time slicing and trend fitting: sliding/cumulative windows, per-window
metric series, the densification power-law fit, first-year and discipline
series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .countries import REGIONS
from .errors import UsageError
from .graph import ResolvedCorpus, TimeWindow
from .metrics import DEFAULT_CLUSTERING_MODE, summary_fields

WINDOW_MODES = ("sliding", "cumulative")

# GraphSummary fields that make sense as a per-window series.
SUMMARY_SELECTORS = (
    "n",
    "m",
    "density",
    "mean_degree",
    "max_degree",
    "diameter",
    "mean_path_length",
    "avg_clustering",
    "isolated_count",
    "giant_size",
)


@dataclass
class WindowSeries:
    """One row of SUMMARY_SELECTORS values per window; windows sorted by end year."""

    windows: list[TimeWindow]
    rows: list[tuple]


def slice_windows(span: tuple[int, int] | None, length: int, step: int, mode: str) -> list[TimeWindow]:
    """Cut a corpus year span (ResolvedCorpus.span; None for an empty corpus) into windows.

    Sliding windows have fixed length and advance by `step` from the corpus
    minimum year until the maximum year is covered. Cumulative windows are
    the sliding windows of step `length`, each anchored at the minimum year.
    """
    if length < 1:
        raise UsageError("window length must be >= 1")
    if step < 1:
        raise UsageError("window step must be >= 1")
    if mode not in WINDOW_MODES:
        raise UsageError(f"unknown window mode {mode!r} (expected one of {WINDOW_MODES})")
    if span is None:
        return []
    t0, tmax = span
    if mode == "cumulative":
        step = length
    return [TimeWindow(t0 if mode == "cumulative" else start, start + length - 1)
            for start in range(t0, max(t0, tmax - length + 1) + step, step)]


def metric_series(
    corpus: ResolvedCorpus,
    windows: list[TimeWindow],
    clustering_mode: str = DEFAULT_CLUSTERING_MODE,
) -> WindowSeries:
    """Step one graph per window, in end-year order, and keep its SUMMARY_SELECTORS values.

    Each window's graph is stepped from the previous one
    (ResolvedCorpus.graphs), and its row read from metrics.summary_fields, so
    no window builds the diameter endpoints that summary publishes. Only the
    row is kept, so each window's graph is freed before the next is built.
    """
    ordered = sorted(windows, key=lambda w: (w.end_year, w.start_year))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.end_year == prev.end_year:
            raise UsageError("windows must have strictly increasing end years")
    rows = []
    for g in corpus.graphs(ordered):
        fields = summary_fields(g, clustering_mode)
        rows.append(tuple(fields[c] for c in SUMMARY_SELECTORS))
    return WindowSeries(windows=ordered, rows=rows)


@dataclass
class LogLogFit:
    """y ~ c * x^alpha; its fields are the keys of densification.json."""

    alpha: float
    c: float
    r_squared: float | None
    points_used: int
    excluded: list[tuple[int, int]] = field(default_factory=list)


def loglog_fit(points) -> LogLogFit:
    """Least squares on (ln x, ln y); alpha is the slope, c exp(intercept).

    Two points determine the line exactly; r_squared is then reported as None.
    Logs and exp are correctly rounded (decimal at 40 digits) and so are sums (math.fsum),
    so neither the CPU nor the order of the points changes a bit of the result.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise UsageError("need at least 2 points for a log-log fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise UsageError("log-log fit requires strictly positive coordinates")
    if len({x for x, _ in pts}) < 2:
        raise UsageError("all x values coincide; the exponent is undefined")
    from decimal import Context, Decimal
    ctx = Context(prec=40)
    lx, ly = ([float(ctx.ln(Decimal(v))) for v in vs] for vs in zip(*pts))
    mean_x, mean_y = math.fsum(lx) / len(pts), math.fsum(ly) / len(pts)
    dx, dy = [v - mean_x for v in lx], [v - mean_y for v in ly]
    x_var = math.fsum(d * d for d in dx)
    if x_var == 0.0:
        raise UsageError("distinct x values share one logarithm; the exponent is undefined")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / x_var
    intercept = mean_y - slope * mean_x
    if len(pts) == 2:
        r_squared = None
    else:
        residuals = [v - (slope * u + intercept) for u, v in zip(lx, ly)]
        ss_res, ss_tot = (math.fsum(d * d for d in ds) for ds in (residuals, dy))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return LogLogFit(
        alpha=slope,
        c=float(ctx.exp(Decimal(intercept))),
        r_squared=r_squared,
        points_used=len(pts),
    )


def densification_fit(snapshots) -> LogLogFit:
    """Fit m ~ c * n^alpha over (n, m) snapshot pairs.

    Degenerate snapshots (n < 2 or m < 1) are excluded from the fit and
    listed on the result instead of failing it.
    """
    snaps = [(int(n), int(m)) for n, m in snapshots]
    usable = [(n, m) for n, m in snaps if n >= 2 and m >= 1]
    if len(usable) < 2:
        raise UsageError(f"need at least 2 usable snapshots, got {len(usable)}")
    return replace(loglog_fit(usable), excluded=[(n, m) for n, m in snaps if not (n >= 2 and m >= 1)])


def densification_snapshots(
    corpus: ResolvedCorpus,
    length: int,
) -> tuple[list[TimeWindow], list[tuple[int, int]]]:
    """(n, m) pairs for cumulative windows of the given growth length."""
    windows = slice_windows(corpus.span, length, length, "cumulative")
    return windows, list(corpus.sizes(windows))


def first_year_series(corpus: ResolvedCorpus) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
    """Per-country first publication year, plus cumulative country counts per region.

    The cumulative series runs from the earliest first year through the
    corpus maximum year and is non-decreasing; all six regions are present
    even when empty.
    """
    first_year = corpus.first_year
    cumulative: dict[str, dict[int, int]] = {region: {} for region in REGIONS}
    if first_year:
        y0 = min(first_year.values())
        y1 = corpus.span[1]
        by_region: dict[str, list[int]] = {region: [] for region in REGIONS}
        for code, year in first_year.items():
            by_region[corpus.region[code]].append(year)
        for region in REGIONS:
            years = by_region[region]
            cumulative[region] = {y: sum(1 for fy in years if fy <= y) for y in range(y0, y1 + 1)}
    return dict(sorted(first_year.items())), cumulative


def discipline_series(corpus: ResolvedCorpus) -> dict[str, dict[int, int]]:
    """Paper counts per subject per year; subjectless records fall under
    the reserved UNCLASSIFIED_SUBJECT key."""
    out: dict[str, dict[int, int]] = {}
    for year, counts in sorted(corpus.subjects.items()):
        for subject, count in counts.items():
            out.setdefault(subject, {})[year] = count
    return {subject: out[subject] for subject in sorted(out)}
