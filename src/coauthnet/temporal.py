"""Time slicing and trend fitting: sliding/cumulative windows, per-window
metric series, the densification power-law fit, first-year and discipline
series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .countries import REGIONS
from .errors import UsageError
from .graph import ResolvedCorpus, TimeWindow
from .ingest import RecordSet
from .metrics import DEFAULT_CLUSTERING_MODE, GraphSummary, lazy_import, summary

np = lazy_import("numpy")

WINDOW_MODES = ("sliding", "cumulative")

UNCLASSIFIED_SUBJECT = "(unclassified)"

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
    windows: list[TimeWindow]
    values: list
    mode: str
    name: str = "value"


def slice_windows(rs: RecordSet, length: int, step: int, mode: str) -> list[TimeWindow]:
    """Cut the corpus year span into windows.

    Sliding windows have fixed length and advance by `step` from the corpus
    minimum year until the maximum year is covered; cumulative windows share
    the minimum year as anchored start and grow by `length` at a time.
    """
    if length < 1:
        raise UsageError("window length must be >= 1")
    if step < 1:
        raise UsageError("window step must be >= 1")
    if mode not in WINDOW_MODES:
        raise UsageError(f"unknown window mode {mode!r} (expected one of {WINDOW_MODES})")
    span = rs.year_span()
    if span is None:
        return []
    t0, tmax = span
    windows = []
    if mode == "sliding":
        start = t0
        while True:
            end = start + length - 1
            windows.append(TimeWindow(start, end))
            if end >= tmax:
                break
            start += step
    else:
        k = 1
        while True:
            end = t0 + k * length - 1
            windows.append(TimeWindow(t0, end))
            if end >= tmax:
                break
            k += 1
    return windows


def metric_series(
    corpus: ResolvedCorpus,
    windows: list[TimeWindow],
    selector: str,
    mode: str = "sliding",
    clustering_mode: str = DEFAULT_CLUSTERING_MODE,
) -> WindowSeries:
    """Build one graph per window and extract a summary metric per window.

    selector is a GraphSummary field name, or "summary" for whole objects.
    """
    if not windows:
        raise UsageError("windows list must not be empty")
    if selector != "summary" and selector not in SUMMARY_SELECTORS:
        raise UsageError(f"unknown metric {selector!r} (expected one of {SUMMARY_SELECTORS} or 'summary')")
    ordered = sorted(windows, key=lambda w: (w.end_year, w.start_year))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.end_year == prev.end_year:
            raise UsageError("windows must have strictly increasing end years")
    values = []
    for window in ordered:
        s = summary(corpus.graph(window), clustering_mode)
        values.append(s if selector == "summary" else getattr(s, selector))
    return WindowSeries(windows=ordered, values=values, mode=mode, name=selector)


@dataclass
class LogLogFit:
    exponent: float
    prefactor: float
    r_squared: float | None
    points_used: int
    exact_fit: bool = False
    excluded: list[tuple[int, int]] = field(default_factory=list)


def loglog_fit(points) -> LogLogFit:
    """Least squares on (ln x, ln y); exponent is the slope, prefactor exp(intercept).

    Two points determine the line exactly; r_squared is then reported as None
    with the exact-fit flag set.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise UsageError("need at least 2 points for a log-log fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise UsageError("log-log fit requires strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    x_var = float(np.sum((lx - lx.mean()) ** 2))
    if x_var == 0.0:
        raise UsageError("all x values coincide; the exponent is undefined")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / x_var)
    intercept = float(ly.mean() - slope * lx.mean())
    exact = len(pts) == 2
    if exact:
        r_squared = None
    else:
        predicted = slope * lx + intercept
        ss_res = float(np.sum((ly - predicted) ** 2))
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return LogLogFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=r_squared,
        points_used=len(pts),
        exact_fit=exact,
    )


def densification_fit(snapshots) -> LogLogFit:
    """Fit m ~ c * n^alpha over (n, m) snapshot pairs.

    Degenerate snapshots (n < 2 or m < 1) are excluded from the fit and
    listed on the result instead of failing it.
    """
    snaps = [(int(n), int(m)) for n, m in snapshots]
    usable = [(n, m) for n, m in snaps if n >= 2 and m >= 1]
    excluded = [(n, m) for n, m in snaps if not (n >= 2 and m >= 1)]
    if len(usable) < 2:
        raise UsageError(f"need at least 2 usable snapshots, got {len(usable)}")
    fit = loglog_fit(usable)
    fit.excluded = excluded
    return fit


def fit_to_dict(fit: LogLogFit) -> dict:
    return {
        "alpha": fit.exponent,
        "c": fit.prefactor,
        "r_squared": fit.r_squared,
        "points_used": fit.points_used,
        "excluded": [list(p) for p in fit.excluded],
    }


def densification_snapshots(
    corpus: ResolvedCorpus,
    length: int,
) -> tuple[list[TimeWindow], list[tuple[int, int]]]:
    """(n, m) pairs for cumulative windows of the given growth length."""
    windows = slice_windows(corpus.rs, length, length, "cumulative")
    return windows, [corpus.size(w) for w in windows]


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
        y1 = corpus.rs.year_span()[1]
        by_region: dict[str, list[int]] = {region: [] for region in REGIONS}
        for code, year in first_year.items():
            by_region[corpus.registry.get(code).region].append(year)
        for region in REGIONS:
            years = by_region[region]
            cumulative[region] = {y: sum(1 for fy in years if fy <= y) for y in range(y0, y1 + 1)}
    return dict(sorted(first_year.items())), cumulative


def discipline_series(rs: RecordSet) -> dict[str, dict[int, int]]:
    """Paper counts per subject per year; subjectless records fall under
    the reserved "(unclassified)" key."""
    out: dict[str, dict[int, int]] = {}
    for record in rs.records:
        subjects = record.subjects or [UNCLASSIFIED_SUBJECT]
        for subject in subjects:
            per_year = out.setdefault(subject, {})
            per_year[record.year] = per_year.get(record.year, 0) + 1
    return {subject: dict(sorted(out[subject].items())) for subject in sorted(out)}
