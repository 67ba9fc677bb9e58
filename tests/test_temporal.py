import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coauthnet
from coauthnet import CountryRegistry, ResolvedCorpus, TimeWindow, UsageError, parse_records, slice_windows, summary
from coauthnet.graph import UNCLASSIFIED_SUBJECT
from coauthnet.temporal import (
    SUMMARY_SELECTORS,
    densification_fit,
    densification_snapshots,
    discipline_series,
    first_year_series,
    loglog_fit,
    metric_series,
)

from conftest import densifying_corpus_rows, densifying_registry_csv, synthetic_corpus_rows, write_jsonl


def _corpus(tmp_path, rows, name="corpus.jsonl"):
    return parse_records(write_jsonl(tmp_path / name, rows))


def _column(series, name):
    i = SUMMARY_SELECTORS.index(name)
    return [row[i] for row in series.rows]


def _span_corpus(tmp_path, years):
    rows = [{"id": f"y{y}", "year": y, "countries": ["Ukraine"]} for y in years]
    return _corpus(tmp_path, rows)


# ---------------------------------------------------------------------------
# slicing


def test_cumulative_windows_every_five_years():
    windows = slice_windows((1986, 2015), 5, 5, "cumulative")
    assert [(w.start_year, w.end_year) for w in windows] == [
        (1986, 1990),
        (1986, 1995),
        (1986, 2000),
        (1986, 2005),
        (1986, 2010),
        (1986, 2015),
    ]


def test_sliding_windows_every_five_years():
    windows = slice_windows((1986, 2015), 5, 5, "sliding")
    assert windows[0] == TimeWindow(1986, 1990)
    assert windows[-1] == TimeWindow(2011, 2015)
    assert len(windows) == 6
    for prev, cur in zip(windows, windows[1:]):
        assert cur.start_year == prev.start_year + 5


def test_sliding_windows_overlap_with_small_step():
    windows = slice_windows((1986, 1994), 5, 2, "sliding")
    assert [(w.start_year, w.end_year) for w in windows] == [
        (1986, 1990),
        (1988, 1992),
        (1990, 1994),
    ]


def test_windows_cover_corpus_maximum():
    for mode in ("sliding", "cumulative"):
        windows = slice_windows((1986, 2013), 5, 5, mode)
        assert windows[-1].end_year >= 2013


def test_slice_empty_corpus(tmp_path, registry):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert slice_windows(ResolvedCorpus(parse_records(path), registry).span, 5, 5, "sliding") == []


def test_slice_validation():
    with pytest.raises(UsageError):
        slice_windows((1986, 1986), 0, 5, "sliding")
    with pytest.raises(UsageError):
        slice_windows((1986, 1986), 5, 0, "sliding")
    with pytest.raises(UsageError):
        slice_windows((1986, 1986), 5, 5, "rolling")


# ---------------------------------------------------------------------------
# metric series


def test_mean_degree_series_strictly_increasing(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["Ukraine", "Germany"]},
        {"id": "p3", "year": 1991, "countries": ["Ukraine", "France"]},
        {"id": "p4", "year": 1991, "countries": ["Russia", "Germany"]},
        {"id": "p5", "year": 1991, "countries": ["Russia", "France"]},
        {"id": "p6", "year": 1991, "countries": ["Germany", "France"]},
    ]
    corpus = ResolvedCorpus(_corpus(tmp_path, rows), registry)
    windows = slice_windows(corpus.span, 5, 5, "sliding")
    mean_degree = _column(metric_series(corpus, windows), "mean_degree")
    assert mean_degree[0] < mean_degree[1]


def test_diameter_series_constant_on_single_edges(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine", "Russia"]},
        {"id": "p2", "year": 1991, "countries": ["France", "Japan"]},
    ]
    corpus = ResolvedCorpus(_corpus(tmp_path, rows), registry)
    windows = slice_windows(corpus.span, 5, 5, "sliding")
    series = metric_series(corpus, windows)
    assert _column(series, "diameter") == [1, 1]


def test_metric_series_validation(tmp_path, registry):
    rs = _span_corpus(tmp_path, [1986, 1990])
    assert metric_series(ResolvedCorpus(rs, registry), []).rows == []
    with pytest.raises(UsageError):
        metric_series(ResolvedCorpus(rs, registry), [TimeWindow(1986, 1990), TimeWindow(1987, 1990)])


def test_metric_series_summary_objects(tmp_path, registry):
    corpus = ResolvedCorpus(_span_corpus(tmp_path, [1986, 1992]), registry)
    windows = slice_windows(corpus.span, 5, 5, "sliding")
    series = metric_series(corpus, windows)
    assert series.windows == windows
    assert len(series.rows) == len(windows)
    for window, row in zip(windows, series.rows):
        s = summary(corpus.graph(window))
        assert list(row) == [getattr(s, c) for c in SUMMARY_SELECTORS]
    assert series.rows[0][SUMMARY_SELECTORS.index("n")] == 1


@pytest.mark.parametrize("length, step", [(3, 5), (5, 3)])
def test_stepped_series_equals_per_window_summaries(tmp_path, registry, length, step):
    rng = random.Random(length * 10 + step)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada", "Atlantis"]
    corpus = ResolvedCorpus(_corpus(tmp_path, synthetic_corpus_rows(rng, 300, names)), registry)
    windows = slice_windows(corpus.span, length, step, "sliding")
    shuffled = rng.sample(windows, len(windows))
    assert shuffled != windows
    series = metric_series(corpus, shuffled)
    assert series.windows == windows
    expected = []
    for window in windows:
        s = summary(corpus.graph(window))
        expected.append(tuple(getattr(s, c) for c in SUMMARY_SELECTORS))
    assert series.rows == expected


def test_series_builds_no_diameter_endpoints(tmp_path, registry, monkeypatch):
    # The window rows publish the diameter but not its endpoint pairs; only
    # summary, which summary.json and report.md read, has path_stats build them.
    calls = []
    build = coauthnet.metrics.path_stats

    def counted(g):
        calls.append(g.window)
        return build(g)

    monkeypatch.setattr(coauthnet.metrics, "path_stats", counted)
    names = ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Canada"]
    corpus = ResolvedCorpus(_corpus(tmp_path, synthetic_corpus_rows(random.Random(4), 200, names)), registry)
    series = metric_series(corpus, slice_windows(corpus.span, 1, 1, "cumulative"))
    assert calls == []
    assert max(_column(series, "diameter")) >= 1
    s = summary(corpus.graph(series.windows[-1]))
    assert calls == [series.windows[-1]] and s.diameter_endpoints


def test_sliding_windows_ignore_outside_records(tmp_path, registry):
    # Sentinel countries publish only outside the window under test.
    rows = [
        {"id": "in1", "year": 1991, "countries": ["Ukraine", "France"]},
        {"id": "out1", "year": 1990, "countries": ["Japan", "Brazil"]},
        {"id": "out2", "year": 1996, "countries": ["Egypt", "Canada"]},
    ]
    rs = _corpus(tmp_path, rows)
    g = ResolvedCorpus(rs, registry).graph(TimeWindow(1991, 1995))
    assert g.codes() == ["FRA", "UKR"]


# ---------------------------------------------------------------------------
# densification


def test_cumulative_snapshots_nest(tmp_path):
    registry = CountryRegistry.from_csv(densifying_registry_csv(tmp_path / "registry.csv"))
    rs = _corpus(tmp_path, densifying_corpus_rows())
    corpus = ResolvedCorpus(rs, registry)
    graphs = [corpus.graph(w) for w in slice_windows(corpus.span, 5, 5, "cumulative")]
    for small, big in zip(graphs, graphs[1:]):
        assert set(small.codes()) <= set(big.codes())
        small_edges = {(a, b): w for a, b, w in small.edges()}
        big_edges = {(a, b): w for a, b, w in big.edges()}
        for pair, w in small_edges.items():
            assert pair in big_edges
            assert w <= big_edges[pair]
        assert small.n <= big.n
        assert small.m <= big.m


def test_densifying_corpus_mean_degree_grows(tmp_path):
    registry = CountryRegistry.from_csv(densifying_registry_csv(tmp_path / "registry.csv"))
    corpus = ResolvedCorpus(_corpus(tmp_path, densifying_corpus_rows()), registry)
    windows = slice_windows(corpus.span, 5, 5, "cumulative")
    mean_degree = _column(metric_series(corpus, windows), "mean_degree")
    for earlier, later in zip(mean_degree, mean_degree[1:]):
        assert later >= earlier
    assert mean_degree[0] < 2.0
    assert mean_degree[-1] > 4.0


def test_two_point_fit_is_exact():
    fit = densification_fit([(2, 1), (4, 4)])
    assert abs(fit.alpha - 2.0) < 1e-9
    assert abs(fit.c - 0.25) < 1e-9
    assert fit.r_squared is None
    assert fit.points_used == 2


def test_fit_recovers_generated_exponent():
    points = [(n, round(0.5 * n**1.5)) for n in (10, 20, 40, 80)]
    fit = densification_fit(points)
    assert abs(fit.alpha - 1.5) <= 0.05
    assert fit.r_squared >= 0.99


def test_fit_exact_power_law_within_1e9():
    c, alpha = 0.37, 1.8
    points = [(float(n), c * n**alpha) for n in (3, 7, 15, 40, 90)]
    fit = loglog_fit(points)
    assert abs(fit.alpha - alpha) <= 1e-9
    assert abs(fit.c - c) <= 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_excludes_degenerate_snapshots():
    fit = densification_fit([(1, 0), (2, 1), (4, 4), (1, 3)])
    assert fit.points_used == 2
    assert fit.excluded == [(1, 0), (1, 3)]
    assert abs(fit.alpha - 2.0) < 1e-9


def test_fit_needs_two_usable_points():
    with pytest.raises(UsageError):
        densification_fit([(1, 0), (2, 1)])
    with pytest.raises(UsageError):
        loglog_fit([(2, 1)])
    with pytest.raises(UsageError):
        loglog_fit([(0, 1), (2, 1)])


@given(
    n=st.integers(min_value=2, max_value=10**6),
    ms=st.lists(st.integers(min_value=1, max_value=10**9), min_size=2, max_size=40),
)
@example(n=100, ms=[2453] * 6)
def test_fit_of_one_node_count_is_skipped(n, ms):
    # The log of n repeated can average 1 ulp off ln n, so the check must come before the logs.
    with pytest.raises(UsageError, match="coincide"):
        densification_fit([(n, m) for m in ms])


def test_fit_to_dict_shape():
    doc = vars(densification_fit([(2, 1), (4, 4), (1, 0)]))
    assert set(doc) == {"alpha", "c", "r_squared", "points_used", "excluded"}
    assert doc["excluded"] == [(1, 0)]


# Settings that switch the CPU-dispatched code of numpy and glibc to another
# path, each for the child process it is set in.
_DISPATCH_ENVS = (
    {},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX"},
)


def test_fit_bytes_depend_on_no_cpu_dispatch():
    """alpha, c and r_squared print alike in children whose numpy and glibc run other code paths.

    A fit through np.log printed other last digits with AVX512 turned off. On a
    host without AVX512 the numpy setting changes nothing, so there this test
    cannot fail on a numpy log; the pinned values hold on every host.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(Path(coauthnet.__file__).parent.parent)!r})\n"
        "from coauthnet.temporal import densification_fit\n"
        "fit = densification_fit([(120, 4000), (150, 9170), (176, 12500)])\n"
        "print(repr(fit.alpha), repr(fit.c), repr(fit.r_squared))\n"
    )
    printed = []
    for extra in _DISPATCH_ENVS:
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env={**os.environ, **extra}
        )
        assert child.returncode == 0, child.stderr
        printed.append(child.stdout)
    assert printed == ["3.0223421037129032 0.002177279590447173 0.9738475108676395\n"] * len(_DISPATCH_ENVS)


def test_fit_logs_are_correctly_rounded(monkeypatch):
    """The logs the fit sums equal mpmath's 200-bit log rounded to a float, for every
    integer up to 15,400, the most links the built-in registry's countries can have.

    The first two fsum calls of the fit take its lists of ln x and ln y. math.log
    misses on 9,170.
    """
    mpmath = pytest.importorskip("mpmath")
    calls = []

    def fsum(values):
        calls.append(list(values))
        return math.fsum(calls[-1])

    monkeypatch.setattr(coauthnet.temporal, "math", SimpleNamespace(fsum=fsum))
    ints = range(1, 15_401)
    loglog_fit([(i, i) for i in ints])
    with mpmath.workprec(200):
        expected = [float(mpmath.log(i)) for i in ints]
    assert calls[0] == calls[1] == expected


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(2, 400), st.integers(1, 15_400)), min_size=3, max_size=7).filter(
        lambda pts: len({n for n, _ in pts}) >= 2
    ),
    data=st.data(),
)
def test_fit_is_the_same_for_any_order_of_the_snapshots(points, data):
    fit = densification_fit(points)
    shuffled = densification_fit(data.draw(st.permutations(points)))
    assert (shuffled.alpha, shuffled.c, shuffled.r_squared) == (fit.alpha, fit.c, fit.r_squared)


def test_densification_snapshots_counts(tmp_path):
    registry = CountryRegistry.from_csv(densifying_registry_csv(tmp_path / "registry.csv"))
    rs = _corpus(tmp_path, densifying_corpus_rows())
    windows, pairs = densification_snapshots(ResolvedCorpus(rs, registry), 5)
    assert len(windows) == len(pairs) == 6
    for (n1, m1), (n2, m2) in zip(pairs, pairs[1:]):
        assert n1 <= n2 and m1 <= m2


# ---------------------------------------------------------------------------
# first-year and discipline series


def test_first_year_minimum(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 1990, "countries": ["Ukraine"]},
        {"id": "p3", "year": 1991, "countries": ["Japan"]},
    ]
    first, _ = first_year_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    assert first == {"JPN": 1991, "UKR": 1986}


def test_first_year_cumulative_region_series(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 1987, "countries": ["France"]},
        {"id": "p3", "year": 1989, "countries": ["Ukraine"]},
    ]
    _, cumulative = first_year_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    assert cumulative["Europe"] == {1986: 1, 1987: 2, 1988: 2, 1989: 2}
    assert cumulative["Asia"] == {1986: 0, 1987: 0, 1988: 0, 1989: 0}


def test_first_year_late_joiner(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1986, "countries": ["Ukraine"]},
        {"id": "p2", "year": 2011, "countries": ["Chile"]},
    ]
    first, cumulative = first_year_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    assert first["CHL"] == 2011
    assert cumulative["SouthAmerica"][2010] == 0
    assert cumulative["SouthAmerica"][2011] == 1


def test_first_year_series_nondecreasing_and_total(tmp_path, registry):
    rng = random.Random(6)
    from conftest import synthetic_corpus_rows

    rows = synthetic_corpus_rows(rng, 250, ["Ukraine", "France", "Japan", "Brazil", "Egypt", "Australia"])
    rs = _corpus(tmp_path, rows)
    first, cumulative = first_year_series(ResolvedCorpus(rs, registry))
    final_total = 0
    for region_series in cumulative.values():
        values = [region_series[y] for y in sorted(region_series)]
        assert values == sorted(values)
        if values:
            final_total += values[-1]
    assert final_total == len(first)


def test_discipline_series_multi_label(tmp_path, registry):
    rows = [{"id": "p1", "year": 1986, "subjects": ["Physics", "Medicine"]}]
    series = discipline_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    assert series["Physics"] == {1986: 1}
    assert series["Medicine"] == {1986: 1}


def test_discipline_series_empty(tmp_path, registry):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert discipline_series(ResolvedCorpus(parse_records(path), registry)) == {}


def test_discipline_series_unclassified(tmp_path, registry):
    rows = [{"id": "p1", "year": 1986}]
    series = discipline_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    assert series == {UNCLASSIFIED_SUBJECT: {1986: 1}}


def test_discipline_series_local_maximum(tmp_path, registry):
    rows = (
        [{"id": "a", "year": 1995, "subjects": ["Physics"]}]
        + [{"id": f"b{i}", "year": 1996, "subjects": ["Physics"]} for i in range(3)]
        + [{"id": "c", "year": 1997, "subjects": ["Physics"]}]
    )
    series = discipline_series(ResolvedCorpus(_corpus(tmp_path, rows), registry))
    physics = series["Physics"]
    assert physics[1996] > physics[1995]
    assert physics[1996] > physics[1997]
