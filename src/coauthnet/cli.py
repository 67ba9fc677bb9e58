"""Command-line front end: ingest -> build -> metrics -> slice/densify ->
export, plus a combined `report` run.

Every stage writes its artifacts into the output directory and receives
what it consumes: the registry (ingest), the resolved corpus (build, slice,
densify, report) or the main graph (metrics, export). Standalone stages read
that input back from the output directory (records.jsonl, graph.json), so
runs are cacheable and each step can be re-executed in isolation. `report`
resolves the corpus once and hands the corpus and graph to the other stages
in memory; it writes the same bytes as the standalone stages in sequence. A
resolved copy of the configuration is echoed to config.json; together with
the input file it fully determines every artifact byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .countries import REGIONS, CountryRegistry, builtin_registry
from .errors import DataError, UsageError
from .export import LayoutSpec, emit_series, render_network_svg, write_dot, write_pajek
from .graph import CoauthorshipGraph, ResolvedCorpus
from .ingest import (
    DEFAULT_TOPIC_VARIANTS,
    filter_topic,
    load_variants,
    parse_records,
    write_records_jsonl,
)
from .metrics import (
    CLUSTERING_MODES,
    centrality_table,
    degree_distribution,
    histogram_rows,
    is_clique,
    small_world,
    summary,
    summary_to_dict,
    top_k_by_degree,
)
from .temporal import (
    WINDOW_MODES,
    densification_fit,
    densification_snapshots,
    discipline_series,
    first_year_series,
    fit_to_dict,
    metric_series,
    slice_windows,
)

_COMMANDS = ("ingest", "build", "metrics", "slice", "densify", "export", "report")


@dataclass
class RunConfig:
    command: str
    input: str | None
    format: str
    variants: str | None
    registry: str | None
    window_length: int
    step: int
    mode: str
    clustering_mode: str
    sw_samples: int
    seed: int
    layout: str
    size_attr: str
    gamma: float
    top_k: int
    out: str


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems (argparse defaults to 2).
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def build_parser() -> _Parser:
    parser = _Parser(prog="coauthnet", description="Country-level coauthorship network toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("ingest", "parse records, apply the topic filter, report coverage"),
        ("build", "build the coauthorship graph over the full corpus span"),
        ("metrics", "summary, centralities, degree histogram, small-world report"),
        ("slice", "cut the corpus into time windows and emit per-window series"),
        ("densify", "fit the links-vs-nodes power law over cumulative snapshots"),
        ("export", "write Pajek/DOT/SVG renderings of the graph"),
        ("report", "run the whole pipeline and write report.md"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="record file (JSONL or CSV)")
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        p.add_argument("--variants", help="topic variants file, one term per line (default: built-in list)")
        p.add_argument("--registry", help="country registry CSV (default: built-in registry)")
        p.add_argument("--window-length", type=int, default=5, dest="window_length")
        p.add_argument("--step", type=int, default=5)
        p.add_argument("--mode", choices=WINDOW_MODES, default="sliding")
        p.add_argument("--clustering-mode", choices=CLUSTERING_MODES, default="exclude_low_degree", dest="clustering_mode")
        p.add_argument("--sw-samples", type=int, default=100, dest="sw_samples")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--layout", choices=("circular", "grouped_circles", "center_top_k", "year_bands"), default="circular")
        p.add_argument("--size-attr", choices=("paper_count", "degree", "none"), default="paper_count", dest="size_attr")
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--top-k", type=int, default=10, dest="top_k")
        p.add_argument("--out", default="out")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input=args.input,
        format=args.format,
        variants=args.variants,
        registry=args.registry,
        window_length=args.window_length,
        step=args.step,
        mode=args.mode,
        clustering_mode=args.clustering_mode,
        sw_samples=args.sw_samples,
        seed=args.seed,
        layout=args.layout,
        size_attr=args.size_attr,
        gamma=args.gamma,
        top_k=args.top_k,
        out=args.out,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_registry(cfg: RunConfig) -> CountryRegistry:
    return CountryRegistry.from_csv(cfg.registry) if cfg.registry else builtin_registry()


def _resolve_variants(cfg: RunConfig) -> tuple[str, ...]:
    return load_variants(cfg.variants) if cfg.variants else DEFAULT_TOPIC_VARIANTS


def _echo_config(cfg: RunConfig, out: Path) -> None:
    doc = asdict(cfg)
    doc["resolved_variants"] = list(_resolve_variants(cfg))
    _write_json(out / "config.json", doc)


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: RunConfig, registry: CountryRegistry, out: Path) -> ResolvedCorpus:
    if not cfg.input:
        raise UsageError("--input is required (no records.jsonl found in the output directory)")
    parsed = parse_records(cfg.input, cfg.format)
    corpus = ResolvedCorpus(filter_topic(parsed, _resolve_variants(cfg)), registry)
    write_records_jsonl(corpus.rs, out / "records.jsonl")
    cov = corpus.coverage
    _write_json(
        out / "coverage.json",
        {
            "total_parsed": parsed.coverage.total,
            "kept_after_topic_filter": cov.total,
            "with_affiliation": cov.with_affiliation,
            "affiliation_fraction": cov.affiliation_fraction,
            "unknown_country_names": [[name, count] for name, count in cov.unknown_country_names],
            "empty_corpus": cov.empty_corpus,
        },
    )
    return corpus


def _load_corpus(cfg: RunConfig, registry: CountryRegistry, out: Path) -> ResolvedCorpus:
    records_path = out / "records.jsonl"
    if records_path.exists() and not cfg.input:
        return ResolvedCorpus(parse_records(records_path, "jsonl"), registry)
    return stage_ingest(cfg, registry, out)


def stage_build(cfg: RunConfig, corpus: ResolvedCorpus, out: Path) -> CoauthorshipGraph:
    graph = corpus.graph()
    graph.save(out / "graph.json")
    return graph


def _load_graph(cfg: RunConfig, registry: CountryRegistry, out: Path) -> CoauthorshipGraph:
    graph_path = out / "graph.json"
    if graph_path.exists() and not cfg.input:
        return CoauthorshipGraph.load(graph_path)
    return stage_build(cfg, _load_corpus(cfg, registry, out), out)


def _smallworld_doc(graph: CoauthorshipGraph, cfg: RunConfig) -> dict:
    try:
        report = small_world(graph, cfg.sw_samples, cfg.seed, cfg.clustering_mode)
    except UsageError as exc:
        return {"skipped": str(exc)}
    return {
        "l_actual": report.l_actual,
        "c_actual": report.c_actual,
        "l_random_mean": report.l_random_mean,
        "c_random_mean": report.c_random_mean,
        "sample_count": report.sample_count,
        "seed": report.seed,
        "sigma": report.sigma if math.isfinite(report.sigma) else None,
    }


def stage_metrics(cfg: RunConfig, graph: CoauthorshipGraph, out: Path) -> dict:
    graph_summary = summary(graph, cfg.clustering_mode)
    _write_json(out / "summary.json", summary_to_dict(graph_summary))
    table = centrality_table(graph, cfg.clustering_mode)
    _write_json(out / "centrality.json", table)
    _write_json(out / "degree_histogram.json", histogram_rows(degree_distribution(graph)))
    sw_doc = _smallworld_doc(graph, cfg)
    _write_json(out / "smallworld.json", sw_doc)
    return {"summary": graph_summary, "centrality": table, "smallworld": sw_doc}


def stage_slice(cfg: RunConfig, corpus: ResolvedCorpus, out: Path) -> list:
    windows = slice_windows(corpus.rs, cfg.window_length, cfg.step, cfg.mode)
    _write_json(out / "windows.json", [[w.start_year, w.end_year] for w in windows])
    if windows:
        series = metric_series(corpus, windows, "summary", cfg.mode, cfg.clustering_mode)
        csv_text, _ = emit_series(series)
        (out / "series_summary.csv").write_text(csv_text, encoding="utf-8")
    else:
        (out / "series_summary.csv").write_text("", encoding="utf-8")
    for window in windows:
        print(window.label())
    return windows


def stage_densify(cfg: RunConfig, corpus: ResolvedCorpus, out: Path) -> dict:
    windows, pairs = densification_snapshots(corpus, cfg.window_length)
    lines = ["start_year,end_year,n,m"]
    lines += [f"{w.start_year},{w.end_year},{n},{m}" for w, (n, m) in zip(windows, pairs)]
    (out / "snapshots.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        doc = fit_to_dict(densification_fit(pairs))
    except UsageError as exc:
        doc = {"skipped": str(exc)}
    _write_json(out / "densification.json", doc)
    return doc


def _layout_spec(cfg: RunConfig) -> LayoutSpec:
    return LayoutSpec(kind=cfg.layout, size_attr=cfg.size_attr, gamma=cfg.gamma, k=cfg.top_k)


def _check_config(cfg: RunConfig) -> None:
    """Reject out-of-range flag values before any artifact is written."""
    _layout_spec(cfg)
    if cfg.window_length < 1:
        raise UsageError("window length must be >= 1")
    if cfg.step < 1:
        raise UsageError("window step must be >= 1")


def stage_export(cfg: RunConfig, graph: CoauthorshipGraph, out: Path) -> None:
    partition = {}
    for code in graph.codes():
        region = graph.node(code).region
        partition[code] = REGIONS.index(region) + 1 if region in REGIONS else 0
    net, clu = write_pajek(graph, partition)
    (out / "network.net").write_text(net, encoding="utf-8")
    (out / "network.clu").write_text(clu, encoding="utf-8")
    spec = _layout_spec(cfg)
    (out / "network.dot").write_text(write_dot(graph, spec), encoding="utf-8")
    (out / "network.svg").write_text(render_network_svg(graph, spec), encoding="utf-8")


# ---------------------------------------------------------------------------
# Report


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


def _pairs_text(pairs, limit: int = 6) -> str:
    shown = [f"{a}-{b}" for a, b in pairs[:limit]]
    if len(pairs) > limit:
        shown.append(f"... ({len(pairs)} pairs total)")
    return ", ".join(shown) if shown else "none"


def _report_markdown(cfg, cov, graph_summary, top_rows, top_clique, sw_doc, densify_doc, windows) -> str:
    s = graph_summary
    lines = ["# Country coauthorship network report", ""]

    lines += ["## Corpus", ""]
    lines.append(f"- records after topic filter: {cov.total}")
    lines.append(f"- records with affiliation countries: {cov.with_affiliation} ({_pct(cov.affiliation_fraction)})")
    if cov.unknown_country_names:
        shown = ", ".join(f"{name} ({count})" for name, count in cov.unknown_country_names[:5])
        lines.append(f"- unresolved country names: {shown}")
    else:
        lines.append("- unresolved country names: none")
    lines.append("")

    lines += ["## Network summary", ""]
    lines.append(f"- nodes: {s.n}")
    lines.append(f"- links: {s.m} (density: {s.density:.2f})")
    lines.append(f"- average degree: {s.mean_degree:.1f}")
    holders = ", ".join(s.max_degree_codes) if s.max_degree_codes else "none"
    lines.append(f"- max degree: {s.max_degree} ({holders})")
    lines.append(f"- diameter: {s.diameter} ({_pairs_text(s.diameter_endpoints)})")
    lines.append(f"- mean path length: {s.mean_path_length:.2f}")
    lines.append(f"- clustering coefficient: {s.avg_clustering:.2f} ({s.clustering_mode})")
    lines.append(f"- isolated nodes: {s.isolated_count} ({_pct(s.isolated_fraction)})")
    lines.append(f"- giant component: {s.giant_size} ({_pct(s.giant_fraction)})")
    lines.append("")

    lines += ["## Top countries by degree", ""]
    if top_rows:
        lines.append("| rank | code | degree | betweenness | closeness |")
        lines.append("| --- | --- | --- | --- | --- |")
        for rank, row in enumerate(top_rows, start=1):
            lines.append(
                f"| {rank} | {row['code']} | {row['degree']} | {row['betweenness']:.4f} | {row['closeness']:.4f} |"
            )
        lines.append("")
        lines.append(f"- these {len(top_rows)} countries form a clique: {'yes' if top_clique else 'no'}")
    else:
        lines.append("(empty graph)")
    lines.append("")

    lines += ["## Small-world comparison", ""]
    if "skipped" in sw_doc:
        lines.append(f"- skipped: {sw_doc['skipped']}")
    else:
        lines.append(f"- mean path length: {sw_doc['l_actual']:.3f} (random mean: {sw_doc['l_random_mean']:.3f})")
        lines.append(f"- clustering: {sw_doc['c_actual']:.3f} (random mean: {sw_doc['c_random_mean']:.3f})")
        sigma = sw_doc["sigma"]
        sigma_text = f"{sigma:.3f}" if isinstance(sigma, float) else "undefined (zero baseline clustering)"
        lines.append(f"- sigma: {sigma_text} (samples: {sw_doc['sample_count']}, seed: {sw_doc['seed']})")
    lines.append("")

    lines += ["## Densification fit (links vs nodes, cumulative snapshots)", ""]
    if "skipped" in densify_doc:
        lines.append(f"- skipped: {densify_doc['skipped']}")
    else:
        r2 = densify_doc["r_squared"]
        r2_text = f"{r2:.3f}" if r2 is not None else "exact fit (2 points)"
        lines.append(f"- alpha: {densify_doc['alpha']:.3f}")
        lines.append(f"- c: {densify_doc['c']:.4f}")
        lines.append(f"- r_squared: {r2_text}")
        lines.append(f"- points used: {densify_doc['points_used']} (excluded: {len(densify_doc['excluded'])})")
    lines.append("")

    lines += ["## Time windows", ""]
    lines.append(f"- mode: {cfg.mode}, length: {cfg.window_length}, step: {cfg.step}")
    lines.append(f"- windows: {', '.join(w.label() for w in windows) if windows else 'none'}")
    lines.append("")

    lines += ["## Artifacts", ""]
    for name in (
        "config.json",
        "records.jsonl",
        "coverage.json",
        "graph.json",
        "summary.json",
        "centrality.json",
        "degree_histogram.json",
        "smallworld.json",
        "windows.json",
        "series_summary.csv",
        "snapshots.csv",
        "densification.json",
        "first_years.json",
        "regions_cumulative.csv",
        "regions_cumulative.svg",
        "disciplines.csv",
        "disciplines.svg",
        "network.net",
        "network.clu",
        "network.dot",
        "network.svg",
    ):
        lines.append(f"- [{name}]({name})")
    lines.append("")
    return "\n".join(lines)


def stage_report(cfg: RunConfig, corpus: ResolvedCorpus, out: Path) -> None:
    graph = stage_build(cfg, corpus, out)
    result = stage_metrics(cfg, graph, out)
    windows = stage_slice(cfg, corpus, out)
    densify_doc = stage_densify(cfg, corpus, out)
    stage_export(cfg, graph, out)

    first_years, cumulative = first_year_series(corpus)
    _write_json(out / "first_years.json", first_years)
    regions_csv, regions_svg = emit_series(cumulative, chart="line", columns=list(REGIONS))
    (out / "regions_cumulative.csv").write_text(regions_csv, encoding="utf-8")
    (out / "regions_cumulative.svg").write_text(regions_svg or "", encoding="utf-8")
    disciplines = discipline_series(corpus.rs)
    disc_csv, disc_svg = emit_series(disciplines, chart="line")
    (out / "disciplines.csv").write_text(disc_csv, encoding="utf-8")
    (out / "disciplines.svg").write_text(disc_svg or "", encoding="utf-8")

    by_code = {row["code"]: row for row in result["centrality"]}
    top_rows = [by_code[code] for code in top_k_by_degree(graph, cfg.top_k)] if graph.n else []
    top_clique = is_clique(graph, [row["code"] for row in top_rows]) if top_rows else False
    markdown = _report_markdown(cfg, corpus.coverage, result["summary"], top_rows, top_clique, result["smallworld"], densify_doc, windows)
    (out / "report.md").write_text(markdown, encoding="utf-8")
    print(f"report written to {out / 'report.md'}")


_HANDLERS = {
    "ingest": stage_ingest,
    "build": stage_build,
    "metrics": stage_metrics,
    "slice": stage_slice,
    "densify": stage_densify,
    "export": stage_export,
    "report": stage_report,
}

# What each stage consumes, loaded once per run: the registry, the resolved
# corpus or the main graph.
_INPUTS = {
    "ingest": lambda cfg, registry, out: registry,
    "build": _load_corpus,
    "metrics": _load_graph,
    "slice": _load_corpus,
    "densify": _load_corpus,
    "export": _load_graph,
    "report": _load_corpus,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        _check_config(cfg)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        registry = _load_registry(cfg)
        _echo_config(cfg, out)
        _HANDLERS[cfg.command](cfg, _INPUTS[cfg.command](cfg, registry, out), out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
