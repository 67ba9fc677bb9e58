"""Command-line front end: ingest -> build -> metrics -> slice/densify ->
export, plus a combined `report` run.

Every stage writes its artifacts into the output directory and receives
what it consumes: the registry (ingest, report), the resolved corpus (build,
slice, densify) or the main graph (metrics, export). Standalone stages read
that input back from the output directory (records.jsonl, graph.json) and
take no flag that shaped it, so each step can be re-executed in isolation
and never reads a cache another configuration wrote. `report` ingests its
input, resolves the corpus once and hands the corpus and graph to the other
stages in memory; it writes the same bytes as the standalone stages in
sequence. The flags of the command are echoed to config.json; together with
the input file they fully determine every artifact byte `report` writes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .countries import REGIONS, CountryRegistry, builtin_registry
from .errors import DataError, UsageError
from .export import LAYOUT_KINDS, SIZE_ATTRS, LayoutSpec, emit_series, render_network_svg, write_dot, write_pajek
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
    top_k_by_degree,
)
from .temporal import (
    WINDOW_MODES,
    densification_fit,
    densification_snapshots,
    discipline_series,
    first_year_series,
    metric_series,
    slice_windows,
)


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems (argparse defaults to 2).
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


class _CommandParser(_Parser):
    # argparse hands a subcommand's leftover arguments back to the top-level
    # parser, whose error shows the top-level usage; report them here, with
    # the subcommand's own usage.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> _Parser:
    parser = _Parser(prog="coauthnet", description="Country-level coauthorship network toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
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
        # A standalone stage takes no flag that shaped the cached input it reads.
        if name in ("ingest", "report"):
            p.add_argument("--input", required=True, help="record file (JSONL or CSV)")
            p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
            p.add_argument("--variants", help="topic variants file, one term per line (default: built-in list)")
        if name not in ("metrics", "export"):
            p.add_argument("--registry", help="country registry CSV (default: built-in registry)")
        p.add_argument("--window-length", type=int, default=5, dest="window_length")
        p.add_argument("--step", type=int, default=5)
        p.add_argument("--mode", choices=WINDOW_MODES, default="sliding")
        p.add_argument("--clustering-mode", choices=CLUSTERING_MODES, default="exclude_low_degree", dest="clustering_mode")
        p.add_argument("--sw-samples", type=int, default=100, dest="sw_samples")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--layout", choices=LAYOUT_KINDS, default="circular")
        p.add_argument("--size-attr", choices=SIZE_ATTRS, default="paper_count", dest="size_attr")
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--top-k", type=int, default=10, dest="top_k")
        p.add_argument("--out", default="out")
    return parser


class OutputDir:
    """The output directory: every artifact is written through it, and its
    name recorded in write order for report.md's index."""

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.root / name

    def text(self, name: str, text: str) -> None:
        self.path(name).write_text(text, encoding="utf-8")

    def json(self, name: str, payload) -> None:
        self.text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_registry(cfg: argparse.Namespace) -> CountryRegistry:
    return CountryRegistry.from_csv(cfg.registry) if cfg.registry else builtin_registry()


def _load_side_files(cfg: argparse.Namespace, root: Path) -> CountryRegistry:
    """The registry of ingest and report. The topic variants are read here
    too and kept on the config, which config.json echoes."""
    cfg.resolved_variants = load_variants(cfg.variants) if cfg.variants else DEFAULT_TOPIC_VARIANTS
    return _load_registry(cfg)


def _cached(root: Path, name: str, producer: str) -> Path:
    path = root / name
    if not path.is_file():
        raise UsageError(f"no {name} in {root}: run `coauthnet {producer} --out {root}` first")
    return path


def _load_corpus(cfg: argparse.Namespace, root: Path) -> ResolvedCorpus:
    return ResolvedCorpus(parse_records(_cached(root, "records.jsonl", "ingest"), "jsonl"), _load_registry(cfg))


def _load_graph(cfg: argparse.Namespace, root: Path) -> CoauthorshipGraph:
    return CoauthorshipGraph.load(_cached(root, "graph.json", "build"))


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: argparse.Namespace, registry: CountryRegistry, out: OutputDir) -> ResolvedCorpus:
    parsed = parse_records(cfg.input, cfg.format)
    corpus = ResolvedCorpus(filter_topic(parsed, cfg.resolved_variants), registry)
    write_records_jsonl(corpus.rs, out.path("records.jsonl"))
    out.json("coverage.json", {"total_parsed": len(parsed), **vars(corpus.coverage)})
    return corpus


def stage_build(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> CoauthorshipGraph:
    graph = corpus.graph()
    graph.save(out.path("graph.json"))
    return graph


def _smallworld_doc(graph: CoauthorshipGraph, cfg: argparse.Namespace) -> dict:
    try:
        report = small_world(graph, cfg.sw_samples, cfg.seed, cfg.clustering_mode)
    except UsageError as exc:
        return {"skipped": str(exc)}
    doc = dict(vars(report))
    if not math.isfinite(report.sigma):
        doc["sigma"] = None
    return doc


def stage_metrics(cfg: argparse.Namespace, graph: CoauthorshipGraph, out: OutputDir) -> dict:
    graph_summary = summary(graph, cfg.clustering_mode)
    out.json("summary.json", vars(graph_summary))
    table = centrality_table(graph, cfg.clustering_mode)
    out.json("centrality.json", table)
    out.json("degree_histogram.json", histogram_rows(degree_distribution(graph)))
    sw_doc = _smallworld_doc(graph, cfg)
    out.json("smallworld.json", sw_doc)
    return {"summary": graph_summary, "centrality": table, "smallworld": sw_doc}


def stage_slice(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> list:
    windows = slice_windows(corpus.rs, cfg.window_length, cfg.step, cfg.mode)
    out.json("windows.json", [[w.start_year, w.end_year] for w in windows])
    csv_text, _ = emit_series(metric_series(corpus, windows, cfg.clustering_mode))
    out.text("series_summary.csv", csv_text)
    for window in windows:
        print(window.label())
    return windows


def stage_densify(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> dict:
    windows, pairs = densification_snapshots(corpus, cfg.window_length)
    lines = ["start_year,end_year,n,m"]
    lines += [f"{w.start_year},{w.end_year},{n},{m}" for w, (n, m) in zip(windows, pairs)]
    out.text("snapshots.csv", "\n".join(lines) + "\n")
    try:
        doc = vars(densification_fit(pairs))
    except UsageError as exc:
        doc = {"skipped": str(exc)}
    out.json("densification.json", doc)
    return doc


def _layout_spec(cfg: argparse.Namespace) -> LayoutSpec:
    return LayoutSpec(kind=cfg.layout, size_attr=cfg.size_attr, gamma=cfg.gamma, k=cfg.top_k)


def _check_config(cfg: argparse.Namespace) -> None:
    """Reject out-of-range flag values before any artifact is written."""
    _layout_spec(cfg)
    if cfg.window_length < 1:
        raise UsageError("window length must be >= 1")
    if cfg.step < 1:
        raise UsageError("window step must be >= 1")
    if cfg.sw_samples < 1:
        raise UsageError("--sw-samples must be >= 1")
    if cfg.seed < 0:
        raise UsageError("--seed must be >= 0")


def stage_export(cfg: argparse.Namespace, graph: CoauthorshipGraph, out: OutputDir) -> None:
    """Render all four texts first, so a graph that cannot be drawn leaves no file."""
    net, clu = write_pajek(graph)
    spec = _layout_spec(cfg)
    dot, svg = write_dot(graph, spec), render_network_svg(graph, spec)
    for suffix, text in (("net", net), ("clu", clu), ("dot", dot), ("svg", svg)):
        out.text(f"network.{suffix}", text)


# ---------------------------------------------------------------------------
# Report


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


def _pairs_text(pairs, limit: int = 6) -> str:
    shown = [f"{a}-{b}" for a, b in pairs[:limit]]
    if len(pairs) > limit:
        shown.append(f"... ({len(pairs)} pairs total)")
    return ", ".join(shown) if shown else "none"


def _report_markdown(cfg, cov, graph_summary, top_rows, top_clique, sw_doc, densify_doc, windows, artifacts) -> str:
    s = graph_summary
    lines = ["# Country coauthorship network report", ""]

    lines += ["## Corpus", ""]
    lines.append(f"- records after topic filter: {cov.kept_after_topic_filter}")
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
    for name in artifacts:
        lines.append(f"- [{name}]({name})")
    lines.append("")
    return "\n".join(lines)


def stage_report(cfg: argparse.Namespace, registry: CountryRegistry, out: OutputDir) -> None:
    corpus = stage_ingest(cfg, registry, out)
    graph = stage_build(cfg, corpus, out)
    result = stage_metrics(cfg, graph, out)
    windows = stage_slice(cfg, corpus, out)
    densify_doc = stage_densify(cfg, corpus, out)

    first_years, cumulative = first_year_series(corpus)
    out.json("first_years.json", first_years)
    regions_csv, regions_svg = emit_series(cumulative, columns=list(REGIONS))
    out.text("regions_cumulative.csv", regions_csv)
    out.text("regions_cumulative.svg", regions_svg)
    disc_csv, disc_svg = emit_series(discipline_series(corpus.rs))
    out.text("disciplines.csv", disc_csv)
    out.text("disciplines.svg", disc_svg)
    stage_export(cfg, graph, out)

    by_code = {row["code"]: row for row in result["centrality"]}
    top_rows = [by_code[code] for code in top_k_by_degree(graph, cfg.top_k)]
    top_clique = is_clique(graph, [row["code"] for row in top_rows])
    markdown = _report_markdown(
        cfg, corpus.coverage, result["summary"], top_rows, top_clique, result["smallworld"], densify_doc, windows, out.names
    )
    out.text("report.md", markdown)
    print(f"report written to {out.root / 'report.md'}")


_HANDLERS = {
    "ingest": stage_ingest,
    "build": stage_build,
    "metrics": stage_metrics,
    "slice": stage_slice,
    "densify": stage_densify,
    "export": stage_export,
    "report": stage_report,
}

# What each stage consumes, read before anything is written: the side files,
# or the corpus or graph cached in --out.
_INPUTS = {
    "ingest": _load_side_files,
    "build": _load_corpus,
    "metrics": _load_graph,
    "slice": _load_corpus,
    "densify": _load_corpus,
    "export": _load_graph,
    "report": _load_side_files,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        _check_config(cfg)
        root = Path(cfg.out)
        consumed = _INPUTS[cfg.command](cfg, root)
        out = OutputDir(root)
        out.json("config.json", vars(cfg))
        _HANDLERS[cfg.command](cfg, consumed, out)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
