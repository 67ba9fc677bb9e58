"""Command-line front end: ingest -> build -> metrics -> slice/densify ->
export, plus a combined `report` run.

STAGES names each stage in pipeline order: what it reads (the side files,
or corpus.json or graph.json from --out), what it writes and the flags it
uses; the parser, input loading, `report`'s stage order, invalidation and
config.json all read it. A standalone stage takes no flag that shaped its
cached input. Before writing, a stage deletes its own artifacts and those
of every stage downstream of it, report.md included. config.json holds
{stage: {flag: value}}: a stage rewrites its own section and drops those
downstream of it. `report` runs the stages, handing the corpus and graph over
in memory, so it writes the same bytes as the stages run in sequence, config.json
included, then renders report.md from the documents written (render_report).
Each artifact is written to a temporary name, then renamed.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .countries import CountryRegistry, builtin_registry
from .errors import DataError, UsageError, json_text, read_json
from .export import LAYOUT_KINDS, SIZE_ATTRS, LayoutSpec, compute_layout, emit_series, render_network_svg, write_dot
from .export import write_pajek, write_window_series
from .graph import CoauthorshipGraph, ResolvedCorpus
from .ingest import DEFAULT_TOPIC_VARIANTS, filter_topic, load_variants, parse_records, write_records_jsonl
from .metrics import CLUSTERING_MODES, DEFAULT_CLUSTERING_MODE, centrality_table, degree_distribution, is_clique
from .metrics import small_world, summary
from .temporal import WINDOW_MODES, densification_fit, densification_snapshots, discipline_series
from .temporal import first_year_series, metric_series, slice_windows


class Stage(NamedTuple):
    name: str
    help: str
    reads: str  # "side files", or an artifact of the stage upstream
    writes: tuple[str, ...]
    flags: tuple[str, ...]  # what config.json echoes in the stage's section


STAGES = (
    Stage("ingest", "parse records, apply the topic filter, report coverage", "side files",
          ("corpus.json", "records.jsonl", "coverage.json"),
          ("input", "format", "variants", "resolved_variants", "registry")),
    Stage("build", "build the coauthorship graph over the full corpus span", "corpus.json", ("graph.json",), ()),
    Stage("metrics", "summary, centralities, degree histogram, small-world report", "graph.json",
          ("summary.json", "centrality.json", "degree_histogram.json", "smallworld.json"),
          ("clustering_mode", "sw_samples", "seed")),
    Stage("slice", "cut the corpus into time windows and emit the per-window and per-year series", "corpus.json",
          ("windows.json", "series_summary.csv", "first_years.json", "regions_cumulative.csv",
           "regions_cumulative.svg", "disciplines.csv", "disciplines.svg"),
          ("window_length", "step", "mode", "clustering_mode")),
    Stage("densify", "fit the links-vs-nodes power law over cumulative snapshots", "corpus.json",
          ("snapshots.csv", "densification.json"), ("window_length",)),
    Stage("export", "write Pajek/DOT/SVG renderings of the graph", "graph.json",
          ("network.net", "network.clu", "network.dot", "network.svg"), ("layout", "size_attr", "gamma", "top_k")),
)

# Every flag but --out, by dest, in usage order; the layout flags default to LayoutSpec's fields.
_FLAGS = {
    "input": {"required": True, "help": "record file (JSONL or CSV)"},
    "format": {"choices": ("jsonl", "csv"), "default": "jsonl"},
    "variants": {"help": "topic variants file, one term per line (default: built-in list)"},
    "registry": {"help": "country registry CSV (default: built-in registry)"},
    "window_length": {"type": int, "default": 5},
    "step": {"type": int, "default": 5},
    "mode": {"choices": WINDOW_MODES, "default": "sliding"},
    "clustering_mode": {"choices": CLUSTERING_MODES, "default": DEFAULT_CLUSTERING_MODE},
    "sw_samples": {"type": int, "default": 100},
    "seed": {"type": int, "default": 0},
    "layout": {"choices": LAYOUT_KINDS, "default": LayoutSpec.kind},
    "size_attr": {"choices": SIZE_ATTRS, "default": LayoutSpec.size_attr},
    "gamma": {"type": float, "default": LayoutSpec.gamma},
    "top_k": {"type": int, "default": LayoutSpec.k},
}


def _upstream(stage: Stage) -> list[Stage]:
    """The stages whose artifacts shaped `stage`'s input, nearest first."""
    producers = [s for s in STAGES if stage.reads in s.writes]
    return [*producers, *(u for p in producers for u in _upstream(p))]


def _downstream(command: str) -> list[Stage]:
    """The stages `command` runs and every stage reading what they write, in pipeline order."""
    hit: list[Stage] = []
    for stage in STAGES:
        if command in ("report", stage.name) or any(stage.reads in s.writes for s in hit):
            hit.append(stage)
    return hit


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems (argparse defaults to 2).
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")

    # Report leftover arguments with the usage of the parser that got them: argparse
    # hands a subcommand's back to the top-level parser, which shows the top-level one.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> _Parser:
    parser = _Parser(prog="coauthnet", description="Country-level coauthorship network toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(s.name, s.help, {f for u in _upstream(s) for f in u.flags} - set(s.flags)) for s in STAGES]
    for name, help_text, shaping in [*commands, ("report", "run the whole pipeline and write report.md", set())]:
        p = sub.add_parser(name, help=help_text)
        # A standalone stage takes no flag that shaped the cached input it reads.
        for dest, options in _FLAGS.items():
            if dest not in shaping:
                p.add_argument("--" + dest.replace("_", "-"), **options)
        p.add_argument("--out", default="out")
    return parser


class OutputDir:
    """The output directory: every artifact is written through it, in the order report.md lists.
    `docs` keeps each JSON document written, by artifact name, for render_report."""

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.names: list[str] = []
        self.docs: dict = {}

    @contextmanager
    def path(self, name: str):
        """A temporary path to write `name` to; it replaces `name` once the write returns."""
        self.names.append(name)
        temp = self.root / f".{name}.tmp"
        try:
            yield temp
            os.replace(temp, self.root / name)
        finally:
            temp.unlink(missing_ok=True)

    def text(self, name: str, text: str) -> None:
        with self.path(name) as path:
            path.write_text(text, encoding="utf-8")

    def json(self, name: str, payload) -> None:
        self.text(name, json_text(payload))
        self.docs[name] = payload


def _cached(root: Path, name: str) -> Path:
    path = root / name
    if not path.is_file():
        producer = next(s.name for s in STAGES if name in s.writes)
        raise UsageError(f"no {name} in {root}: run `coauthnet {producer} --out {root}` first")
    return path


def _load_input(cfg: argparse.Namespace, root: Path, reads: str):
    """What a stage consumes, read before anything is written: the registry and topic
    variants (config.json echoes them), or the corpus or graph cached in --out."""
    if reads == "corpus.json":
        return ResolvedCorpus.load(_cached(root, reads))
    if reads == "graph.json":
        return CoauthorshipGraph.load(_cached(root, reads))
    cfg.resolved_variants = load_variants(cfg.variants) if cfg.variants else DEFAULT_TOPIC_VARIANTS
    return CountryRegistry.from_csv(cfg.registry) if cfg.registry else builtin_registry()


def _read_config(path: Path) -> dict:
    """The stage sections of the config.json at `path`; {} if there is none."""
    doc = read_json(path) if path.exists() else {}
    names = {s.name for s in STAGES}
    if not isinstance(doc, dict) or not all(k in names and isinstance(v, dict) for k, v in doc.items()):
        raise DataError(f"{path} does not hold one section per stage")
    return doc


def stage_ingest(cfg: argparse.Namespace, registry: CountryRegistry, out: OutputDir) -> ResolvedCorpus:
    parsed = parse_records(cfg.input, cfg.format)
    kept = filter_topic(parsed, cfg.resolved_variants)
    corpus = ResolvedCorpus(kept, registry)
    out.text("corpus.json", corpus.to_json())
    with out.path("records.jsonl") as path:
        write_records_jsonl(kept, path)
    out.json("coverage.json", {"total_parsed": len(parsed), **vars(corpus.coverage)})
    return corpus


def stage_build(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> CoauthorshipGraph:
    graph = corpus.graph()
    with out.path("graph.json") as path:
        graph.save(path)
    return graph


def _smallworld_doc(graph: CoauthorshipGraph, cfg: argparse.Namespace) -> dict:
    try:
        report = small_world(graph, cfg.sw_samples, cfg.seed, cfg.clustering_mode)
    except UsageError as exc:
        return {"skipped": str(exc)}
    return {**vars(report), "sigma": report.sigma if math.isfinite(report.sigma) else None}


def stage_metrics(cfg: argparse.Namespace, graph: CoauthorshipGraph, out: OutputDir) -> None:
    out.json("summary.json", vars(summary(graph, cfg.clustering_mode)))
    out.json("centrality.json", centrality_table(graph, cfg.clustering_mode))
    out.json("degree_histogram.json", degree_distribution(graph))
    out.json("smallworld.json", _smallworld_doc(graph, cfg))


def stage_slice(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> None:
    windows = slice_windows(corpus.span, cfg.window_length, cfg.step, cfg.mode)
    out.json("windows.json", [[w.start_year, w.end_year] for w in windows])
    out.text("series_summary.csv", write_window_series(metric_series(corpus, windows, cfg.clustering_mode)))
    first_years, cumulative = first_year_series(corpus)
    out.json("first_years.json", first_years)
    for name, series in (("regions_cumulative", cumulative), ("disciplines", discipline_series(corpus))):
        for suffix, text in zip(("csv", "svg"), emit_series(series)):
            out.text(f"{name}.{suffix}", text)
    for window in windows:
        print(window.label())


def stage_densify(cfg: argparse.Namespace, corpus: ResolvedCorpus, out: OutputDir) -> None:
    windows, pairs = densification_snapshots(corpus, cfg.window_length)
    rows = "".join(f"{w.start_year},{w.end_year},{n},{m}\n" for w, (n, m) in zip(windows, pairs))
    out.text("snapshots.csv", "start_year,end_year,n,m\n" + rows)
    try:
        doc = vars(densification_fit(pairs))
    except UsageError as exc:
        doc = {"skipped": str(exc)}
    out.json("densification.json", doc)


def _layout_spec(cfg: argparse.Namespace) -> LayoutSpec:
    return LayoutSpec(kind=cfg.layout, size_attr=cfg.size_attr, gamma=cfg.gamma, k=cfg.top_k)


def _check_config(cfg: argparse.Namespace) -> None:
    """Reject out-of-range flag values before any artifact is written."""
    _layout_spec(cfg)
    for name, value, floor in (("window length", cfg.window_length, 1), ("window step", cfg.step, 1),
                               ("--sw-samples", cfg.sw_samples, 1), ("--seed", cfg.seed, 0)):
        if value < floor:
            raise UsageError(f"{name} must be >= {floor}")


def stage_export(cfg: argparse.Namespace, graph: CoauthorshipGraph, out: OutputDir) -> None:
    """Render all four texts first, so a graph that cannot be drawn leaves no file."""
    net, clu = write_pajek(graph)
    layout = compute_layout(graph, _layout_spec(cfg))
    dot, svg = write_dot(graph, layout), render_network_svg(graph, layout)
    for suffix, text in (("net", net), ("clu", clu), ("dot", dot), ("svg", svg)):
        out.text(f"network.{suffix}", text)


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


def _pairs_text(pairs) -> str:
    shown = [f"{a}-{b}" for a, b in pairs[:6]]
    if len(pairs) > 6:
        shown.append(f"... ({len(pairs)} pairs total)")
    return ", ".join(shown) if shown else "none"


_MD_PUNCT = re.compile(r"([!-/:-@\[-`{-~])")
_LINE_END = re.compile(r"\r\n|\r|\n")


def _md_text(text: str) -> str:
    """Input text as Markdown that opens no structure: a backslash before each ASCII
    punctuation character (CommonMark 0.31.2 escapes them all) and a space for each line ending."""
    return _MD_PUNCT.sub(r"\\\1", _LINE_END.sub(" ", text))


def render_report(docs: dict, graph: CoauthorshipGraph, artifacts: list[str]) -> str:
    """report.md from the JSON documents the stages wrote, by artifact name (config.json, coverage.json,
    summary.json, centrality.json, smallworld.json, densification.json, windows.json), the graph
    (for the clique test only) and the artifact names in write order."""
    config, cov, s = docs["config.json"], docs["coverage.json"], docs["summary.json"]
    sw_doc, densify_doc = docs["smallworld.json"], docs["densification.json"]
    lines = ["# Country coauthorship network report", "", "## Corpus", ""]
    lines.append(f"- records after topic filter: {cov['kept_after_topic_filter']}")
    lines.append(f"- records with affiliation countries: {cov['with_affiliation']} "
                 f"({_pct(cov['affiliation_fraction'])})")
    shown = ", ".join(f"{_md_text(name)} ({count})" for name, count in cov["unknown_country_names"][:5])
    lines.append(f"- unresolved country names: {shown or 'none'}")

    lines += ["", "## Network summary", ""]
    lines.append(f"- nodes: {s['n']}")
    lines.append(f"- links: {s['m']} (density: {s['density']:.2f})")
    lines.append(f"- average degree: {s['mean_degree']:.1f}")
    lines.append(f"- max degree: {s['max_degree']} ({', '.join(s['max_degree_codes']) or 'none'})")
    lines.append(f"- diameter: {s['diameter']} ({_pairs_text(s['diameter_endpoints'])})")
    lines.append(f"- mean path length: {s['mean_path_length']:.2f}")
    lines.append(f"- clustering coefficient: {s['avg_clustering']:.2f} ({s['clustering_mode']})")
    lines.append(f"- isolated nodes: {s['isolated_count']} ({_pct(s['isolated_fraction'])})")
    lines.append(f"- giant component: {s['giant_size']} ({_pct(s['giant_fraction'])})")

    lines += ["", "## Top countries by degree", ""]
    # top_k_by_degree's rule, read off centrality.json.
    top_rows = sorted(docs["centrality.json"], key=lambda r: (-r["degree"], r["code"]))[: config["export"]["top_k"]]
    if top_rows:
        lines += ["| rank | code | degree | betweenness | closeness |", "| --- | --- | --- | --- | --- |"]
        lines += [
            f"| {rank} | {row['code']} | {row['degree']} | {row['betweenness']:.4f} | {row['closeness']:.4f} |"
            for rank, row in enumerate(top_rows, start=1)
        ]
        top_clique = is_clique(graph, [row["code"] for row in top_rows])
        lines += ["", f"- these {len(top_rows)} countries form a clique: {'yes' if top_clique else 'no'}"]
    else:
        lines.append("(empty graph)")

    lines += ["", "## Small-world comparison", ""]
    if "skipped" in sw_doc:
        lines.append(f"- skipped: {sw_doc['skipped']}")
    else:
        lines.append(f"- mean path length: {sw_doc['l_actual']:.3f} (random mean: {sw_doc['l_random_mean']:.3f})")
        lines.append(f"- clustering: {sw_doc['c_actual']:.3f} (random mean: {sw_doc['c_random_mean']:.3f})")
        sigma = sw_doc["sigma"]
        sigma_text = f"{sigma:.3f}" if isinstance(sigma, float) else "undefined (zero baseline clustering)"
        lines.append(f"- sigma: {sigma_text} (samples: {sw_doc['sample_count']}, seed: {sw_doc['seed']})")

    lines += ["", "## Densification fit (links vs nodes, cumulative snapshots)", ""]
    if "skipped" in densify_doc:
        lines.append(f"- skipped: {densify_doc['skipped']}")
    else:
        r2 = densify_doc["r_squared"]
        r2_text = f"{r2:.3f}" if r2 is not None else "exact fit (2 points)"
        lines.append(f"- alpha: {densify_doc['alpha']:.3f}")
        lines.append(f"- c: {densify_doc['c']:.4g}")
        lines.append(f"- r_squared: {r2_text}")
        lines.append(f"- points used: {densify_doc['points_used']} (excluded: {len(densify_doc['excluded'])})")

    lines += ["", "## Time windows", ""]
    lines.append("- mode: {mode}, length: {window_length}, step: {step}".format(**config["slice"]))
    lines.append(f"- windows: {', '.join(f'{a}-{b}' for a, b in docs['windows.json']) or 'none'}")

    lines += ["", "## Artifacts", ""]
    lines += [f"- [{name}]({name})" for name in artifacts]
    lines.append("")
    return "\n".join(lines)


def stage_report(cfg: argparse.Namespace, registry: CountryRegistry, out: OutputDir) -> None:
    # Results by stage name: a stage gets the registry or what the stage writing its input returned.
    results = {}
    for stage in STAGES:
        consumed = results[_upstream(stage)[0].name] if _upstream(stage) else registry
        # Through the module attribute, so that a wrapper bound to stage_<name> sees the call.
        results[stage.name] = globals()[f"stage_{stage.name}"](cfg, consumed, out)
    out.text("report.md", render_report(out.docs, results["build"], out.names))
    print(f"report written to {out.root / 'report.md'}")


def main(argv=None) -> int:
    # Before numpy loads: its OpenBLAS reads this once, so every product of this process runs on one thread.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        cfg = build_parser().parse_args(argv)
        _check_config(cfg)
        root = Path(cfg.out)
        stages = _downstream(cfg.command)
        consumed = _load_input(cfg, root, stages[0].reads)
        # Keep the sections of the stages this run leaves standing (ingest and report leave none).
        kept = _read_config(root / "config.json") if len(stages) < len(STAGES) else {}
        standing = {name: section for name, section in kept.items() if name not in {s.name for s in stages}}
        config = dict(standing)
        for stage in stages if cfg.command == "report" else stages[:1]:
            config[stage.name] = {flag: getattr(cfg, flag) for flag in stage.flags}
        out = OutputDir(root)
        invalidated = [*(artifact for s in stages for artifact in s.writes), "report.md"]
        for name in invalidated:
            (root / name).unlink(missing_ok=True)
        out.json("config.json", config)
        try:
            globals()[f"stage_{cfg.command}"](cfg, consumed, out)
        except BaseException:
            # A failed or interrupted command leaves only what the stages standing before it wrote.
            for name in invalidated:
                (root / name).unlink(missing_ok=True)
            out.json("config.json", standing)
            raise
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
