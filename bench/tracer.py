"""Span tracing of one coauthnet CLI process, from outside the package.

    python3 bench/tracer.py SPANS_JSON -- <coauthnet arguments>

coauthnet must be importable. The tracer wraps the functions listed in
SPANS at every name a caller looks them up by: the attribute of each
coauthnet module that holds the function, the entries of module-level
dicts such as the CLI's stage table, and methods on their class. It then
runs coauthnet.cli.main in this process, keeps the spans in memory and
writes them, with the counters, to SPANS_JSON when main returns. No file
of the package changes.

A span is [name, start, end, parent index]; times are perf_counter
seconds. A listed name the package no longer has is reported under
"absent" rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (span name, module, attribute); a dotted attribute names a method.
SPANS = (
    ("cli.main", "coauthnet.cli", "main"),
    ("cli.stage.ingest", "coauthnet.cli", "stage_ingest"),
    ("cli.stage.build", "coauthnet.cli", "stage_build"),
    ("cli.stage.metrics", "coauthnet.cli", "stage_metrics"),
    ("cli.stage.slice", "coauthnet.cli", "stage_slice"),
    ("cli.stage.densify", "coauthnet.cli", "stage_densify"),
    ("cli.stage.export", "coauthnet.cli", "stage_export"),
    ("cli.stage.report", "coauthnet.cli", "stage_report"),
    ("countries.registry_load", "coauthnet.countries", "builtin_registry"),
    ("ingest.parse_records", "coauthnet.ingest", "parse_records"),
    ("ingest.filter_topic", "coauthnet.ingest", "filter_topic"),
    ("ingest.coverage_stats", "coauthnet.ingest", "coverage_stats"),
    ("ingest.write_records", "coauthnet.ingest", "write_records_jsonl"),
    ("graph.build_network", "coauthnet.graph", "build_network"),
    ("graph.induced_subgraph", "coauthnet.graph", "induced_subgraph"),
    ("graph.graph_from_edges", "coauthnet.graph", "graph_from_edges"),
    ("graph.load", "coauthnet.graph", "CoauthorshipGraph.load"),
    ("graph.save", "coauthnet.graph", "CoauthorshipGraph.save"),
    ("metrics.summary", "coauthnet.metrics", "summary"),
    ("metrics.centrality_table", "coauthnet.metrics", "centrality_table"),
    ("metrics.betweenness", "coauthnet.metrics", "betweenness"),
    ("metrics.closeness", "coauthnet.metrics", "closeness"),
    ("metrics.components", "coauthnet.metrics", "components"),
    ("metrics.path_stats", "coauthnet.metrics", "path_stats"),
    ("metrics.clustering", "coauthnet.metrics", "clustering"),
    ("metrics.small_world", "coauthnet.metrics", "small_world"),
    ("metrics.random_edge_set", "coauthnet.metrics", "random_edge_set"),
    ("temporal.metric_series", "coauthnet.temporal", "metric_series"),
    ("temporal.densification_snapshots", "coauthnet.temporal", "densification_snapshots"),
    ("temporal.first_year_series", "coauthnet.temporal", "first_year_series"),
    ("temporal.discipline_series", "coauthnet.temporal", "discipline_series"),
    ("export.pajek", "coauthnet.export", "write_pajek"),
    ("export.dot", "coauthnet.export", "write_dot"),
    ("export.svg", "coauthnet.export", "render_network_svg"),
    ("export.emit_series", "coauthnet.export", "emit_series"),
)

# Work counters taken at span boundaries: span name -> (counter, measure of
# the bound arguments and the result).
COUNTERS = {
    "metrics.small_world": ("metrics.sw_samples", lambda args, result: args["samples"]),
    "graph.build_network": ("graph.records_scanned", lambda args, result: len(args["rs"].records)),
    "ingest.parse_records": ("ingest.records_parsed", lambda args, result: len(result.records)),
    "temporal.metric_series": ("temporal.windows", lambda args, result: len(args["windows"])),
    "temporal.densification_snapshots": ("temporal.snapshots", lambda args, result: len(result[0])),
}

# Methods too frequent for spans: only their calls are counted.
CALL_COUNTERS = (("countries.resolve_calls", "coauthnet.countries", "CountryRegistry.resolve"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, measure = counter
                self.counts[key] = self.counts.get(key, 0) + measure(bound.arguments, result)
            return result

        return traced

    def counted(self, key: str, fn):
        self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def count(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return count


def _package_modules() -> list:
    importlib.import_module("coauthnet")
    importlib.import_module("coauthnet.cli")
    return [m for name, m in sorted(sys.modules.items()) if name == "coauthnet" or name.startswith("coauthnet.")]


def _replace_everywhere(modules, original, wrapped) -> None:
    """Rebind every module attribute and module-level dict entry holding `original`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped


def _wrap(modules, name: str, module_name: str, attr: str, make) -> bool:
    module = sys.modules.get(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or not hasattr(owner, fn_name):
        return False
    if owner_name:
        raw = inspect.getattr_static(owner, fn_name)
        if isinstance(raw, classmethod):
            setattr(owner, fn_name, classmethod(make(name, raw.__func__)))
        else:
            setattr(owner, fn_name, make(name, raw))
    else:
        original = getattr(owner, fn_name)
        _replace_everywhere(modules, original, make(name, original))
    return True


def install(tracer: Tracer) -> None:
    modules = _package_modules()
    for name, module_name, attr in SPANS:
        if not _wrap(modules, name, module_name, attr, tracer.span):
            tracer.absent.append(name)
    for key, module_name, attr in CALL_COUNTERS:
        if not _wrap(modules, key, module_name, attr, tracer.counted):
            tracer.absent.append(key)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <coauthnet arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    code = sys.modules["coauthnet.cli"].main(cli_args)
    doc = {"exit": code, "spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
