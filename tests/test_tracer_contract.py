"""The names the benchmark tracer wraps must exist in the package.

bench/tracer.py wraps package functions by module and attribute name, and
reports a name it cannot find as absent instead of failing, so a rename or
a removed parameter would silently turn a per-layer metric into "absent".
The tracer is read from its file and never installed here.
"""

import ast
import dataclasses
import importlib
import inspect
import runpy
from pathlib import Path

from coauthnet import RecordSet, cli, metrics
from coauthnet.graph import graph_from_edges

from conftest import FIXTURE_CORPUS

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = runpy.run_path(str(BENCH / "tracer.py"))


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves():
    entries = TRACER["SPANS"] + TRACER["CALL_COUNTERS"]
    assert [name for name, module_name, attr in entries if not callable(_resolve(module_name, attr))] == []


def test_counters_bind_existing_parameters():
    spans = {name: (module_name, attr) for name, module_name, attr in TRACER["SPANS"]}
    for span, parameter in (
        ("temporal.metric_series", "windows"),
        ("metrics.small_world", "samples"),
        ("graph.build_network", "rs"),
    ):
        assert span in TRACER["COUNTERS"]
        assert parameter in inspect.signature(_resolve(*spans[span])).parameters, span
    # parse_records and build_network counters read RecordSet.records
    assert "records" in {f.name for f in dataclasses.fields(RecordSet)}


def test_small_world_draws_through_random_edge_set_once_per_sample(monkeypatch):
    # The tracer's metrics.random_edge_set_calls must equal --sw-samples, and
    # metrics.random_edge_set_s can read 0 only if small_world stops calling it.
    calls = []
    draw = metrics.random_edge_set

    def counted(n, m, rng):
        calls.append((n, m))
        return draw(n, m, rng)

    monkeypatch.setattr(metrics, "random_edge_set", counted)
    ring = graph_from_edges([(f"R{i:02d}", f"R{(i + 1) % 12:02d}") for i in range(12)])
    metrics.small_world(ring, 7, 3)
    assert calls == [(12, 12)] * 7


def test_main_reaches_every_stage_through_its_module_attribute(tmp_path, monkeypatch, capsys):
    # The tracer rebinds cli.stage_<name>; a dispatch through any other
    # reference (a function kept in a table row, say) would leave its
    # cli.stage.<name>_s metric at 0.
    commands = ["ingest", "build", "metrics", "slice", "densify", "export", "report"]
    calls = []
    for command in commands:
        stage = getattr(cli, f"stage_{command}")

        def counted(*args, _stage=stage, _command=command):
            calls.append(_command)
            return _stage(*args)

        monkeypatch.setattr(cli, f"stage_{command}", counted)
    out = tmp_path / "out"
    for command in commands:
        calls.clear()
        extra = ["--input", str(FIXTURE_CORPUS)] if command in ("ingest", "report") else []
        assert cli.main([command, *extra, "--sw-samples", "2", "--out", str(out)]) == 0
        assert calls == (["report", *commands[:-1]] if command == "report" else [command]), command


def test_every_package_import_of_the_bench_resolves():
    # bench/ imports package names at module and function level; a name the
    # package stops exporting would break a function-level import only when
    # that function runs.
    imported = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "coauthnet":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported[f"{path.name}: {node.module}.{alias.name}"] = hasattr(module, alias.name)
    assert imported
    assert [name for name, found in imported.items() if not found] == []
