"""Tests of the benchmark itself; not part of the package test suite.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from corpus import corpus_rows, expected_graph_size, write_jsonl  # noqa: E402

from coauthnet import builtin_registry  # noqa: E402
from coauthnet.cli import main as cli_main  # noqa: E402


def _registry_names(count=None):
    registry = builtin_registry()
    names = [registry.get(code).display_name for code in registry.codes()]
    return names[:count] if count else names


def _package_conftest():
    spec = importlib.util.spec_from_file_location("package_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, n_records, n_countries", [(0, 10_000, 100), (7, 500, None)])
def test_generator_reproduces_package_corpus(seed, n_records, n_countries):
    names = _registry_names(n_countries)
    reference = _package_conftest().synthetic_corpus_rows(random.Random(seed), n_records, names)
    assert corpus_rows(seed, n_records, names) == reference


def test_expected_graph_size_counts_distinct_countries_and_pairs():
    rows = [
        {"countries": ["A", "B", "B"]},
        {"countries": ["C"]},
        {"countries": []},
        {"countries": ["B", "A", "C"]},
    ]
    assert expected_graph_size(rows) == (3, 3)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A passing report tree on a small corpus, with its expected n and m."""
    base = tmp_path_factory.mktemp("report")
    rows = corpus_rows(3, 300, _registry_names(20))
    write_jsonl(base / "input.jsonl", rows)
    out = base / "out"
    argv = ["report", "--input", str(base / "input.jsonl"), "--out", str(out), "--sw-samples", "2"]
    assert cli_main(argv) == 0
    n, m = expected_graph_size(rows)
    return out, n, m


def _problems(out, n, m):
    return checks.check_artifacts(out, checks.report_artifacts(out), n, m)


def test_output_check_passes_on_an_intact_tree(small_report):
    assert _problems(*small_report) == []


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _set_summary_n(path):
    doc = json.loads(path.read_text())
    doc["n"] += 1
    path.write_text(json.dumps(doc))


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


CORRUPTIONS = [
    ("graph.json", _truncate),
    ("records.jsonl", _truncate),
    ("network.svg", _truncate),
    ("series_summary.csv", lambda p: p.write_text(p.read_text() + "1,2\n")),
    ("network.clu", _drop_last_line),
    ("network.net", _drop_last_line),
    ("network.dot", lambda p: p.write_text(p.read_text().replace("--", "->", 1))),
    ("summary.json", _set_summary_n),
    ("densification.json", lambda p: p.unlink()),
]


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS, ids=[name for name, _ in CORRUPTIONS])
def test_output_check_fires_on_a_corrupted_artifact(small_report, tmp_path, name, corrupt):
    out, n, m = small_report
    damaged = tmp_path / "out"
    shutil.copytree(out, damaged)
    corrupt(damaged / name)

    problems = _problems(damaged, n, m)
    assert problems and all(p.startswith(name) for p in problems)
    assert checks.tree_digest(damaged) != checks.tree_digest(out)

    failed = run.Rep(traced=False, wall=1.0, problems=problems)
    passed = run.Rep(traced=False, wall=1.0)
    metrics = run.end_to_end_metrics(run.WORKLOADS["report_10k"], [passed, failed], [0.1])
    assert metrics["success_rate"] == 0.5


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 6.0, 0],
    ]
    assert run.self_times(spans) == {"root": 6.0, "child": 3.0, "grandchild": 1.0}


def test_tracer_counts_the_report_stages(tmp_path):
    write_jsonl(tmp_path / "input.jsonl", corpus_rows(5, 300, _registry_names(20)))
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--",
            "report", "--input", "input.jsonl", "--out", "out", "--sw-samples", "3"]
    subprocess.run(argv, cwd=tmp_path, env={"PYTHONPATH": str(ROOT / "src")}, check=True, capture_output=True)
    doc = json.loads(spans_path.read_text())
    assert doc["exit"] == 0 and doc["absent"] == []
    calls = {}
    for name, start, end, parent in doc["spans"]:
        calls[name] = calls.get(name, 0) + 1
        assert start <= end
    assert [s[0] for s in doc["spans"] if s[3] is None] == ["cli.main"]
    assert calls["ingest.parse_records"] == 3
    assert calls["metrics.centrality_table"] == 2
    assert calls["metrics.random_edge_set"] == 3
    assert doc["counts"]["metrics.sw_samples"] == 3
    assert doc["counts"]["countries.resolve_calls"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
