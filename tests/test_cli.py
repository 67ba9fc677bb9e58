import hashlib
import json
import random

import pytest

from coauthnet import read_pajek
from coauthnet.cli import main

from conftest import FIXTURE_CORPUS, synthetic_corpus_rows, write_jsonl


def run(*args):
    return main([str(a) for a in args])


def test_report_on_reference_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, "--out", out) == 0
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "nodes: 8" in report
    assert "links: 11" in report
    assert "density: 0.39" in report
    assert "diameter: 4" in report
    assert "FIN-GRC" in report and "FIN-HUN" in report
    # every linked artifact exists
    for line in report.splitlines():
        if line.startswith("- ["):
            name = line.split("](")[1].rstrip(")")
            assert (out / name).exists(), name


def test_slice_lists_windows(tmp_path, capsys):
    rows = [
        {"id": "a", "year": 1986, "text": "chernobyl", "countries": ["Ukraine"]},
        {"id": "b", "year": 2015, "text": "chernobyl", "countries": ["France"]},
    ]
    corpus = write_jsonl(tmp_path / "span.jsonl", rows)
    out = tmp_path / "out"
    assert run("slice", "--input", corpus, "--mode", "cumulative", "--window-length", 5, "--step", 5, "--out", out) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == ["1986-1990", "1986-1995", "1986-2000", "1986-2005", "1986-2010", "1986-2015"]
    assert len(json.loads((out / "windows.json").read_text())) == 6
    header = (out / "series_summary.csv").read_text().splitlines()[0]
    assert header.startswith("start_year,end_year,n,m,")


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert run("frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert run("ingest", "--out", tmp_path / "out") == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_data_exit(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path / "nope.jsonl", "--out", tmp_path / "out") == 2


def test_malformed_row_is_data_exit(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "year": "nope", "text": "chernobyl"}\n', encoding="utf-8")
    assert run("ingest", "--input", bad, "--out", tmp_path / "out") == 2
    assert "line 1" in capsys.readouterr().err


_WINDOW = {"start_year": 1990, "end_year": 1991}


@pytest.mark.parametrize(
    "doc",
    [
        {"window": _WINDOW, "nodes": [{"code": 1}, {"code": "AT"}], "edges": []},
        {"window": _WINDOW, "nodes": [{"code": "AT"}, {"code": "BE"}], "edges": [[["AT"], "BE", 1]]},
        {"window": _WINDOW, "nodes": [{"code": "AT"}, {"code": "BE"}], "edges": [["AT", "BE", True]]},
    ],
    ids=["int-code", "list-endpoint", "bool-weight"],
)
def test_malformed_graph_json_is_data_exit(tmp_path, capsys, doc):
    out = tmp_path / "out"
    out.mkdir()
    (out / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run("metrics", "--out", out) == 2
    err = capsys.readouterr().err
    assert "malformed graph document" in err and "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_file_mediated_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    assert (out / "records.jsonl").exists()
    coverage = json.loads((out / "coverage.json").read_text())
    assert coverage["kept_after_topic_filter"] == 11
    assert coverage["affiliation_fraction"] == 1.0

    # later stages run from artifacts only
    assert run("build", "--out", out) == 0
    graph_doc = json.loads((out / "graph.json").read_text())
    assert len(graph_doc["nodes"]) == 8
    assert len(graph_doc["edges"]) == 11

    assert run("metrics", "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 8 and summary["m"] == 11
    centrality = json.loads((out / "centrality.json").read_text())
    assert [row["code"] for row in centrality] == sorted(row["code"] for row in centrality)
    sw = json.loads((out / "smallworld.json").read_text())
    assert sw["sample_count"] == 100

    assert run("export", "--out", out, "--size-attr", "degree") == 0
    labels, edges = read_pajek((out / "network.net").read_text())
    assert len(labels) == 8 and len(edges) == 11
    assert (out / "network.svg").read_text().startswith("<svg")


def test_config_echo(tmp_path):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--seed", 7, "--out", out) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 7
    assert config["resolved_variants"] == ["chernobyl", "chornobyl"]
    assert config["command"] == "ingest"


def test_custom_variants_filter_everything(tmp_path):
    variants = tmp_path / "variants.txt"
    variants.write_text("fusion\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, "--variants", variants, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["empty"] is True
    report = (out / "report.md").read_text()
    assert "nodes: 0" in report
    assert "skipped" in report


def test_custom_registry(tmp_path):
    registry = tmp_path / "registry.csv"
    registry.write_text(
        "code,display_name,region,historic,aliases\n"
        "AUT,Austria,Europe,false,\n"
        "BEL,Belgium,Europe,false,\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run("build", "--input", FIXTURE_CORPUS, "--registry", registry, "--out", out) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert [nd["code"] for nd in doc["nodes"]] == ["AUT", "BEL"]
    coverage = json.loads((out / "coverage.json").read_text())
    assert any(name == "Estonia" for name, _ in coverage["unknown_country_names"])


def test_sw_samples_and_seed_flags(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run("metrics", "--input", FIXTURE_CORPUS, "--sw-samples", 17, "--seed", 3, "--out", out) == 0
    sw_a = json.loads((out_a / "smallworld.json").read_text())
    sw_b = json.loads((out_b / "smallworld.json").read_text())
    assert sw_a == sw_b
    assert sw_a["sample_count"] == 17
    assert sw_a["seed"] == 3


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--variants", b"\xff\xfechernobyl\n"),
        ("--registry", b"code,display_name,region,historic,aliases\nAUT,Aus\xfftria,Europe,false,\n"),
    ],
    ids=["variants", "registry"],
)
def test_non_utf8_side_file_is_data_exit(tmp_path, capsys, flag, content):
    side = tmp_path / "side.txt"
    side.write_bytes(content)
    assert run("ingest", "--input", FIXTURE_CORPUS, flag, side, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(side) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("corpus", ["fixture", "synthetic"])
def test_report_equals_staged_run(tmp_path, capsys, corpus):
    if corpus == "fixture":
        corpus = FIXTURE_CORPUS
    else:
        rows = synthetic_corpus_rows(random.Random(4), 300, ["Ukraine", "USSR", "France", "Japan", "Atlantis"])
        corpus = write_jsonl(tmp_path / "synthetic.jsonl", rows)
    flags = ["--mode", "cumulative", "--window-length", 3, "--step", 3, "--sw-samples", 5, "--seed", 2]
    report, staged = tmp_path / "report", tmp_path / "staged"
    assert run("report", "--input", corpus, *flags, "--out", report) == 0
    assert run("ingest", "--input", corpus, *flags, "--out", staged) == 0
    for stage in ("build", "metrics", "slice", "densify", "export"):
        assert run(stage, *flags, "--out", staged) == 0
    staged_names = sorted(p.name for p in staged.iterdir())
    assert set(staged_names) <= {p.name for p in report.iterdir()}
    assert len(staged_names) == 16
    for name in staged_names:
        if name != "config.json":
            assert (report / name).read_bytes() == (staged / name).read_bytes(), name


@pytest.mark.parametrize(
    "flag, value",
    [("--top-k", 0), ("--gamma", 2), ("--gamma", 0), ("--window-length", 0), ("--step", 0)],
)
def test_bad_flag_value_writes_no_artifact(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, flag, value, "--out", out) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# sha256 of report artifacts on the criterion-9 corpus (seed 0, first 100
# registry countries, 10,000 records), recorded before the dense metrics
# kernel replaced the per-node BFS loops; a faster kernel must keep them.
CRITERION_9_DIGESTS = {
    "smallworld.json": "a55ea0249ec7e8cd91be231ed9db4bb3edc6bca5093018d8aeb0c996e8608716",
    "summary.json": "b3933843a66a2f6fc052accf7bba656af0d75a04deceefdcd1072e992271d9db",
    "centrality.json": "3f05745d47b97023b75b90e79d61c1068802e719bf6e62af049448c72dbc4734",
    "series_summary.csv": "92cdf96b555c87caa11fe7a10a9ff1fdaea3e90081986bb9ae21dddc4e5716bb",
    "snapshots.csv": "2edd51ea703ebe25c48822a4c412542cc8ff0022f0ff6ff0ea3154ee532ceeb3",
}


def test_report_bytes_on_criterion_9_corpus(tmp_path, capsys, registry):
    names = [registry.get(code).display_name for code in registry.codes()[:100]]
    corpus = write_jsonl(tmp_path / "big.jsonl", synthetic_corpus_rows(random.Random(0), 10000, names))
    out = tmp_path / "out"
    assert run("report", "--input", corpus, "--out", out) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CRITERION_9_DIGESTS}
    assert digests == CRITERION_9_DIGESTS
