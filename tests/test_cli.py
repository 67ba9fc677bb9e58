import hashlib
import json
import random
import re
import runpy
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coauthnet import CoauthorshipGraph, cli, export, metrics
from coauthnet.cli import main
from coauthnet.countries import REGIONS
from coauthnet.errors import read_json
from coauthnet.export import LAYOUT_KINDS, read_pajek

from conftest import FIXTURE_CORPUS, synthetic_corpus_rows, write_jsonl
from tree_checks import tree_faults


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


def test_report_links_every_artifact_in_write_order(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, "--out", out) == 0
    lines = (out / "report.md").read_text(encoding="utf-8").splitlines()
    links = [line.split("](")[1].rstrip(")") for line in lines[lines.index("## Artifacts") :] if line.startswith("- [")]
    assert len(links) == len(set(links))
    assert sorted(links) == sorted(p.name for p in out.iterdir() if p.name != "report.md")
    mtimes = [(out / name).stat().st_mtime_ns for name in [*links, "report.md"]]
    assert mtimes == sorted(mtimes)


_HEADINGS = [
    "## Corpus",
    "## Network summary",
    "## Top countries by degree",
    "## Small-world comparison",
    "## Densification fit (links vs nodes, cumulative snapshots)",
    "## Time windows",
    "## Artifacts",
]


def _links(text):
    """The link targets of Markdown `text`: each `](` not escaped by a backslash."""
    return re.findall(r"(?<!\\)\]\(([^)]*)\)", text)


def test_report_md_takes_no_markdown_from_its_input(tmp_path, capsys):
    rows = [{"id": "a", "year": 1990, "text": "chernobyl", "countries": ["Foo](missing.json)\n## Fake"]}]
    out = tmp_path / "out"
    assert run("report", "--input", write_jsonl(tmp_path / "one.jsonl", rows), "--sw-samples", 1, "--out", out) == 0
    lines = (out / "report.md").read_text(encoding="utf-8").split("\n")
    assert [line for line in lines if line.startswith("## ")] == _HEADINGS
    assert "- unresolved country names: Foo\\]\\(missing\\.json\\) \\#\\# Fake (1)" in lines
    assert "missing.json" not in _links("\n".join(lines))


_MARKUP = st.sampled_from(["]", "(", ")", "#", "<", "`", "*", "\n", "\r"])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(names=st.lists(st.lists(_MARKUP | st.text(max_size=3), min_size=1, max_size=10).map("".join), max_size=4))
def test_report_md_structure_whatever_the_unresolved_names(names):
    # A line ending in a name could start a heading, and `](`...`)` a link.
    rows = [
        {"id": "a", "year": 1990, "text": "chernobyl", "countries": ["France", "Japan", *names]},
        {"id": "b", "year": 1992, "text": "chernobyl", "countries": [*names[:2], "Ukraine"]},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run("report", "--input", write_jsonl(Path(tmp) / "r.jsonl", rows), "--sw-samples", 1, "--out", out) == 0
        text = (out / "report.md").read_text(encoding="utf-8")
        written = sorted(p.name for p in out.iterdir() if p.name != "report.md")
    # CommonMark's line endings; an ATX heading may be indented by up to three spaces.
    headings = [line.lstrip(" ") for line in re.split(r"\r\n|\r|\n", text) if line.lstrip(" ").startswith("#")]
    assert headings == ["# Country coauthorship network report", *_HEADINGS]
    expected = ["config.json", *(name for stage in _READS_FROM for name in _WRITES[stage])]
    assert _links(text) == expected and sorted(expected) == written


@pytest.mark.parametrize("layout", LAYOUT_KINDS)
@pytest.mark.parametrize("corpus", ["fixture", "synthetic"])
def test_report_md_is_rendered_from_the_tree(tmp_path, capsys, corpus, layout):
    # render_report of the documents read back from the tree gives report.md byte for byte,
    # so every number report.md prints is its JSON value as formatted there.
    if corpus == "fixture":
        corpus = FIXTURE_CORPUS
    else:
        rows = synthetic_corpus_rows(random.Random(7), 200, ["Ukraine", "France", "Japan", "Brazil", "Atlantis"])
        corpus = write_jsonl(tmp_path / "synthetic.jsonl", rows)
    out = tmp_path / "out"
    assert run("report", "--input", corpus, "--layout", layout, "--top-k", 3, "--sw-samples", 3, "--out", out) == 0
    text = (out / "report.md").read_text(encoding="utf-8")
    docs = {path.name: read_json(path) for path in out.glob("*.json")}
    assert cli.render_report(docs, CoauthorshipGraph.load(out / "graph.json"), _links(text)) == text


def test_slice_lists_windows(tmp_path, capsys):
    rows = [
        {"id": "a", "year": 1986, "text": "chernobyl", "countries": ["Ukraine"]},
        {"id": "b", "year": 2015, "text": "chernobyl", "countries": ["France"]},
    ]
    corpus = write_jsonl(tmp_path / "span.jsonl", rows)
    out = tmp_path / "out"
    assert run("ingest", "--input", corpus, "--out", out) == 0
    assert run("slice", "--mode", "cumulative", "--window-length", 5, "--step", 5, "--out", out) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == ["1986-1990", "1986-1995", "1986-2000", "1986-2005", "1986-2010", "1986-2015"]
    assert len(json.loads((out / "windows.json").read_text())) == 6
    header = (out / "series_summary.csv").read_text().splitlines()[0]
    assert header.startswith("start_year,end_year,n,m,")


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert run("frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_shows_the_subcommand_usage(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("build", "--input", "x", "--out", out) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --input x" in err
    assert "usage: coauthnet build" in err and "--window-length" in err and "--registry" not in err
    assert "{ingest," not in err
    assert not out.exists()


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert run("ingest", "--out", tmp_path / "out") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_missing_input_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "fresh"
    assert run(command, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error" in err and "--input" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cached, producer",
    [
        ("build", "corpus.json", "ingest"),
        ("slice", "corpus.json", "ingest"),
        ("densify", "corpus.json", "ingest"),
        ("metrics", "graph.json", "build"),
        ("export", "graph.json", "build"),
    ],
)
def test_missing_cache_writes_nothing(tmp_path, capsys, command, cached, producer):
    out = tmp_path / "fresh"
    assert run(command, "--out", out) == 1
    err = capsys.readouterr().err
    assert cached in err and f"coauthnet {producer} --out" in err
    assert not out.exists()


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# Each standalone stage reads a cache that these flags shaped, so it rejects them.
_CACHE_SHAPING_FLAGS = [
    (stage, flag)
    for stage in ("build", "slice", "densify", "metrics", "export")
    for flag in ("--input", "--format", "--variants", "--registry")
]


@pytest.mark.parametrize("command, flag", _CACHE_SHAPING_FLAGS)
def test_stage_rejects_flags_that_shaped_its_cache(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    assert run("build", "--out", out) == 0
    variants = tmp_path / "variants.txt"
    variants.write_text("fusion\n", encoding="utf-8")
    registry = tmp_path / "registry.csv"
    registry.write_text("code,display_name,region,historic,aliases\nZZ,Zedland,Europe,false,\n", encoding="utf-8")
    value = {"--input": FIXTURE_CORPUS, "--format": "csv", "--variants": variants, "--registry": registry}[flag]
    before = _tree_bytes(out)
    capsys.readouterr()
    assert run(command, flag, value, "--out", out) == 1
    assert flag in capsys.readouterr().err
    assert _tree_bytes(out) == before


def test_report_never_reuses_ingested_records(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    variants = tmp_path / "variants.txt"
    variants.write_text("fusion\n", encoding="utf-8")
    before = _tree_bytes(out)
    assert run("report", "--variants", variants, "--out", out) == 1
    assert not (out / "graph.json").exists()
    assert list(json.loads((out / "config.json").read_text())) == ["ingest"]
    assert _tree_bytes(out) == before


def test_missing_file_is_data_exit(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path / "nope.jsonl", "--out", tmp_path / "out") == 2


def test_malformed_row_is_data_exit(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "year": "nope", "text": "chernobyl"}\n', encoding="utf-8")
    assert run("ingest", "--input", bad, "--out", tmp_path / "out") == 2
    assert "line 1" in capsys.readouterr().err


_WINDOW = {"start_year": 1990, "end_year": 1991}


def _graph(codes, edges):
    return {"window": _WINDOW, "nodes": [{"code": code} for code in codes], "edges": edges}


# graph.json texts that CoauthorshipGraph.to_json never writes, and the message that says why.
_BAD_GRAPH = {
    "int-code": ({"window": _WINDOW, "nodes": [{"code": 1}, {"code": "AT"}], "edges": []}, "node code 1 has the wrong type"),
    "list-endpoint": (_graph(["AT", "BE"], [[["AT"], "BE", 1]]), "edge endpoint ['AT'] has the wrong type"),
    "bool-weight": (_graph(["AT", "BE"], [["AT", "BE", True]]), "edge weight True has the wrong type"),
    "unknown-region": (
        {"window": _WINDOW, "nodes": [{"code": "AT", "region": "Mars"}], "edges": []},
        f"node AT region 'Mars' is not one of {REGIONS}",
    ),
    "negative-paper-count": (
        {"window": _WINDOW, "nodes": [{"code": "AT", "paper_count": -1}], "edges": []},
        "node AT paper_count -1 is negative",
    ),
    **{
        label: (_graph([code], []), f"node code {code!r} is not 2-3 uppercase letters")
        for label, code in (("quote-code", 'A"B'), ("empty-code", ""), ("newline-code", "AB\n"))
    },
    "nodes-out-of-order": (_graph(["BE", "AT"], []), "node AT is listed after BE"),
    "duplicate-node": (_graph(["AT", "AT"], []), "duplicate node AT"),
    "reversed-edge": (_graph(["AT", "BE"], [["BE", "AT", 1]]), "edge BE-AT does not list its codes in order"),
    "unsorted-edges": (
        _graph(["AT", "BE", "CH"], [["AT", "CH", 1], ["AT", "BE", 1]]),
        "edge AT-BE is listed after AT-CH",
    ),
    "long-edge": (_graph(["AT", "BE"], [["AT", "BE", 1, 5]]), "edge ['AT', 'BE', 1, 5] has 4 entries, not 3"),
    "no-window": ({"nodes": [], "edges": []}, "no 'window' field"),
}


@pytest.mark.parametrize("doc, message", _BAD_GRAPH.values(), ids=list(_BAD_GRAPH))
def test_malformed_graph_json_is_data_exit(tmp_path, capsys, doc, message):
    out = tmp_path / "out"
    out.mkdir()
    (out / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run("metrics", "--out", out) == 2
    assert capsys.readouterr().err == f"data error: {out / 'graph.json'}: malformed graph document: {message}\n"
    assert [p.name for p in out.iterdir()] == ["graph.json"]


def test_export_that_cannot_draw_writes_no_network_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    doc = {"window": _WINDOW, "nodes": [{"code": "AT"}, {"code": "BE"}], "edges": [["AT", "BE", 1]]}
    (out / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run("export", "--out", out) == 1
    assert "no paper count" in capsys.readouterr().err
    assert not list(out.glob("network.*"))
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "graph.json"]
    assert "export" not in json.loads((out / "config.json").read_text())


def test_export_lays_the_graph_out_once(tmp_path, monkeypatch, capsys):
    # One layout, with its one top-k ranking, feeds both network.dot and network.svg;
    # the three writers are reached through coauthnet.cli's module attributes, which
    # are what a tracer wraps, so export.pajek_s, export.dot_s and export.svg_s stay timed.
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    assert run("build", "--out", out) == 0
    calls = []
    for module in (cli, export):
        for name in ("compute_layout", "top_k_by_degree", "write_pajek", "write_dot", "render_network_svg"):
            if hasattr(module, name):

                def counted(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}"):
                    calls.append(_name)
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
    assert run("export", "--layout", "center_top_k", "--top-k", 3, "--out", out) == 0
    assert sorted(calls) == [
        "coauthnet.cli.compute_layout",
        "coauthnet.cli.render_network_svg",
        "coauthnet.cli.write_dot",
        "coauthnet.cli.write_pajek",
        "coauthnet.export.top_k_by_degree",
    ]


@pytest.mark.parametrize("layout", LAYOUT_KINDS)
def test_report_ranks_the_top_k_once(tmp_path, monkeypatch, capsys, layout):
    # Only center_top_k's layout calls top_k_by_degree; report.md ranks its rows from
    # centrality.json by the same rule, so the two spellings must give the same codes.
    calls = []
    rank = metrics.top_k_by_degree

    def counted(g, k):
        calls.append(k)
        return rank(g, k)

    for module in (cli, export):
        if hasattr(module, "top_k_by_degree"):
            monkeypatch.setattr(module, "top_k_by_degree", counted)
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, "--layout", layout, "--top-k", 3, "--out", out) == 0
    assert calls == ([3] if layout == "center_top_k" else [])
    lines = (out / "report.md").read_text(encoding="utf-8").splitlines()
    ranked = [line.split(" | ")[1] for line in lines if line.startswith("| ") and line[2].isdigit()]
    assert ranked == rank(CoauthorshipGraph.load(out / "graph.json"), 3)


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_record_int_of_too_many_digits_is_data_exit(tmp_path, capsys, command):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an int
    # beyond the interpreter's digit limit (4,300 by default).
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "year": 1986}\n{"id": "b", "year": ' + "1" * 5000 + "}\n", encoding="utf-8")
    assert run(command, "--input", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: invalid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field", ["id", "text", "countries", "subjects"])
@pytest.mark.parametrize("command", ["ingest", "report"])
def test_record_lone_surrogate_is_data_exit(tmp_path, capsys, command, field):
    # A \ud800 escape with no low surrogate after it decodes to a string no UTF-8 artifact can hold.
    record = {"id": "b", "year": 1986, "text": "Chernobyl", "countries": ["Ukraine"], "subjects": ["Bio"]}
    record[field] = [record[field][0] + "\ud800"] if field in ("countries", "subjects") else record[field] + "\ud800"
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "year": 1986}\n' + json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, "--input", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: record ") and err.endswith(": a string holds a lone surrogate\n")
    assert [p.name for p in out.iterdir()] == ["config.json"]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_report_svgs_parse_whatever_the_subjects(tmp_path, capsys, fmt):
    # XML 1.0 cannot carry C0 controls other than tab, LF and CR, nor U+FFFE and U+FFFF.
    subjects = ["Phys\x01ics", "Geo\x0blogy", "Bio\ufffelogy\uffff"]
    if fmt == "jsonl":
        path = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "a", "year": 1986, "text": "Chernobyl", "countries": ["Ukraine", "USSR"], "subjects": subjects},
        ])
    else:  # the raw bytes in a CSV cell
        path = tmp_path / "in.csv"
        path.write_text("id,year,text,countries,subjects\na,1986,Chernobyl,Ukraine;USSR," + ";".join(subjects) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("report", "--input", path, "--format", fmt, "--out", out) == 0
    for svg in sorted(out.glob("*.svg")):
        ET.parse(svg)
    legend = (out / "disciplines.svg").read_text(encoding="utf-8")
    assert all(f">{s}</text>" in legend for s in ("Phys\ufffdics", "Geo\ufffdlogy", "Bio\ufffdlogy\ufffd"))


def test_failed_ingest_leaves_no_artifact_and_no_section(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "year": 1986}\nnot json\n', encoding="utf-8")
    out = tmp_path / "o"
    assert run("ingest", "--input", bad, "--out", out) == 2
    assert "line 2" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["config.json"]
    assert json.loads((out / "config.json").read_text()) == {}


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
    ingest = {
        "input": str(FIXTURE_CORPUS),
        "format": "jsonl",
        "variants": None,
        "registry": None,
        "resolved_variants": ["chernobyl", "chornobyl"],
    }
    assert json.loads((out / "config.json").read_text()) == {"ingest": ingest}
    assert run("build", "--out", out) == 0
    assert run("metrics", "--seed", 7, "--out", out) == 0
    config = json.loads((out / "config.json").read_text())
    assert config == {
        "ingest": ingest,
        "build": {},
        "metrics": {"clustering_mode": "exclude_low_degree", "sw_samples": 100, "seed": 7},
    }


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


CHECKS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "checks.py"))


@pytest.mark.parametrize("variants, n, m", [(None, 8, 11), ("fusion\n", 0, 0)], ids=["fixture", "filter-everything"])
def test_report_artifacts_pass_benchmark_checks(tmp_path, capsys, variants, n, m):
    out = tmp_path / "out"
    args = ["report", "--input", FIXTURE_CORPUS, "--out", out]
    if variants is not None:
        (tmp_path / "variants.txt").write_text(variants, encoding="utf-8")
        args += ["--variants", tmp_path / "variants.txt"]
    assert run(*args) == 0
    assert CHECKS["check_artifacts"](out, CHECKS["report_artifacts"](out), n, m) == []


def test_custom_registry(tmp_path):
    registry = tmp_path / "registry.csv"
    registry.write_text(
        "code,display_name,region,historic,aliases\n"
        "AUT,Austria,Europe,false,\n"
        "BEL,Belgium,Europe,false,\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--registry", registry, "--out", out) == 0
    assert run("build", "--out", out) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert [nd["code"] for nd in doc["nodes"]] == ["AUT", "BEL"]
    coverage = json.loads((out / "coverage.json").read_text())
    assert any(name == "Estonia" for name, _ in coverage["unknown_country_names"])


def test_shipped_registry_is_a_registry_template(tmp_path, capsys):
    shipped = Path(cli.__file__).with_name("countries.csv")
    default, flagged = tmp_path / "default", tmp_path / "flagged"
    assert run("report", "--input", FIXTURE_CORPUS, "--out", default) == 0
    assert run("report", "--input", FIXTURE_CORPUS, "--registry", shipped, "--out", flagged) == 0
    names = sorted(p.name for p in default.iterdir())
    assert names == sorted(p.name for p in flagged.iterdir())
    for name in names:
        if name != "config.json":
            assert (default / name).read_bytes() == (flagged / name).read_bytes(), name
    config = read_json(flagged / "config.json")
    assert config["ingest"]["registry"] == str(shipped)
    config["ingest"]["registry"] = None
    assert config == read_json(default / "config.json")


def test_sw_samples_and_seed_flags(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
        assert run("build", "--out", out) == 0
        assert run("metrics", "--sw-samples", 17, "--seed", 3, "--out", out) == 0
    sw_a = json.loads((out_a / "smallworld.json").read_text())
    sw_b = json.loads((out_b / "smallworld.json").read_text())
    assert sw_a == sw_b
    assert sw_a["sample_count"] == 17
    assert sw_a["seed"] == 3


@pytest.mark.parametrize(
    "flag, content, line",
    [
        ("--variants", b"\xff\xfechernobyl\n", 1),
        ("--registry", b"code,display_name,region,historic,aliases\nAUT,Aus\xfftria,Europe,false,\n", 2),
    ],
    ids=["variants", "registry"],
)
def test_non_utf8_side_file_is_data_exit(tmp_path, capsys, flag, content, line):
    side = tmp_path / "side.txt"
    side.write_bytes(content)
    assert run("ingest", "--input", FIXTURE_CORPUS, flag, side, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {line}: ") and str(side) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    # The staged sequence writes every file of report but report.md.
    staged_names = sorted(p.name for p in staged.iterdir())
    assert staged_names == sorted(p.name for p in report.iterdir() if p.name != "report.md")
    assert len(staged_names) == 22
    for name in staged_names:
        assert (report / name).read_bytes() == (staged / name).read_bytes(), name
    assert tree_faults(report) == [] and tree_faults(staged) == []


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--top-k", 0),
        ("--gamma", 2),
        ("--gamma", 0),
        ("--window-length", 0),
        ("--step", 0),
        ("--sw-samples", 0),
        ("--sw-samples", -3),
        ("--seed", -5),
    ],
)
def test_bad_flag_value_writes_no_artifact(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run("report", "--input", FIXTURE_CORPUS, flag, value, "--out", out) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# sha256 of report artifacts on the criterion-9 corpus (seed 0, first 100
# registry countries, 10,000 records), recorded before the dense metrics
# kernel replaced the per-node BFS loops; a faster kernel must keep them.
# smallworld.json was re-pinned when the keyed small-world draw replaced
# rng.sample (the ensemble is the same, the samples are not). The three .json
# pins were re-pinned when every .json artifact became compact sorted JSON on
# one line (errors.json_text): the same documents, without indent=2.
CRITERION_9_DIGESTS = {
    "smallworld.json": "2de15aa58deef512ccf9f5b8199489f3772e4a465352d7d4c98469acd4b629e5",
    "summary.json": "0598e3766485a22bf7d07e18d34c6ecc9c1f729d84cfbbfc07f9a20a26134c01",
    "centrality.json": "f89789d8c74ec0db7cd60f8227a685f0d80b49eb9db1a12582b626db9413a5e6",
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
    # Every cumulative snapshot holds all 100 countries: one node count has no exponent.
    assert "skipped" in json.loads((out / "densification.json").read_text())


# ---------------------------------------------------------------------------
# Stale artifacts and config.json sections. The stage facts are restated here
# rather than read from coauthnet.cli.STAGES, so the tests check the table.

_WRITES = {
    "ingest": ["corpus.json", "records.jsonl", "coverage.json"],
    "build": ["graph.json"],
    "metrics": ["summary.json", "centrality.json", "degree_histogram.json", "smallworld.json"],
    "slice": [
        "windows.json",
        "series_summary.csv",
        "first_years.json",
        "regions_cumulative.csv",
        "regions_cumulative.svg",
        "disciplines.csv",
        "disciplines.svg",
    ],
    "densify": ["snapshots.csv", "densification.json"],
    "export": ["network.net", "network.clu", "network.dot", "network.svg"],
    "report": ["report.md"],
}
# The stage whose output each stage reads.
_READS_FROM = {"ingest": None, "build": "ingest", "metrics": "build", "slice": "ingest", "densify": "ingest", "export": "build"}


def _needs(stage):
    """The config.json sections an artifact of `stage` requires."""
    if stage == "report":
        return set(_READS_FROM)
    return {stage} | (_needs(_READS_FROM[stage]) if _READS_FROM[stage] else set())


def test_rerun_ingest_drops_the_graph_it_no_longer_describes(tmp_path, capsys):
    out = tmp_path / "out"
    variants = tmp_path / "fusion.txt"
    variants.write_text("fusion\n", encoding="utf-8")
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    assert run("build", "--out", out) == 0
    assert run("ingest", "--input", FIXTURE_CORPUS, "--variants", variants, "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "corpus.json", "coverage.json", "records.jsonl"]
    assert json.loads((out / "coverage.json").read_text())["kept_after_topic_filter"] == 0
    assert list(json.loads((out / "config.json").read_text())) == ["ingest"]
    capsys.readouterr()
    assert run("metrics", "--out", out) == 1
    assert f"coauthnet build --out {out}" in capsys.readouterr().err


def test_ingest_with_another_registry_drops_every_downstream_artifact(tmp_path, capsys):
    out = tmp_path / "out"
    registry = tmp_path / "registry.csv"
    registry.write_text("code,display_name,region,historic,aliases\nAUT,Austria,Europe,false,\n", encoding="utf-8")
    assert run("report", "--input", FIXTURE_CORPUS, "--sw-samples", 2, "--out", out) == 0
    assert run("ingest", "--input", FIXTURE_CORPUS, "--registry", registry, "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(["config.json", *_WRITES["ingest"]])
    assert list(json.loads((out / "config.json").read_text())) == ["ingest"]
    assert json.loads((out / "config.json").read_text())["ingest"]["registry"] == str(registry)
    assert run("build", "--out", out) == 0
    assert [nd["code"] for nd in json.loads((out / "graph.json").read_text())["nodes"]] == ["AUT"]


@pytest.mark.parametrize("which", ["records-csv", "registry"])
def test_csv_cell_over_field_limit_is_data_exit(tmp_path, capsys, which):
    # The csv module's default field size limit is 131,072 characters.
    side = tmp_path / "side.csv"
    if which == "records-csv":
        side.write_text(f"id,year,text,countries,subjects\np1,1986,{'x' * 200_000},,\n", encoding="utf-8")
        args = ["--format", "csv", "--input", side]
    else:
        aliases = "a" * 140_000
        side.write_text(f"code,display_name,region,historic,aliases\nAUT,Austria,Europe,false,{aliases}\n", encoding="utf-8")
        args = ["--input", FIXTURE_CORPUS, "--registry", side]
    out = tmp_path / "out"
    assert run("ingest", *args, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2")
    assert "Traceback" not in err
    left = {p.name: json.loads(p.read_text()) for p in out.iterdir()} if out.exists() else {}
    assert left in ({}, {"config.json": {}})


def test_non_utf8_graph_json_is_data_exit(tmp_path, capsys):
    out = tmp_path / "g"
    out.mkdir()
    (out / "graph.json").write_bytes(b"\xff\xfe")
    assert run("metrics", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out / "graph.json") in err
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["graph.json"]


@pytest.mark.parametrize(
    "content, prefix",
    [
        (b"\xff\xfe{}", "data error:"),
        (b'{"ingest": {}}\n\xff\n', "data error: line 2: "),
        (b"{not json", "data error:"),
        (b'{"command": "build", "out": "out", "seed": 0}', "data error:"),
        (b'["ingest"]', "data error:"),
        (b'{"ingest": {}, "build": 3}', "data error:"),
        (b'{"report": {}}', "data error:"),
    ],
    ids=["non-utf8", "non-utf8-line-2", "not-json", "flat-format", "list", "non-dict-section", "unknown-stage"],
)
def test_malformed_config_json_is_data_exit(tmp_path, capsys, content, prefix):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    (out / "config.json").write_bytes(content)
    before = _tree_bytes(out)
    capsys.readouterr()
    assert run("build", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "config.json" in err and "Traceback" not in err
    assert _tree_bytes(out) == before


# A valid corpus.json, and fields that each make it malformed.
_CORPUS = {
    "papers": 2,
    "with_affiliation": 2,
    "region": {"AT": "Europe", "BE": "Europe"},
    "unknown": {"Atlantis": 1},
    "years": {"1990": [{"AT": 2, "BE": 1}, [["AT", "BE", 1]], {"Physics": 2}]},
}
def _bucket(links):
    return {"years": {"1990": [{"AT": 2, "BE": 1}, links, {}]}}


# Fields that each make _CORPUS malformed, and the message that says why.
_BAD_CORPUS = {
    "lowercase-code": (
        {"region": {"at": "Europe"}, "years": {"1990": [{"at": 1}, [], {}]}},
        "node code 'at' is not 2-3 uppercase letters",
    ),
    "unknown-region": (
        {"region": {"AT": "Mars", "BE": "Europe"}},
        f"node AT region 'Mars' is not one of {REGIONS}",
    ),
    "null-region": ({"region": {"AT": None, "BE": "Europe"}}, "region None has the wrong type"),
    "code-without-region": ({"region": {"BE": "Europe"}}, "year 1990 counts code 'AT', which has no region"),
    "bool-weight": (_bucket([["AT", "BE", True]]), "edge weight True has the wrong type"),
    "self-loop": (_bucket([["AT", "AT", 1]]), "self-loop on AT"),
    "duplicate-link": (_bucket([["AT", "BE", 1], ["AT", "BE", 1]]), "duplicate edge AT-BE"),
    "reversed-link": (_bucket([["BE", "AT", 1]]), "edge BE-AT does not list its codes in order"),
    "long-link": (_bucket([["AT", "BE", 1, 5]]), "edge ['AT', 'BE', 1, 5] has 4 entries, not 3"),
    "link-to-uncounted-code": (
        {"years": {"1990": [{"AT": 2}, [["AT", "BE", 1]], {}]}},
        "edge AT-BE references a missing node",
    ),
    "link-above-paper-count": (_bucket([["AT", "BE", 2]]), "year 1990 link weight 2 exceeds BE's paper count 1"),
    "counts-above-with-affiliation": (
        {"years": {"1990": [{"AT": 2, "BE": 1}, [], {}], "1991": [{"AT": 1}, [], {}]}},
        "code AT has 3 papers by year 1991, above with_affiliation",
    ),
    "zero-paper-count": ({"years": {"1990": [{"AT": 0, "BE": 1}, [], {}]}}, "year 1990 paper counts must be >= 1"),
    "float-subject-count": (
        {"years": {"1990": [{"AT": 2, "BE": 1}, [], {"Physics": 1.5}]}},
        "year 1990 subject count 1.5 has the wrong type",
    ),
    "unsorted-links": (
        {
            "region": {"AT": "Europe", "BE": "Europe", "CH": "Europe"},
            "years": {"1990": [{"AT": 2, "BE": 1, "CH": 1}, [["AT", "CH", 1], ["AT", "BE", 1]], {}]},
        },
        "edge AT-BE is listed after AT-CH",
    ),
    "region-counted-in-no-year": (
        {"region": {"AT": "Europe", "BE": "Europe", "CH": "Europe"}},
        "region codes ['CH'] are counted in no year",
    ),
    **{
        label: ({"years": {"1990": bucket}}, f"year 1990 has {len(bucket)} entries, not 3: paper counts, links, subject counts")
        for label, bucket in (("short-bucket", [{"AT": 2, "BE": 1}, []]), ("long-bucket", [{"AT": 2, "BE": 1}, [], {}, {}]))
    },
    "year-out-of-range": ({"years": {"99999": [{"AT": 2, "BE": 1}, [], {}]}}, "year 99999 outside [1900, 2100]"),
    **{
        label: ({"years": {key: [{"AT": 2, "BE": 1}, [], {}]}}, f"year key {key!r} is not a canonical integer")
        for label, key in (("non-integer-year", "19x0"), ("plus-year", "+1990"), ("space-year", " 1990"),
                           ("underscore-year", "1_990"), ("zero-padded-year", "01990"),
                           ("arabic-indic-year", "\u0661\u0669\u0669\u0660"))
    },
    "years-not-an-object": ({"years": []}, "years [] has the wrong type"),
    "string-papers": ({"papers": "2"}, "papers '2' has the wrong type"),
    "negative-papers": ({"papers": -5}, "with_affiliation 2 is not within [0, papers -5]"),
    "negative-with-affiliation": ({"with_affiliation": -1}, "with_affiliation -1 is not within [0, papers 2]"),
    "more-affiliated-than-papers": ({"with_affiliation": 99}, "with_affiliation 99 is not within [0, papers 2]"),
    "negative-unknown-count": ({"unknown": {"Atlantis": -1}}, "unknown counts must be >= 1"),
    "zero-unknown-count": ({"unknown": {"Atlantis": 0}}, "unknown counts must be >= 1"),
    "zero-subject-count": (
        {"years": {"1990": [{"AT": 2, "BE": 1}, [], {"Physics": 0}]}},
        "year 1990 subject counts must be >= 1",
    ),
}


@pytest.mark.parametrize("bad, message", _BAD_CORPUS.values(), ids=list(_BAD_CORPUS))
def test_malformed_corpus_json_is_data_exit(tmp_path, capsys, bad, message):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    (out / "corpus.json").write_text(json.dumps(_CORPUS), encoding="utf-8")
    assert run("build", "--out", out) == 0
    (out / "corpus.json").write_text(json.dumps({**_CORPUS, **bad}), encoding="utf-8")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert run("build", "--out", out) == 2
    assert capsys.readouterr().err == f"data error: {out / 'corpus.json'}: malformed corpus document: {message}\n"
    assert _tree_bytes(out) == before


def test_corpus_json_without_a_field_is_data_exit(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    (out / "corpus.json").write_text(json.dumps({k: v for k, v in _CORPUS.items() if k != "unknown"}), encoding="utf-8")
    capsys.readouterr()
    assert run("build", "--out", out) == 2
    assert capsys.readouterr().err == f"data error: {out / 'corpus.json'}: malformed corpus document: no 'unknown' field\n"


def test_standalone_stages_neither_parse_nor_resolve(tmp_path, capsys, monkeypatch):
    """build, slice and densify read the corpus ingest resolved: no record is parsed and
    no country name resolved again (the ingest count shows the counters count)."""
    import coauthnet.cli
    import coauthnet.ingest
    from coauthnet.countries import CountryRegistry

    calls = {"parse_records": 0, "resolve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (coauthnet.cli, coauthnet.ingest):
        monkeypatch.setattr(module, "parse_records", counted("parse_records", coauthnet.ingest.parse_records))
    monkeypatch.setattr(CountryRegistry, "resolve", counted("resolve", CountryRegistry.resolve))
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0
    assert calls["parse_records"] == 1 and calls["resolve"] > 0
    for stage in ("build", "slice", "densify"):
        calls.update(parse_records=0, resolve=0)
        assert run(stage, "--out", out) == 0
        assert calls == {"parse_records": 0, "resolve": 0}, stage


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()], ids=["OSError", "KeyboardInterrupt"])
def test_interrupted_write_leaves_no_file(tmp_path, capsys, monkeypatch, error):
    out = tmp_path / "out"
    assert run("ingest", "--input", FIXTURE_CORPUS, "--out", out) == 0

    def half_save(graph, path):
        text = graph.to_json()
        Path(path).write_text(text[: len(text) // 2], encoding="utf-8")
        raise error

    monkeypatch.setattr(CoauthorshipGraph, "save", half_save)
    if isinstance(error, OSError):
        assert run("build", "--out", out) == 2
        assert "disk full" in capsys.readouterr().err
    else:
        # Not an error of the command: the cleanup runs and the interrupt propagates.
        with pytest.raises(KeyboardInterrupt):
            run("build", "--out", out)
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "corpus.json", "coverage.json", "records.jsonl"]
    assert list(json.loads((out / "config.json").read_text())) == ["ingest"]


def _valid_order(data):
    """Draw an order of the six stages in which each runs after the stage it reads from."""
    order = []
    while len(order) < len(_READS_FROM):
        ready = [s for s, up in _READS_FROM.items() if s not in order and (up is None or up in order)]
        order.append(data.draw(st.sampled_from(ready)))
    return order


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_valid_stage_order_writes_the_report_tree(data):
    order = _valid_order(data)
    with tempfile.TemporaryDirectory() as tmp:
        report, staged = Path(tmp) / "report", Path(tmp) / "staged"
        assert run("report", "--input", FIXTURE_CORPUS, "--sw-samples", 2, "--out", report) == 0
        for stage in order:
            extra = ["--input", FIXTURE_CORPUS] if stage == "ingest" else []
            assert run(stage, *extra, "--sw-samples", 2, "--out", staged) == 0
        staged_tree = _tree_bytes(staged)
        assert sorted(staged_tree) == sorted(["config.json", *(n for s in _READS_FROM for n in _WRITES[s])])
        assert staged_tree == {name: (report / name).read_bytes() for name in staged_tree}


_RUNS = [
    ("ingest", "--input", FIXTURE_CORPUS),
    ("ingest", "--input", FIXTURE_CORPUS, "--variants", "{tmp}/fusion.txt"),
    ("build",),
    ("metrics",),
    ("metrics", "--seed", 5),
    ("slice",),
    ("densify", "--window-length", 2),
    ("export",),
    ("report", "--input", FIXTURE_CORPUS),
]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs=st.lists(st.sampled_from(_RUNS), min_size=1, max_size=8))
def test_no_artifact_outlives_its_config_sections(runs):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (Path(tmp) / "fusion.txt").write_text("fusion\n", encoding="utf-8")
        for args in runs:
            before = _tree_bytes(out) if out.exists() else {}
            code = run(*(str(a).format(tmp=tmp) for a in args), "--sw-samples", 2, "--out", out)
            assert code in (0, 1)
            tree = _tree_bytes(out) if out.exists() else {}
            if code == 1:
                assert tree == before
            sections = set(json.loads(tree["config.json"])) if "config.json" in tree else set()
            for stage, names in _WRITES.items():
                for name in set(names) & set(tree):
                    assert _needs(stage) <= sections, (args, name, sections)
