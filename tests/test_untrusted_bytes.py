"""Every reader of a file the user or an earlier run supplied turns bad
bytes into DataError or UsageError, which the CLI reports as exit 2 or 1
without a traceback. Nothing else may escape, whatever the bytes."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coauthnet import CoauthorshipGraph, CountryRegistry, DataError, UsageError, parse_records
from coauthnet.cli import _read_config, main
from coauthnet.ingest import load_variants

from conftest import FIXTURE_CORPUS

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12)
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4), max_leaves=12
)


def _document(fields):
    """JSON objects holding some of `fields` with arbitrary values, so the parse gets past the JSON layer."""
    return st.dictionaries(st.sampled_from(fields) | st.text(max_size=6), _JSON, max_size=len(fields) + 1)


_GRAPH = st.fixed_dictionaries(
    {
        "window": _document(["start_year", "end_year"]) | _JSON,
        "nodes": st.lists(_document(["code", "display_name", "region", "paper_count", "first_year"]), max_size=4),
        "edges": st.lists(st.lists(_JSON | st.sampled_from(["AT", "BE"]), max_size=4), max_size=4),
    }
)
_RECORD = _document(["id", "year", "text", "countries", "subjects"])


def _lines(strategy, header=()):
    return st.lists(strategy, max_size=6).map(lambda rows: "\n".join([*header, *rows]).encode("utf-8"))


def _bytes(*structured):
    return st.one_of(st.binary(max_size=300), st.text(max_size=300).map(lambda t: t.encode("utf-8")), *structured)


_CSV_CELLS = st.lists(st.text(max_size=8) | st.integers().map(str), max_size=6).map(",".join)

READERS = {
    "records-jsonl": (lambda path: parse_records(path, "jsonl"), _bytes(_lines(_RECORD.map(json.dumps)))),
    "records-csv": (
        lambda path: parse_records(path, "csv"),
        _bytes(_lines(_CSV_CELLS, header=["id,year,text,countries,subjects"])),
    ),
    "variants": (load_variants, _bytes()),
    "registry": (CountryRegistry.from_csv, _bytes(_lines(_CSV_CELLS, header=["code,display_name,region,historic,aliases"]))),
    "graph": (CoauthorshipGraph.load, _bytes(_GRAPH.map(lambda doc: json.dumps(doc).encode("utf-8")))),
    "config": (_read_config, _bytes(st.dictionaries(st.text(max_size=8), _JSON).map(lambda d: json.dumps(d).encode()))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_arbitrary_bytes_raise_only_data_or_usage_errors(tmp_path, reader, data):
    read, contents = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(data.draw(contents))
    try:
        read(path)
    except (DataError, UsageError):
        pass


@pytest.mark.parametrize(
    "command, nested",
    [("ingest", "input"), ("metrics", "graph.json"), ("build", "config.json")],
    ids=["records-jsonl", "graph-json", "config-json"],
)
def test_deeply_nested_json_is_data_exit(tmp_path, capsys, command, nested):
    out = tmp_path / "out"
    out.mkdir()
    if command == "build":
        assert main(["ingest", "--input", str(FIXTURE_CORPUS), "--out", str(out)]) == 0
    path = tmp_path / "deep.jsonl" if nested == "input" else out / nested
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    capsys.readouterr()
    args = ["--input", str(path)] if command == "ingest" else []
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
