"""Every reader of a file the user or an earlier run supplied turns bad
bytes into DataError or UsageError, which the CLI reports as exit 2 or 1
without a traceback. Nothing else may escape, whatever the bytes. And a
`report` on any record strings either writes a tree whose every artifact
decodes or parses, or is a data error naming its line."""

import io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coauthnet import CoauthorshipGraph, CountryRegistry, DataError, ResolvedCorpus, UsageError, parse_records, slice_windows
from coauthnet.cli import _read_config, main
from coauthnet.countries import REGIONS
from coauthnet.ingest import load_variants
from coauthnet.temporal import discipline_series, first_year_series

from conftest import FIXTURE_CORPUS

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12)
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4), max_leaves=12
)


def _document(fields):
    """JSON objects holding some of `fields` with arbitrary values, so the parse gets past the JSON layer."""
    return st.dictionaries(st.sampled_from(fields) | st.text(max_size=6), _JSON, max_size=len(fields) + 1)


_RECORD = _document(["id", "year", "text", "countries", "subjects"])
_CODE = st.sampled_from(["AT", "BE", "CZ", "at", ""]) | st.text(max_size=4)
_COUNTS = st.dictionaries(_CODE, st.integers(-1, 3) | _JSON, max_size=3)
_BUCKET = st.tuples(_COUNTS, st.lists(st.lists(_CODE | st.integers(-1, 3) | _JSON, max_size=4), max_size=4), _COUNTS)
# Graph and corpus documents that break one rule now and then, so many loads get past the checks
# and reach the graphs and series: codes come from a few, every counted code has a region entry,
# counts are mostly positive, and node and link lists are often spelled as _links writes them.
_NEAR_CODE = st.sampled_from(["AT", "BE", "CZ"])
_NEAR_COUNTS = st.dictionaries(_NEAR_CODE, st.integers(0, 9), max_size=3)
_ANY_LINKS = st.lists(st.tuples(_NEAR_CODE, _NEAR_CODE, st.integers(0, 9)).map(list), max_size=3)
_NEAR_LINKS = _ANY_LINKS | _ANY_LINKS.map(lambda links: sorted(sorted(link[:2]) + link[2:] for link in links))
_NEAR_GRAPH = st.fixed_dictionaries(
    {
        "window": st.fixed_dictionaries({"start_year": st.integers(1989, 1990), "end_year": st.integers(1990, 1991)}),
        "nodes": (st.lists(_NEAR_CODE, unique=True).map(sorted) | st.lists(_NEAR_CODE, max_size=4)).map(
            lambda codes: [{"code": code} for code in codes]
        ),
        "edges": _NEAR_LINKS,
    }
)
_GRAPH = (
    st.fixed_dictionaries(
        {
            "window": _document(["start_year", "end_year"]) | _JSON,
            "nodes": st.lists(_document(["code", "display_name", "region", "paper_count", "first_year"]), max_size=4),
            "edges": st.lists(st.lists(_JSON | st.sampled_from(["AT", "BE"]), max_size=4), max_size=4),
        }
    )
    | _NEAR_GRAPH
)


@st.composite
def _near_bucket(draw):
    counts, links = draw(_NEAR_COUNTS), draw(_NEAR_LINKS)
    if draw(st.sampled_from(range(10))) < 9:  # mostly, no link weight above its endpoints' counts
        links = [[a, b, min(w, counts.get(a, w), counts.get(b, w))] for a, b, w in links]
    # zero last: hypothesis draws the first element of a sampled_from most often
    return [counts, links, draw(st.dictionaries(_NEAR_CODE, st.sampled_from([*range(1, 10), 0]), max_size=3))]


@st.composite
def _near_corpus(draw):
    # in-range years first: hypothesis draws the first elements of a sampled_from most often
    year = st.sampled_from([*range(1900, 2101), *range(1895, 1900), *range(2101, 2106)]).map(str)
    years = draw(st.dictionaries(year, _near_bucket(), max_size=3))
    codes = {code for counts, _, _ in years.values() for code in counts} | draw(st.sets(_NEAR_CODE, max_size=1))
    # with_affiliation is now and then one below the most papers a code is counted in; hypothesis
    # draws the first element of a sampled_from most often, so that one is a count that loads
    most = max(sum((Counter(counts) for counts, _, _ in years.values()), Counter()).values(), default=0)
    with_affiliation = max(most + draw(st.sampled_from([*range(9), -1])), 0)
    return {
        "papers": draw(st.integers(with_affiliation, with_affiliation + 4)),
        "with_affiliation": with_affiliation,
        "region": {code: draw(st.sampled_from([*REGIONS, None, "Mars"])) for code in sorted(codes)},
        "unknown": draw(st.dictionaries(st.text(max_size=3), st.sampled_from([*range(1, 10), 0, -1]), max_size=2)),
        "years": years,
    }


_CORPUS = (
    st.fixed_dictionaries(
        {
            "papers": st.integers() | _JSON,
            "with_affiliation": st.integers() | _JSON,
            "region": st.dictionaries(_CODE, st.sampled_from(REGIONS) | _JSON, max_size=3) | _JSON,
            "unknown": st.dictionaries(st.text(max_size=6), st.integers() | _JSON, max_size=3) | _JSON,
            "years": st.dictionaries(
                st.sampled_from(["1990", "1991", "1899", "2101", "x"]) | st.integers().map(str),
                _BUCKET.map(list) | st.lists(_JSON, max_size=4),
                max_size=3,
            )
            | _JSON,
        }
    )
    | _near_corpus()
    | _document(["papers", "with_affiliation", "region", "unknown", "years"])
)


def _read_corpus(path):
    """Load a corpus.json and use it as the standalone stages and report do."""
    corpus = ResolvedCorpus.load(path)
    list(corpus.graphs(slice_windows(corpus.span, 1, 1, "sliding")))
    list(corpus.sizes(slice_windows(corpus.span, 2, 2, "cumulative")))
    first_year_series(corpus)
    discipline_series(corpus)
    assert corpus.coverage is corpus.coverage


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
    "corpus": (_read_corpus, _bytes(_CORPUS.map(lambda doc: json.dumps(doc).encode("utf-8")))),
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
    [("ingest", "input"), ("metrics", "graph.json"), ("build", "config.json"), ("build", "corpus.json")],
    ids=["records-jsonl", "graph-json", "config-json", "corpus-json"],
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


# Strings of any code point, now and then with a lone surrogate, a character XML 1.0 cannot
# carry or U+2028 (a line break to str.splitlines), which st.characters draws too rarely.
_CHARS = st.characters(exclude_categories=()) | st.sampled_from(["\x01", "\x0b", "\ufffe", "\ud800", "\u2028"])
_STRING = st.text(max_size=6) | st.text(_CHARS, max_size=6)
_TREE_RECORD = st.fixed_dictionaries(
    {
        "id": _STRING.map("r".__add__),
        "year": st.integers(1985, 1988),
        "text": _STRING.map("Chernobyl ".__add__),
        "countries": st.lists(st.sampled_from(["Ukraine", "USSR", "France"]) | _STRING, max_size=3),
        "subjects": st.lists(_STRING, max_size=3),
    }
)


@settings(max_examples=40, deadline=None)
@given(records=st.lists(_TREE_RECORD, min_size=1, max_size=4, unique_by=lambda r: r["id"]), ascii_only=st.booleans())
def test_report_tree_decodes_or_names_the_line(records, ascii_only):
    # Without ensure_ascii a lone surrogate goes to the file as its surrogatepass bytes, which are not UTF-8.
    text = "".join(json.dumps(r, ensure_ascii=ascii_only) + "\n" for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.jsonl", Path(tmp) / "out"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["report", "--input", str(path), "--sw-samples", "2", "--out", str(out)])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert re.match(r"data error: line \d+: ", err.getvalue()), err.getvalue()
            return
        for artifact in sorted(out.iterdir()):
            if artifact.suffix in (".json", ".jsonl"):
                # one document per "\n" line: str.splitlines would also split at a raw U+2028 inside a string
                [json.loads(line) for line in artifact.read_text(encoding="utf-8").split("\n")[:-1]]
            elif artifact.suffix == ".svg":
                ET.parse(artifact)
