import csv
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coauthnet import DataError, ResolvedCorpus, UsageError, filter_topic, parse_records
from coauthnet.ingest import YEAR_MAX, YEAR_MIN, PublicationRecord, RecordSet, coverage_stats, load_variants
from coauthnet.ingest import write_records_jsonl

from bruteforce import oracle_parse_records
from conftest import synthetic_corpus_rows, write_jsonl


def test_parse_jsonl_maps_fields(tmp_path):
    path = write_jsonl(
        tmp_path / "records.jsonl",
        [{"id": "p1", "year": 1986, "text": "Chernobyl fallout", "countries": ["Ukraine", "USSR"], "subjects": ["Physics"]}],
    )
    rs = parse_records(path)
    assert len(rs) == 1
    rec = rs.records[0]
    assert rec.id == "p1"
    assert rec.year == 1986
    assert rec.raw_countries == ["Ukraine", "USSR"]
    assert rec.subjects == ["Physics"]


def test_parse_deduplicates_countries_within_record(tmp_path):
    path = write_jsonl(
        tmp_path / "records.jsonl",
        [{"id": "p1", "year": 1986, "countries": ["Ukraine", "Ukraine"]}],
    )
    rs = parse_records(path)
    assert rs.records[0].raw_countries == ["Ukraine"]


def test_parse_defaults_optional_fields(tmp_path):
    path = write_jsonl(tmp_path / "records.jsonl", [{"id": "p1", "year": 2000}])
    rec = parse_records(path).records[0]
    assert rec.text == ""
    assert rec.raw_countries == []
    assert rec.subjects == []


def test_parse_sorts_by_year_then_id(tmp_path):
    rows = [
        {"id": "b", "year": 1999},
        {"id": "a", "year": 1999},
        {"id": "z", "year": 1987},
    ]
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert [r.id for r in rs.records] == ["z", "a", "b"]


@pytest.mark.parametrize(
    "row,fragment",
    [
        ({"id": "", "year": 1990}, "id"),
        ({"id": "x", "year": "1990"}, "integer"),
        ({"id": "x", "year": 1700}, "outside"),
        ({"id": "x", "year": 1990, "countries": "Ukraine"}, "list of strings"),
        ({"id": "x", "year": 1990, "text": 5}, "text"),
    ],
)
def test_parse_rejects_malformed_rows(tmp_path, row, fragment):
    path = write_jsonl(tmp_path / "bad.jsonl", [row])
    with pytest.raises(DataError, match=fragment):
        parse_records(path)


def test_parse_error_carries_line_number(tmp_path):
    rows = [{"id": "ok", "year": 1990}, {"id": "bad", "year": 99}]
    path = write_jsonl(tmp_path / "bad.jsonl", rows)
    with pytest.raises(DataError, match="line 2"):
        parse_records(path)


def test_parse_rejects_duplicate_ids(tmp_path):
    rows = [{"id": "p1", "year": 1990}, {"id": "p1", "year": 1991}]
    path = write_jsonl(tmp_path / "dup.jsonl", rows)
    with pytest.raises(DataError, match="duplicate record id"):
        parse_records(path)


def test_parse_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "p1", "year": 1990}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        parse_records(path)


# Record lines near the validator's edges: most are valid records over a few
# ids (so duplicates occur), with padded, blank, repeated and non-JSON-blank
# list items; some hold a year, text or list of the wrong type; some are
# padded with spaces, non-JSON whitespace or a BOM, or carry trailing data;
# some are blank or hold a value that is not an object.
_NAME = st.sampled_from(["Austria", " Austria ", "Belgium", "Belgium", "", "  ", "\u3000", "\x0bChile", "\x85"])
_VALID = st.fixed_dictionaries(
    {"id": st.sampled_from("abcdefghij"), "year": st.sampled_from([1900, 1990, 2000, 2100])},
    optional={"text": st.sampled_from(["chernobyl", ""]), "countries": st.lists(_NAME, max_size=4), "subjects": st.lists(_NAME, max_size=3)},
)
_WRONG = st.sampled_from(
    [
        ("id", ""), ("id", 7), ("year", 1899), ("year", True), ("year", 1990.0), ("year", float("nan")),
        ("year", float("inf")), ("year", "1990"), ("text", 5), ("countries", "Austria"), ("countries", ["Austria", 3]),
        ("subjects", [None]), ("subjects", {}),
    ]
)
_EDGE = ["", " ", "\t", "\r", "\x0b", "\x0c", "\u3000", "\ufeff"]


@st.composite
def _record_line(draw):
    fields = draw(_VALID)
    kind = draw(st.integers(0, 9))  # 0-6 a valid record, 7-9 one of three faults
    if kind == 7:
        key, value = draw(_WRONG)
        fields[key] = value
    line = json.dumps(fields, ensure_ascii=draw(st.booleans()), separators=draw(st.sampled_from([None, (",", ":")])))
    if kind == 8:
        line = draw(st.sampled_from(_EDGE)) + line + draw(st.sampled_from([*_EDGE, "x", " {}", ",", "]"]))
    elif kind == 9:
        line = draw(st.sampled_from(["", " ", "\t", "\u3000", "\x0c ", "[]", "1", '"a"', "null", "NaN", "{", "{}}"]))
    return line


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(_record_line(), max_size=8),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
)
def test_one_pass_parse_matches_the_per_line_oracle(tmp_path, lines, newline, final):
    path = tmp_path / "records.jsonl"
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode("utf-8"))
    try:
        expected = oracle_parse_records(path)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            parse_records(path)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
    else:
        assert parse_records(path) == expected


@pytest.mark.parametrize("malformed_first", [True, False], ids=["malformed-then-duplicate", "duplicate-then-malformed"])
def test_a_malformed_line_wins_over_a_duplicate_id(tmp_path, malformed_first):
    lines = ['{"id": "a", "year": 1990}', '{"id": "b", "year": "x"}', '{"id": "a", "year": 1991}']
    if not malformed_first:
        lines.append(lines.pop(1))
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        parse_records(path)
    assert str(info.value) == f"line {2 if malformed_first else 3}: record 'b': year must be an integer"


def test_parse_unknown_format_is_usage_error(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl", [{"id": "p1", "year": 1990}])
    with pytest.raises(UsageError):
        parse_records(path, "xml")


def test_parse_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_records(tmp_path / "nope.jsonl")


def test_parse_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "latin.jsonl"
    path.write_bytes('{"id": "p1", "year": 1990, "text": "caf\xe9"}\n'.encode("latin-1"))
    with pytest.raises(DataError, match="UTF-8"):
        parse_records(path)
    # Past the first 8 KiB the decoder's position is an offset into a chunk;
    # the error names the file's line instead.
    good = b"".join(b'{"id": "p%d", "year": 1990, "text": "cafe"}\n' % i for i in range(1500))
    assert len(good) > 8192
    path.write_bytes(good + b'{"id": "bad", "year": 1990, "text": "caf\xff"}\n')
    with pytest.raises(DataError, match=r"^line 1501: .* is not valid UTF-8 at column 41 ") as info:
        parse_records(path)
    assert info.value.line == 1501


def test_parse_csv_with_semicolon_lists(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "id,year,text,countries,subjects\n"
        'p1,1986,"Chernobyl fallout","Ukraine;USSR",Physics\n'
        "p2,1987,other,,\n",
        encoding="utf-8",
    )
    rs = parse_records(path, "csv")
    assert rs.records[0].raw_countries == ["Ukraine", "USSR"]
    assert rs.records[1].raw_countries == []


def test_parse_csv_missing_year_names_line(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("id,year,text,countries,subjects\np1,,x,,\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        parse_records(path, "csv")
    # A quoted cell spanning lines 2-4 puts the next row on line 5, not row 3.
    path.write_text('id,year,text,countries,subjects\np1,1986,"a\nb\nc",,\np2,,x,,\n', encoding="utf-8")
    with pytest.raises(DataError, match="^line 5: missing year"):
        parse_records(path, "csv")


@pytest.mark.parametrize(
    "rows, message",
    [
        # an unquoted comma in the text moves every later cell one column right
        ("a,1990,chernobyl, Kyiv,Ukraine;France,Physics\n", "line 2: row has 6 cells, the header 5"),
        ("a,1990,x,,\nb,1991,x,,,\n", "line 3: row has 6 cells, the header 5"),
        ('a,1990,"x\ny",,\nb,1991,x,,,,\n', "line 4: row has 7 cells, the header 5"),
        ("a,1_990,x,,\n", "line 2: year '1_990' is not an integer in ASCII digits"),
        ("a,+1991,x,,\n", "line 2: year '+1991' is not an integer in ASCII digits"),
        ("a,\u0661\u0669\u0669\u0660,x,,\n", "line 2: year '\u0661\u0669\u0669\u0660' is not an integer in ASCII digits"),
        ("a,\uff11\uff19\uff19\uff10,x,,\n", "line 2: year '\uff11\uff19\uff19\uff10' is not an integer in ASCII digits"),
    ],
    ids=["wide-row", "wide-second-row", "wide-row-after-quoted-newline", "underscore-year", "plus-year",
         "arabic-indic-year", "fullwidth-year"],
)
def test_parse_csv_keeps_every_cell_and_reads_years_strictly(tmp_path, rows, message):
    path = tmp_path / "records.csv"
    path.write_text("id,year,text,countries,subjects\n" + rows, encoding="utf-8")
    with pytest.raises(DataError) as info:
        parse_records(path, "csv")
    assert str(info.value) == message


def test_parse_csv_year_may_be_padded(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("id,year,text,countries,subjects\na, 1990 ,x,,\nb,01991,x,,\n", encoding="utf-8")
    assert [r.year for r in parse_records(path, "csv").records] == [1990, 1991]


def test_surrogate_pair_escape_is_one_character(tmp_path):
    # A \ud83d\ude00 pair decodes to one astral character, not to two lone surrogates.
    path = write_jsonl(tmp_path / "r.jsonl", [{"id": "a\U0001f600", "year": 1990, "subjects": ["\\ud800"]}])
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    (record,) = parse_records(path).records
    assert (record.id, record.subjects) == ("a\U0001f600", ["\\ud800"])


def test_parse_csv_requires_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("id,year\np1,1986\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        parse_records(path, "csv")


def test_filter_topic_variants(tmp_path):
    rows = [
        {"id": "p1", "year": 1990, "text": "Chornobyl exclusion zone"},
        {"id": "p2", "year": 1990, "text": "nuclear power safety"},
        {"id": "p3", "year": 1990, "text": "CHERNOBYL-137Cs"},
    ]
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    kept = filter_topic(rs, ["chernobyl", "chornobyl"])
    assert [r.id for r in kept.records] == ["p1", "p3"]


def test_filter_topic_empty_variants(tmp_path):
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", [{"id": "p1", "year": 1990}]))
    with pytest.raises(UsageError):
        filter_topic(rs, [])
    with pytest.raises(UsageError):
        filter_topic(rs, ["", "  "])


def test_filter_topic_idempotent(tmp_path, registry):
    rng = random.Random(7)
    rows = synthetic_corpus_rows(rng, 120, ["Ukraine", "France", "Japan"])
    for i in (3, 40, 77):
        rows[i]["text"] = "unrelated topic"
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    once = filter_topic(rs, ["chernobyl", "chornobyl"])
    twice = filter_topic(once, ["chernobyl", "chornobyl"])
    assert once.records == twice.records
    assert ResolvedCorpus(once, registry).coverage == ResolvedCorpus(twice, registry).coverage


def test_coverage_fraction(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine"]},
        {"id": "p2", "year": 1990, "countries": ["France"]},
        {"id": "p3", "year": 1990, "countries": ["Japan"]},
        {"id": "p4", "year": 1990},
    ]
    cov = ResolvedCorpus(parse_records(write_jsonl(tmp_path / "r.jsonl", rows)), registry).coverage
    assert cov.kept_after_topic_filter == 4
    assert cov.with_affiliation == 3
    assert cov.affiliation_fraction == 0.75
    assert not cov.empty_corpus


def test_coverage_empty_corpus(tmp_path, registry):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    cov = ResolvedCorpus(parse_records(path), registry).coverage
    assert cov.kept_after_topic_filter == 0
    assert cov.affiliation_fraction == 0.0
    assert cov.empty_corpus


def test_coverage_no_affiliations(tmp_path, registry):
    rows = [{"id": "p1", "year": 1990}, {"id": "p2", "year": 1990}]
    cov = ResolvedCorpus(parse_records(write_jsonl(tmp_path / "r.jsonl", rows)), registry).coverage
    assert cov.affiliation_fraction == 0.0
    assert not cov.empty_corpus


def test_coverage_unknowns_tallied_per_occurrence(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Atlantis", "Ukraine"]},
        {"id": "p2", "year": 1990, "countries": ["Atlantis", "Narnia"]},
    ]
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    corpus = ResolvedCorpus(rs, registry)
    cov = coverage_stats(corpus.papers, corpus.with_affiliation, corpus.unknown)
    assert cov.unknown_country_names == [("Atlantis", 2), ("Narnia", 1)]
    assert corpus.coverage == cov and corpus.coverage is corpus.coverage


def test_coverage_recount_matches(tmp_path, registry):
    rng = random.Random(11)
    rows = synthetic_corpus_rows(rng, 200, ["Ukraine", "France", "Japan", "Brazil"])
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert ResolvedCorpus(rs, registry).coverage.with_affiliation == sum(1 for r in rs.records if r.raw_countries)


def test_jsonl_round_trip(tmp_path):
    rng = random.Random(3)
    rows = synthetic_corpus_rows(rng, 150, ["Ukraine", "Côte d'Ivoire", "Japan"])
    rs = parse_records(write_jsonl(tmp_path / "in.jsonl", rows))
    write_records_jsonl(rs, tmp_path / "out.jsonl")
    again = parse_records(tmp_path / "out.jsonl")
    assert again.records == rs.records


# Any text, and text of quotes, backslashes, control characters, line and
# paragraph separators and BMP edge and non-BMP characters.
_TEXT = st.text(st.characters(codec="utf-8")) | st.text(
    st.sampled_from('a"\\/\x00\x1f\x7f\u2028\u2029\ud7ff\ue000\U0001f600\U0010ffff')
)
_RECORD = st.builds(
    PublicationRecord,
    id=_TEXT,
    year=st.integers(YEAR_MIN, YEAR_MAX),
    text=_TEXT,
    raw_countries=st.lists(_TEXT, max_size=4),
    subjects=st.lists(_TEXT, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RECORD, max_size=5))
def test_jsonl_lines_equal_json_dumps(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    write_records_jsonl(RecordSet(records=records), path)
    text = path.read_bytes().decode("utf-8")
    expected = [
        json.dumps({"id": r.id, "year": r.year, "text": r.text, "countries": r.raw_countries, "subjects": r.subjects},
                   ensure_ascii=False, separators=(",", ":"))
        for r in records
    ]
    assert text == "".join(line + "\n" for line in expected)


def test_csv_round_trip(tmp_path):
    rng = random.Random(4)
    rows = synthetic_corpus_rows(rng, 60, ["Ukraine", "France"])
    rs = parse_records(write_jsonl(tmp_path / "in.jsonl", rows))
    with open(tmp_path / "out.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "year", "text", "countries", "subjects"])
        for r in rs.records:
            writer.writerow([r.id, r.year, r.text, ";".join(r.raw_countries), ";".join(r.subjects)])
    again = parse_records(tmp_path / "out.csv", "csv")
    assert again.records == rs.records


def test_load_variants_file(tmp_path):
    path = tmp_path / "variants.txt"
    path.write_text("chernobyl\n# comment line\nchornobyl  \n\ntschernobyl\n", encoding="utf-8")
    assert load_variants(path) == ("chernobyl", "chornobyl", "tschernobyl")
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_variants(empty)
