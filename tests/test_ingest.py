import json
import random

import pytest

from coauthnet import (
    DataError,
    ResolvedCorpus,
    UsageError,
    coverage_stats,
    filter_topic,
    parse_records,
    write_records_csv,
    write_records_jsonl,
)
from coauthnet.ingest import load_variants

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


def test_filter_topic_idempotent(tmp_path):
    rng = random.Random(7)
    rows = synthetic_corpus_rows(rng, 120, ["Ukraine", "France", "Japan"])
    for i in (3, 40, 77):
        rows[i]["text"] = "unrelated topic"
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    once = filter_topic(rs, ["chernobyl", "chornobyl"])
    twice = filter_topic(once, ["chernobyl", "chornobyl"])
    assert once.records == twice.records
    assert once.coverage == twice.coverage


def test_coverage_fraction(tmp_path):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Ukraine"]},
        {"id": "p2", "year": 1990, "countries": ["France"]},
        {"id": "p3", "year": 1990, "countries": ["Japan"]},
        {"id": "p4", "year": 1990},
    ]
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    cov = rs.coverage
    assert cov.total == 4
    assert cov.with_affiliation == 3
    assert cov.affiliation_fraction == 0.75
    assert not cov.empty_corpus


def test_coverage_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    cov = parse_records(path).coverage
    assert cov.total == 0
    assert cov.affiliation_fraction == 0.0
    assert cov.empty_corpus


def test_coverage_no_affiliations(tmp_path):
    rows = [{"id": "p1", "year": 1990}, {"id": "p2", "year": 1990}]
    cov = parse_records(write_jsonl(tmp_path / "r.jsonl", rows)).coverage
    assert cov.affiliation_fraction == 0.0
    assert not cov.empty_corpus


def test_coverage_unknowns_tallied_per_occurrence(tmp_path, registry):
    rows = [
        {"id": "p1", "year": 1990, "countries": ["Atlantis", "Ukraine"]},
        {"id": "p2", "year": 1990, "countries": ["Atlantis", "Narnia"]},
    ]
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    corpus = ResolvedCorpus(rs, registry)
    cov = coverage_stats(rs, corpus.unknown)
    assert cov.unknown_country_names == [("Atlantis", 2), ("Narnia", 1)]
    assert corpus.coverage == cov and corpus.coverage is corpus.coverage


def test_coverage_recount_matches(tmp_path):
    rng = random.Random(11)
    rows = synthetic_corpus_rows(rng, 200, ["Ukraine", "France", "Japan", "Brazil"])
    rs = parse_records(write_jsonl(tmp_path / "r.jsonl", rows))
    assert rs.coverage.with_affiliation == sum(1 for r in rs.records if r.raw_countries)


def test_jsonl_round_trip(tmp_path):
    rng = random.Random(3)
    rows = synthetic_corpus_rows(rng, 150, ["Ukraine", "Côte d'Ivoire", "Japan"])
    rs = parse_records(write_jsonl(tmp_path / "in.jsonl", rows))
    write_records_jsonl(rs, tmp_path / "out.jsonl")
    again = parse_records(tmp_path / "out.jsonl")
    assert again.records == rs.records
    assert again.coverage == rs.coverage


def test_csv_round_trip(tmp_path):
    rng = random.Random(4)
    rows = synthetic_corpus_rows(rng, 60, ["Ukraine", "France"])
    rs = parse_records(write_jsonl(tmp_path / "in.jsonl", rows))
    write_records_csv(rs, tmp_path / "out.csv")
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
