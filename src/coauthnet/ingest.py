"""Bibliographic record ingestion: parsing, topic filtering, coverage statistics.

Canonical input is JSONL (one object per line with fields id, year, text,
countries, subjects); a CSV alternative uses the same field names with
semicolon-joined list cells. Records carry affiliation country names as
written; resolution to canonical codes happens later, in graph.ResolvedCorpus.

parse_records reads JSONL in one pass per line. The scanner behind
json.loads decodes the line from its first character, and its value is kept
when it ends exactly at the line's end; any other line (blank, indented,
with a BOM, trailing data or an int of too many digits) goes to json.loads,
so every line gets a per-line json.loads's verdict and message. Each record
is validated as it is read, its countries and subjects typed, stripped and
de-duplicated in one walk; a line holding a surrogate escape is also checked
for a lone surrogate, which no UTF-8 artifact can hold. Duplicate ids are
found in the same pass, but the first is reported only after the last line,
so a malformed line anywhere in the file wins. The records are then sorted
in place.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import DataError, UsageError, csv_rows, not_utf8

YEAR_MIN = 1900
YEAR_MAX = 2100

DEFAULT_TOPIC_VARIANTS = ("chernobyl", "chornobyl")

_FIELDS = ("id", "year", "text", "countries", "subjects")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


@dataclass
class PublicationRecord:
    """One bibliographic item."""

    id: str
    year: int
    text: str = ""
    raw_countries: list[str] = field(default_factory=list)
    subjects: list[str] = field(default_factory=list)


@dataclass
class CoverageStats:
    kept_after_topic_filter: int
    with_affiliation: int
    affiliation_fraction: float
    unknown_country_names: list[tuple[str, int]]
    empty_corpus: bool


@dataclass
class RecordSet:
    """Immutable-by-convention set of records, sorted by (year, id)."""

    records: list[PublicationRecord]

    def __len__(self) -> int:
        return len(self.records)


def _names(value, name: str, rid: str, line: int) -> list[str]:
    """A record's countries or subjects in one walk: each item stripped, blank
    items and repeats dropped, first occurrences kept in order. DataError
    unless `value` is a list of strings."""
    if isinstance(value, list):
        seen: dict[str, None] = {}
        for item in value:
            if not isinstance(item, str):
                break
            item = item.strip()
            if item:
                seen[item] = None
        else:
            return list(seen)
    raise DataError(f"record {rid!r}: {name} must be a list of strings", line=line)


def _record_from_fields(obj: dict, line: int) -> PublicationRecord:
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise DataError("record id must be a non-empty string", line=line)
    year = obj.get("year")
    if type(year) is not int:
        raise DataError(f"record {rid!r}: year must be an integer", line=line)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"record {rid!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line)
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"record {rid!r}: text must be a string", line=line)
    countries = _names(obj.get("countries", []), "countries", rid, line)
    subjects = _names(obj.get("subjects", []), "subjects", rid, line)
    return PublicationRecord(rid, year, text, countries, subjects)


def _jsonl_objects(fh):
    """Yield (line number, JSON object) per non-blank line of the text `fh`:
    the scanner's value when it ends at the line's end, else json.loads's."""
    scan = json.decoder.JSONDecoder().scan_once
    for line, raw in enumerate(fh, start=1):
        try:
            obj, end = scan(raw, 0)
            clean = raw[end:] in ("\n", "")
        except (StopIteration, ValueError, RecursionError):
            clean = False
        if not clean:
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError, or an int of too many digits
                raise DataError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=line) from exc
            except RecursionError as exc:
                raise DataError("invalid JSON: nested too deeply", line=line) from exc
        if not isinstance(obj, dict):
            raise DataError("each line must hold a JSON object", line=line)
        if "\\u" in raw and _SURROGATE_ESCAPE.search(raw):
            r = _record_from_fields(obj, line)
            if _SURROGATE.search("".join([r.id, r.text, *r.raw_countries, *r.subjects])):
                raise DataError(f"record {r.id!r}: a string holds a lone surrogate", line=line)
        yield line, obj


def _csv_objects(fh):
    """Yield (line number, record fields) per non-blank data row of the CSV text `fh`."""
    for line, row in csv_rows(fh, _FIELDS, "CSV"):
        year_raw = row["year"].strip()
        if not year_raw:
            raise DataError("missing year", line=line)
        if not (year_raw.isascii() and year_raw.isdigit()):
            raise DataError(f"year {year_raw!r} is not an integer in ASCII digits", line=line)
        year = int(year_raw)
        lists = {name: row[name].split(";") for name in ("countries", "subjects")}
        yield line, {**row, "id": row["id"].strip(), "year": year, **lists}


def parse_records(path: str | Path, fmt: str = "jsonl") -> RecordSet:
    """Parse a record file into a RecordSet sorted by (year, id).

    Raises DataError (with line number) for malformed rows and duplicate ids;
    a malformed row anywhere wins over a duplicate id, and the first duplicate
    in file order wins over later ones. I/O problems propagate as OSError.
    """
    if fmt not in ("jsonl", "csv"):
        raise UsageError(f"unknown input format {fmt!r} (expected jsonl or csv)")
    path = Path(path)
    records = []
    first_line: dict[str, int] = {}
    duplicate = None
    try:
        with open(path, encoding="utf-8", newline=None if fmt == "jsonl" else "") as fh:
            for line, obj in (_jsonl_objects if fmt == "jsonl" else _csv_objects)(fh):
                record = _record_from_fields(obj, line)
                first = first_line.setdefault(record.id, line)
                if first != line and duplicate is None:
                    duplicate = DataError(f"duplicate record id {record.id!r} (first seen on line {first})", line=line)
                records.append(record)
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    if duplicate is not None:
        raise duplicate
    records.sort(key=attrgetter("year", "id"))
    return RecordSet(records=records)


def write_records_jsonl(rs: RecordSet, path: str | Path) -> None:
    """Serialize to JSONL; parse_records on the output reproduces the set.

    Each line is json.dumps(obj, ensure_ascii=False, separators=(",", ":")) of
    the fields id, year, text, countries and subjects, built from the string
    function that encoder calls; year is a validated int, whose JSON is its repr.
    The lines go to the file in one write."""
    enc = json.encoder.encode_basestring
    text = "".join(
        f'{{"id":{enc(r.id)},"year":{r.year},"text":{enc(r.text)},'
        f'"countries":[{",".join(map(enc, r.raw_countries))}],"subjects":[{",".join(map(enc, r.subjects))}]}}\n'
        for r in rs.records
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def filter_topic(rs: RecordSet, variants: list[str] | tuple[str, ...]) -> RecordSet:
    """Keep records whose text contains any variant (case-insensitive substring):
    one search per casefolded text for the alternation of the escaped terms."""
    terms = [v.strip().casefold() for v in variants if v.strip()]
    if not terms:
        raise UsageError("topic variant list must not be empty")
    search = re.compile("|".join(map(re.escape, terms))).search
    return RecordSet(records=[r for r in rs.records if search(r.text.casefold())])


def coverage_stats(papers: int, with_affiliation: int, unknown: dict[str, int]) -> CoverageStats:
    """Affiliation coverage of `papers` records, `with_affiliation` of which list a country
    name. `unknown` is the per-occurrence tally of raw country names the registry cannot
    resolve (ResolvedCorpus.unknown); unknowns are data, not errors."""
    return CoverageStats(
        kept_after_topic_filter=papers,
        with_affiliation=with_affiliation,
        affiliation_fraction=with_affiliation / papers if papers else 0.0,
        unknown_country_names=sorted(unknown.items(), key=lambda kv: (-kv[1], kv[0])),
        empty_corpus=papers == 0,
    )


def load_variants(path: str | Path) -> tuple[str, ...]:
    """Read topic variants from a file, one per line; '#' starts a comment."""
    variants = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                term = line.split("#", 1)[0].strip()
                if term:
                    variants.append(term)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, "variants file ") from exc
    if not variants:
        raise DataError(f"variants file {path} contains no terms")
    return tuple(variants)
