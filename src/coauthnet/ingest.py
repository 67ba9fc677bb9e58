"""Bibliographic record ingestion: parsing, topic filtering, coverage statistics.

Canonical input is JSONL (one object per line with fields id, year, text,
countries, subjects); a CSV alternative uses the same field names with
semicolon-joined list cells. Records carry affiliation country names as
written; resolution to canonical codes happens later, in graph.ResolvedCorpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, UsageError, csv_rows, not_utf8

YEAR_MIN = 1900
YEAR_MAX = 2100

DEFAULT_TOPIC_VARIANTS = ("chernobyl", "chornobyl")

_FIELDS = ("id", "year", "text", "countries", "subjects")


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
    kept_after_topic_filter: int = 0
    with_affiliation: int = 0
    affiliation_fraction: float = 0.0
    unknown_country_names: list[tuple[str, int]] = field(default_factory=list)
    empty_corpus: bool = True


@dataclass
class RecordSet:
    """Immutable-by-convention set of records, sorted by (year, id)."""

    records: list[PublicationRecord]

    def __len__(self) -> int:
        return len(self.records)


def _dedup(items: list[str]) -> list[str]:
    seen: dict[str, None] = {}
    for item in items:
        item = item.strip()
        if item:
            seen.setdefault(item)
    return list(seen)


def _record_from_fields(obj: dict, line: int) -> PublicationRecord:
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid:
        raise DataError("record id must be a non-empty string", line=line)
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise DataError(f"record {rid!r}: year must be an integer", line=line)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"record {rid!r}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line)
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"record {rid!r}: text must be a string", line=line)
    countries = obj.get("countries", [])
    subjects = obj.get("subjects", [])
    for name, value in (("countries", countries), ("subjects", subjects)):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise DataError(f"record {rid!r}: {name} must be a list of strings", line=line)
    return PublicationRecord(
        id=rid,
        year=year,
        text=text,
        raw_countries=_dedup(countries),
        subjects=_dedup(subjects),
    )


def _parse_jsonl(path: Path) -> list[tuple[PublicationRecord, int]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            except RecursionError as exc:
                raise DataError("invalid JSON: nested too deeply", line=lineno) from exc
            if not isinstance(obj, dict):
                raise DataError("each line must hold a JSON object", line=lineno)
            out.append((_record_from_fields(obj, lineno), lineno))
    return out


def _parse_csv(path: Path) -> list[tuple[PublicationRecord, int]]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in csv_rows(fh, _FIELDS, "CSV"):
            year_raw = row["year"].strip()
            if not year_raw:
                raise DataError("missing year", line=lineno)
            try:
                year: object = int(year_raw)
            except ValueError:
                raise DataError(f"year {year_raw!r} is not an integer", line=lineno) from None
            lists = {name: row[name].split(";") for name in ("countries", "subjects")}
            obj = {**row, "id": row["id"].strip(), "year": year, **lists}
            out.append((_record_from_fields(obj, lineno), lineno))
    return out


def parse_records(path: str | Path, fmt: str = "jsonl") -> RecordSet:
    """Parse a record file into a RecordSet sorted by (year, id).

    Raises DataError (with line number) for malformed rows and duplicate ids;
    I/O problems propagate as OSError.
    """
    path = Path(path)
    try:
        if fmt == "jsonl":
            rows = _parse_jsonl(path)
        elif fmt == "csv":
            rows = _parse_csv(path)
        else:
            raise UsageError(f"unknown input format {fmt!r} (expected jsonl or csv)")
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    seen: dict[str, int] = {}
    for record, lineno in rows:
        if record.id in seen:
            raise DataError(f"duplicate record id {record.id!r} (first seen on line {seen[record.id]})", line=lineno)
        seen[record.id] = lineno
    records = sorted((r for r, _ in rows), key=lambda r: (r.year, r.id))
    return RecordSet(records=records)


def write_records_jsonl(rs: RecordSet, path: str | Path) -> None:
    """Serialize to JSONL; parse_records on the output reproduces the set.

    Each line is json.dumps(obj, ensure_ascii=False, separators=(",", ":")) of
    the fields id, year, text, countries and subjects, built from the string
    function that encoder calls; year is a validated int, whose JSON is its repr."""
    enc = json.encoder.encode_basestring
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in rs.records:
            countries, subjects = ",".join(map(enc, r.raw_countries)), ",".join(map(enc, r.subjects))
            fh.write(f'{{"id":{enc(r.id)},"year":{r.year},"text":{enc(r.text)},'
                     f'"countries":[{countries}],"subjects":[{subjects}]}}\n')


def filter_topic(rs: RecordSet, variants: list[str] | tuple[str, ...]) -> RecordSet:
    """Keep records whose text contains any variant (case-insensitive substring)."""
    terms = [v.strip().casefold() for v in variants if v.strip()]
    if not terms:
        raise UsageError("topic variant list must not be empty")
    kept = [r for r in rs.records if any(t in r.text.casefold() for t in terms)]
    return RecordSet(records=kept)


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
