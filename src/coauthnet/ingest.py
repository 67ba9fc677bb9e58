"""Bibliographic record ingestion: parsing, topic filtering, coverage statistics.

Canonical input is JSONL (one object per line with fields id, year, text,
countries, subjects); a CSV alternative uses the same field names with
semicolon-joined list cells. Records carry affiliation country names as
written; resolution to canonical codes happens later, in graph.ResolvedCorpus.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, UsageError

YEAR_MIN = 1900
YEAR_MAX = 2100

DEFAULT_TOPIC_VARIANTS = ("chernobyl", "chornobyl")

_FIELDS = ("id", "year", "text", "countries", "subjects")

# One encoder for every records.jsonl line; json.dumps with keyword
# arguments would build a new one per call.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


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
    total: int = 0
    with_affiliation: int = 0
    affiliation_fraction: float = 0.0
    unknown_country_names: list[tuple[str, int]] = field(default_factory=list)
    empty_corpus: bool = True


@dataclass
class RecordSet:
    """Immutable-by-convention set of records, sorted by (year, id)."""

    records: list[PublicationRecord]
    coverage: CoverageStats

    def __len__(self) -> int:
        return len(self.records)

    def year_span(self) -> tuple[int, int] | None:
        if not self.records:
            return None
        years = [r.year for r in self.records]
        return min(years), max(years)


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
            if not isinstance(obj, dict):
                raise DataError("each line must hold a JSON object", line=lineno)
            out.append((_record_from_fields(obj, lineno), lineno))
    return out


def _split_cell(cell: str) -> list[str]:
    return [part for part in (cell or "").split(";") if part.strip()]


def _parse_csv(path: Path) -> list[tuple[PublicationRecord, int]]:
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_FIELDS).issubset(reader.fieldnames):
            raise DataError(f"CSV header must contain {list(_FIELDS)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            year_raw = (row.get("year") or "").strip()
            if not year_raw:
                raise DataError("missing year", line=lineno)
            try:
                year: object = int(year_raw)
            except ValueError:
                raise DataError(f"year {year_raw!r} is not an integer", line=lineno) from None
            obj = {
                "id": (row.get("id") or "").strip(),
                "year": year,
                "text": row.get("text") or "",
                "countries": _split_cell(row.get("countries") or ""),
                "subjects": _split_cell(row.get("subjects") or ""),
            }
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
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    seen: dict[str, int] = {}
    for record, lineno in rows:
        if record.id in seen:
            raise DataError(f"duplicate record id {record.id!r} (first seen on line {seen[record.id]})", line=lineno)
        seen[record.id] = lineno
    records = sorted((r for r, _ in rows), key=lambda r: (r.year, r.id))
    rs = RecordSet(records=records, coverage=CoverageStats())
    rs.coverage = coverage_stats(rs)
    return rs


def record_to_obj(record: PublicationRecord) -> dict:
    return {
        "id": record.id,
        "year": record.year,
        "text": record.text,
        "countries": list(record.raw_countries),
        "subjects": list(record.subjects),
    }


def write_records_jsonl(rs: RecordSet, path: str | Path) -> None:
    """Serialize to JSONL; parse_records on the output reproduces the set."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in rs.records:
            fh.write(_JSONL_ENCODER.encode(record_to_obj(record)))
            fh.write("\n")


def write_records_csv(rs: RecordSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_FIELDS)
        for r in rs.records:
            writer.writerow([r.id, r.year, r.text, ";".join(r.raw_countries), ";".join(r.subjects)])


def filter_topic(rs: RecordSet, variants: list[str] | tuple[str, ...]) -> RecordSet:
    """Keep records whose text contains any variant (case-insensitive substring)."""
    terms = [v.strip().casefold() for v in variants if v.strip()]
    if not terms:
        raise UsageError("topic variant list must not be empty")
    kept = [r for r in rs.records if any(t in r.text.casefold() for t in terms)]
    out = RecordSet(records=kept, coverage=CoverageStats())
    out.coverage = coverage_stats(out)
    return out


def coverage_stats(rs: RecordSet, unknown: dict[str, int] | None = None) -> CoverageStats:
    """Affiliation coverage of a record set.

    `unknown` is the per-occurrence tally of raw country names the registry
    cannot resolve (ResolvedCorpus.unknown); unknowns are data, not errors.
    """
    total = len(rs.records)
    with_affiliation = sum(1 for r in rs.records if r.raw_countries)
    return CoverageStats(
        total=total,
        with_affiliation=with_affiliation,
        affiliation_fraction=with_affiliation / total if total else 0.0,
        unknown_country_names=sorted((unknown or {}).items(), key=lambda kv: (-kv[1], kv[0])),
        empty_corpus=total == 0,
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
        raise DataError(f"variants file {path} is not valid UTF-8: {exc}") from exc
    if not variants:
        raise DataError(f"variants file {path} contains no terms")
    return tuple(variants)
