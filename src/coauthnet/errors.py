"""Exception types shared across the toolkit, the readers' helpers that turn a decoding
failure into a DataError naming its line, and the artifacts' JSON codec: json_text, read_json."""

import csv
import json
from pathlib import Path


class UsageError(ValueError):
    """Caller asked for something invalid (bad arguments, bad configuration)."""


class DataError(ValueError):
    """Input data is malformed; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def not_utf8(path: str | Path, what: str = "") -> DataError:
    """The DataError for a file whose UTF-8 decode failed, naming its first bad
    line: the error path re-reads the bytes and decodes them line by line, as a
    newline byte never occurs inside a UTF-8 sequence."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"{what}{path} is not valid UTF-8 at column {exc.start + 1} ({exc.reason})", line=line)
    return DataError(f"{what}{path} is not valid UTF-8")


def read_json(path: str | Path):
    """The JSON document in the file at `path`. DataError, naming the line where known,
    for bytes that are not UTF-8 or text that is not JSON, nests too deeply or holds too long an int."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", None)) from exc


def json_text(doc) -> str:
    """The text of every .json artifact: `doc` as compact JSON with sorted keys, on one line."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def csv_rows(fh, fields: tuple[str, ...], what: str):
    """Yield (line the row starts on, cells by header name, "" for a missing field)
    per non-blank data row of the CSV text `fh`. DataError for a header without
    `fields`, and, naming its line, for a row the csv module rejects or one with more cells than the header."""
    reader = csv.reader(fh)
    header = None
    while True:
        line = reader.line_num + 1  # before next(), which may count lines of the row it rejects
        try:
            cells = next(reader, None)
        except csv.Error as exc:
            raise DataError(f"unreadable CSV row: {exc}", line=line) from exc
        if header is None:
            header = cells or []
            if not set(fields).issubset(header):
                raise DataError(f"{what} header must contain {list(fields)}", line=1)
        elif cells is None:
            return
        elif len(cells) > len(header):
            raise DataError(f"row has {len(cells)} cells, the header {len(header)}", line=line)
        elif cells:
            yield line, dict.fromkeys(fields, "") | dict(zip(header, cells))
