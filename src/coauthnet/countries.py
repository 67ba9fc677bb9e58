"""Country registry: canonical codes, regions, historic entities, alias resolution.

Affiliation country strings arrive in many spellings ("USA", "United States",
"Russian Federation"); the registry maps each of them onto one canonical
uppercase code. Entities that no longer exist politically (USSR,
Czechoslovakia, Yugoslavia) are first-class entries with their own codes and
are never remapped onto successor states.

The built-in table is `countries.csv` beside this module, in the same format
as a `--registry` file (`code,display_name,region,historic,aliases`);
`builtin_registry` reads it with `CountryRegistry.from_csv`, the only way a
registry is built from a table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import DataError, csv_rows, not_utf8

REGIONS = ("Europe", "Asia", "NorthAmerica", "SouthAmerica", "Africa", "Oceania")

_CODE_RE = re.compile(r"[A-Z]{2,3}")
_CSV_FIELDS = ("code", "display_name", "region", "historic", "aliases")


def is_country_code(code: str) -> bool:
    """True iff `code` is 2-3 uppercase ASCII letters, the form of every registry code."""
    return _CODE_RE.fullmatch(code) is not None


@dataclass(frozen=True)
class CountryEntry:
    code: str
    display_name: str
    region: str
    historic: bool = False
    aliases: tuple[str, ...] = field(default_factory=tuple)


def _norm(name: str) -> str:
    return name.strip().casefold()


class CountryRegistry:
    """Lookup table from raw country strings to canonical entries."""

    def __init__(self, entries):
        self._entries: dict[str, CountryEntry] = {}
        self._alias_index: dict[str, str] = {}
        for entry in entries:
            if not is_country_code(entry.code):
                raise DataError(f"invalid country code {entry.code!r} (want 2-3 uppercase letters)")
            if entry.region not in REGIONS:
                raise DataError(f"unknown region {entry.region!r} for {entry.code}")
            if entry.code in self._entries:
                raise DataError(f"duplicate country code {entry.code}")
            self._entries[entry.code] = entry
            for name in (entry.code, entry.display_name, *entry.aliases):
                key = _norm(name)
                if not key:
                    continue
                other = self._alias_index.get(key)
                if other is not None and other != entry.code:
                    raise DataError(f"alias {name!r} maps to both {other} and {entry.code}")
                self._alias_index[key] = entry.code

    def resolve(self, raw: str) -> CountryEntry | None:
        """Case-insensitive, whitespace-trimmed lookup; None when unknown."""
        code = self._alias_index.get(_norm(raw))
        return self._entries[code] if code is not None else None

    def get(self, code: str) -> CountryEntry:
        return self._entries[code]

    def codes(self) -> list[str]:
        return sorted(self._entries)

    @classmethod
    def from_csv(cls, path: str | Path) -> "CountryRegistry":
        """Load a registry from CSV: code,display_name,region,historic,aliases.

        The aliases cell is semicolon-joined; historic is true/false.
        """
        entries = []
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                for lineno, row in csv_rows(fh, _CSV_FIELDS, "registry"):
                    historic_raw = row["historic"].strip().casefold()
                    if historic_raw in ("true", "1", "yes"):
                        historic = True
                    elif historic_raw in ("false", "0", "no", ""):
                        historic = False
                    else:
                        raise DataError(f"bad historic flag {row['historic']!r}", line=lineno)
                    aliases = tuple(a.strip() for a in row["aliases"].split(";") if a.strip())
                    entries.append(
                        CountryEntry(
                            code=row["code"].strip().upper(),
                            display_name=row["display_name"].strip(),
                            region=row["region"].strip(),
                            historic=historic,
                            aliases=aliases,
                        )
                    )
        except UnicodeDecodeError as exc:
            raise not_utf8(path, "registry file ") from exc
        return cls(entries)


@lru_cache(maxsize=1)
def builtin_registry() -> CountryRegistry:
    """The registry shipped with the package: the table in `countries.csv` beside this module."""
    return CountryRegistry.from_csv(Path(__file__).with_name("countries.csv"))
