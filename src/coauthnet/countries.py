"""Country registry: canonical codes, regions, historic entities, alias resolution.

Affiliation country strings arrive in many spellings ("USA", "United States",
"Russian Federation"); the registry maps each of them onto one canonical
uppercase code. Entities that no longer exist politically (USSR,
Czechoslovakia, Yugoslavia) are first-class entries with their own codes and
are never remapped onto successor states.
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


# Built-in table: (code, display name, region, historic, aliases).
_BUILTIN = (
    # Europe
    ("ALB", "Albania", "Europe", False, ()),
    ("AUT", "Austria", "Europe", False, ()),
    ("BLR", "Belarus", "Europe", False, ("Byelarus", "Belorussia", "Byelorussian SSR")),
    ("BEL", "Belgium", "Europe", False, ()),
    ("BIH", "Bosnia and Herzegovina", "Europe", False, ("Bosnia",)),
    ("BGR", "Bulgaria", "Europe", False, ()),
    ("HRV", "Croatia", "Europe", False, ()),
    ("CYP", "Cyprus", "Europe", False, ()),
    ("CZE", "Czech Republic", "Europe", False, ("Czechia",)),
    ("DNK", "Denmark", "Europe", False, ()),
    ("EST", "Estonia", "Europe", False, ()),
    ("FRO", "Faroe Islands", "Europe", False, ("Faeroe Islands",)),
    ("FIN", "Finland", "Europe", False, ()),
    ("FRA", "France", "Europe", False, ()),
    ("DEU", "Germany", "Europe", False, ("Federal Republic of Germany", "West Germany")),
    ("GRC", "Greece", "Europe", False, ()),
    ("HUN", "Hungary", "Europe", False, ()),
    ("ISL", "Iceland", "Europe", False, ()),
    ("IRL", "Ireland", "Europe", False, ("Republic of Ireland",)),
    ("ITA", "Italy", "Europe", False, ()),
    ("LVA", "Latvia", "Europe", False, ()),
    ("LIE", "Liechtenstein", "Europe", False, ()),
    ("LTU", "Lithuania", "Europe", False, ()),
    ("LUX", "Luxembourg", "Europe", False, ()),
    ("MLT", "Malta", "Europe", False, ()),
    ("MDA", "Moldova", "Europe", False, ("Republic of Moldova",)),
    ("MCO", "Monaco", "Europe", False, ()),
    ("MNE", "Montenegro", "Europe", False, ()),
    ("NLD", "Netherlands", "Europe", False, ("The Netherlands", "Holland")),
    ("MKD", "North Macedonia", "Europe", False, ("Macedonia",)),
    ("NOR", "Norway", "Europe", False, ()),
    ("POL", "Poland", "Europe", False, ()),
    ("PRT", "Portugal", "Europe", False, ()),
    ("ROU", "Romania", "Europe", False, ("Rumania",)),
    ("SMR", "San Marino", "Europe", False, ()),
    ("SRB", "Serbia", "Europe", False, ()),
    ("SVK", "Slovakia", "Europe", False, ("Slovak Republic",)),
    ("SVN", "Slovenia", "Europe", False, ()),
    ("ESP", "Spain", "Europe", False, ()),
    ("SWE", "Sweden", "Europe", False, ()),
    ("CHE", "Switzerland", "Europe", False, ()),
    ("UKR", "Ukraine", "Europe", False, ("Ukrainian SSR",)),
    ("GBR", "United Kingdom", "Europe", False, ("UK", "Great Britain", "England", "Scotland", "Wales", "Northern Ireland")),
    # Europe, historic entities
    ("SUN", "USSR", "Europe", True, ("Soviet Union", "Union of Soviet Socialist Republics")),
    ("CSK", "Czechoslovakia", "Europe", True, ()),
    ("YUG", "Yugoslavia", "Europe", True, ()),
    ("DDR", "East Germany", "Europe", True, ("German Democratic Republic",)),
    # Asia
    ("AFG", "Afghanistan", "Asia", False, ()),
    ("ARM", "Armenia", "Asia", False, ()),
    ("AZE", "Azerbaijan", "Asia", False, ()),
    ("BHR", "Bahrain", "Asia", False, ()),
    ("BGD", "Bangladesh", "Asia", False, ()),
    ("BTN", "Bhutan", "Asia", False, ()),
    ("BRN", "Brunei", "Asia", False, ("Brunei Darussalam",)),
    ("KHM", "Cambodia", "Asia", False, ()),
    ("CHN", "China", "Asia", False, ("People's Republic of China", "PR China")),
    ("GEO", "Georgia", "Asia", False, ()),
    ("HKG", "Hong Kong", "Asia", False, ()),
    ("IND", "India", "Asia", False, ()),
    ("IDN", "Indonesia", "Asia", False, ()),
    ("IRN", "Iran", "Asia", False, ("Islamic Republic of Iran",)),
    ("IRQ", "Iraq", "Asia", False, ()),
    ("ISR", "Israel", "Asia", False, ()),
    ("JPN", "Japan", "Asia", False, ()),
    ("JOR", "Jordan", "Asia", False, ()),
    ("KAZ", "Kazakhstan", "Asia", False, ()),
    ("KWT", "Kuwait", "Asia", False, ()),
    ("KGZ", "Kyrgyzstan", "Asia", False, ("Kirghizia",)),
    ("LAO", "Laos", "Asia", False, ("Lao People's Democratic Republic",)),
    ("LBN", "Lebanon", "Asia", False, ()),
    ("MYS", "Malaysia", "Asia", False, ()),
    ("MDV", "Maldives", "Asia", False, ()),
    ("MNG", "Mongolia", "Asia", False, ()),
    ("MMR", "Myanmar", "Asia", False, ("Burma",)),
    ("NPL", "Nepal", "Asia", False, ()),
    ("PRK", "North Korea", "Asia", False, ("Democratic People's Republic of Korea", "Korea, Democratic People's Republic of")),
    ("OMN", "Oman", "Asia", False, ()),
    ("PAK", "Pakistan", "Asia", False, ()),
    ("PHL", "Philippines", "Asia", False, ()),
    ("QAT", "Qatar", "Asia", False, ()),
    ("RUS", "Russia", "Asia", False, ("Russian Federation",)),
    ("SAU", "Saudi Arabia", "Asia", False, ()),
    ("SGP", "Singapore", "Asia", False, ()),
    ("KOR", "South Korea", "Asia", False, ("Republic of Korea", "Korea, Republic of")),
    ("LKA", "Sri Lanka", "Asia", False, ("Ceylon",)),
    ("SYR", "Syria", "Asia", False, ("Syrian Arab Republic",)),
    ("TWN", "Taiwan", "Asia", False, ()),
    ("TJK", "Tajikistan", "Asia", False, ()),
    ("THA", "Thailand", "Asia", False, ()),
    ("TUR", "Turkey", "Asia", False, ("Turkiye", "Türkiye")),
    ("TKM", "Turkmenistan", "Asia", False, ()),
    ("ARE", "United Arab Emirates", "Asia", False, ("UAE",)),
    ("UZB", "Uzbekistan", "Asia", False, ()),
    ("VNM", "Vietnam", "Asia", False, ("Viet Nam",)),
    ("YEM", "Yemen", "Asia", False, ()),
    # North America (incl. Central America and the Caribbean)
    ("BHS", "Bahamas", "NorthAmerica", False, ()),
    ("BRB", "Barbados", "NorthAmerica", False, ()),
    ("BLZ", "Belize", "NorthAmerica", False, ()),
    ("CAN", "Canada", "NorthAmerica", False, ()),
    ("CRI", "Costa Rica", "NorthAmerica", False, ()),
    ("CUB", "Cuba", "NorthAmerica", False, ()),
    ("DOM", "Dominican Republic", "NorthAmerica", False, ()),
    ("SLV", "El Salvador", "NorthAmerica", False, ()),
    ("GRL", "Greenland", "NorthAmerica", False, ()),
    ("GTM", "Guatemala", "NorthAmerica", False, ()),
    ("HTI", "Haiti", "NorthAmerica", False, ()),
    ("HND", "Honduras", "NorthAmerica", False, ()),
    ("JAM", "Jamaica", "NorthAmerica", False, ()),
    ("MEX", "Mexico", "NorthAmerica", False, ()),
    ("NIC", "Nicaragua", "NorthAmerica", False, ()),
    ("PAN", "Panama", "NorthAmerica", False, ()),
    ("PRI", "Puerto Rico", "NorthAmerica", False, ()),
    ("TTO", "Trinidad and Tobago", "NorthAmerica", False, ()),
    ("USA", "United States", "NorthAmerica", False, ("United States of America", "US", "U.S.A.", "U.S.")),
    # South America
    ("ARG", "Argentina", "SouthAmerica", False, ()),
    ("BOL", "Bolivia", "SouthAmerica", False, ("Plurinational State of Bolivia",)),
    ("BRA", "Brazil", "SouthAmerica", False, ()),
    ("CHL", "Chile", "SouthAmerica", False, ()),
    ("COL", "Colombia", "SouthAmerica", False, ()),
    ("ECU", "Ecuador", "SouthAmerica", False, ()),
    ("GUY", "Guyana", "SouthAmerica", False, ()),
    ("PRY", "Paraguay", "SouthAmerica", False, ()),
    ("PER", "Peru", "SouthAmerica", False, ()),
    ("SUR", "Suriname", "SouthAmerica", False, ()),
    ("URY", "Uruguay", "SouthAmerica", False, ()),
    ("VEN", "Venezuela", "SouthAmerica", False, ("Bolivarian Republic of Venezuela",)),
    # Africa
    ("DZA", "Algeria", "Africa", False, ()),
    ("AGO", "Angola", "Africa", False, ()),
    ("BEN", "Benin", "Africa", False, ()),
    ("BWA", "Botswana", "Africa", False, ()),
    ("BFA", "Burkina Faso", "Africa", False, ()),
    ("BDI", "Burundi", "Africa", False, ()),
    ("CMR", "Cameroon", "Africa", False, ()),
    ("CPV", "Cape Verde", "Africa", False, ("Cabo Verde",)),
    ("TCD", "Chad", "Africa", False, ()),
    ("COG", "Congo", "Africa", False, ("Republic of the Congo",)),
    ("COD", "DR Congo", "Africa", False, ("Democratic Republic of the Congo", "Congo, Democratic Republic", "Zaire")),
    ("CIV", "Ivory Coast", "Africa", False, ("Cote d'Ivoire", "Côte d'Ivoire")),
    ("EGY", "Egypt", "Africa", False, ()),
    ("ETH", "Ethiopia", "Africa", False, ()),
    ("GAB", "Gabon", "Africa", False, ()),
    ("GMB", "Gambia", "Africa", False, ()),
    ("GHA", "Ghana", "Africa", False, ()),
    ("GIN", "Guinea", "Africa", False, ()),
    ("KEN", "Kenya", "Africa", False, ()),
    ("LBY", "Libya", "Africa", False, ("Libyan Arab Jamahiriya",)),
    ("MDG", "Madagascar", "Africa", False, ()),
    ("MWI", "Malawi", "Africa", False, ()),
    ("MLI", "Mali", "Africa", False, ()),
    ("MRT", "Mauritania", "Africa", False, ()),
    ("MUS", "Mauritius", "Africa", False, ()),
    ("MAR", "Morocco", "Africa", False, ()),
    ("MOZ", "Mozambique", "Africa", False, ()),
    ("NAM", "Namibia", "Africa", False, ()),
    ("NER", "Niger", "Africa", False, ()),
    ("NGA", "Nigeria", "Africa", False, ()),
    ("RWA", "Rwanda", "Africa", False, ()),
    ("SEN", "Senegal", "Africa", False, ()),
    ("SLE", "Sierra Leone", "Africa", False, ()),
    ("SOM", "Somalia", "Africa", False, ()),
    ("ZAF", "South Africa", "Africa", False, ()),
    ("SDN", "Sudan", "Africa", False, ()),
    ("TZA", "Tanzania", "Africa", False, ("United Republic of Tanzania",)),
    ("TGO", "Togo", "Africa", False, ()),
    ("TUN", "Tunisia", "Africa", False, ()),
    ("UGA", "Uganda", "Africa", False, ()),
    ("ZMB", "Zambia", "Africa", False, ()),
    ("ZWE", "Zimbabwe", "Africa", False, ()),
    # Oceania
    ("AUS", "Australia", "Oceania", False, ()),
    ("FJI", "Fiji", "Oceania", False, ()),
    ("NZL", "New Zealand", "Oceania", False, ()),
    ("PNG", "Papua New Guinea", "Oceania", False, ()),
    ("WSM", "Samoa", "Oceania", False, ()),
    ("SLB", "Solomon Islands", "Oceania", False, ()),
    ("TON", "Tonga", "Oceania", False, ()),
    ("VUT", "Vanuatu", "Oceania", False, ()),
)


@lru_cache(maxsize=1)
def builtin_registry() -> CountryRegistry:
    """The registry shipped with the package."""
    return CountryRegistry(
        CountryEntry(code, name, region, historic, aliases)
        for code, name, region, historic, aliases in _BUILTIN
    )
