import csv
import hashlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coauthnet import DataError, CountryRegistry, builtin_registry
from coauthnet.countries import REGIONS

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CSV = REPO / "src" / "coauthnet" / "countries.csv"
# Editing the built-in table changes this digest: re-pin it as a stated change.
SHIPPED_CSV_SHA256 = "95156e918658fa5a67ac1b413bba2cb9c7972aa658a82107c4463b33652659aa"


def test_historic_entities_resolve_to_own_codes(registry):
    ussr = registry.resolve("USSR")
    assert ussr.code == "SUN"
    assert ussr.region == "Europe"
    assert ussr.historic
    assert registry.resolve("Soviet Union").code == "SUN"
    assert registry.resolve("Czechoslovakia").code == "CSK"
    assert registry.resolve("Yugoslavia").code == "YUG"
    # Never remapped to successors.
    assert registry.resolve("Russia").code == "RUS"
    assert registry.resolve("USSR").code != registry.resolve("Russia").code


def test_alias_table_merges_spellings(registry):
    assert registry.resolve("United States").code == "USA"
    assert registry.resolve("USA").code == "USA"
    assert registry.resolve("United States of America").code == "USA"
    assert registry.resolve("UK").code == "GBR"


def test_unknown_name_is_none(registry):
    assert registry.resolve("Atlantis") is None


def test_lookup_trims_and_ignores_case(registry):
    for raw in ("  ukraine ", "UKRAINE", "Ukraine"):
        assert registry.resolve(raw).code == "UKR"


def test_normalization_invariant_over_all_aliases(registry):
    for entry in map(registry.get, registry.codes()):
        for alias in (entry.code, entry.display_name, *entry.aliases):
            assert registry.resolve(alias) is entry
            assert registry.resolve(alias.lower().strip()) is entry
            assert registry.resolve(f"  {alias.upper()}  ") is entry


def test_every_entry_has_one_known_region(registry):
    for entry in map(registry.get, registry.codes()):
        assert entry.region in REGIONS


def test_dependent_territories_present(registry):
    fro = registry.resolve("Faroe Islands")
    assert fro.code == "FRO"
    assert fro.region == "Europe"
    assert not fro.historic
    assert registry.resolve("Faeroe Islands").code == "FRO"


def test_regions_include_paper_groupings(registry):
    assert registry.resolve("Japan").region == "Asia"
    assert registry.resolve("Russia").region == "Asia"
    assert registry.resolve("United States").region == "NorthAmerica"
    assert registry.resolve("Brazil").region == "SouthAmerica"
    assert registry.resolve("Egypt").region == "Africa"
    assert registry.resolve("Australia").region == "Oceania"


def test_registry_from_csv(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        "code,display_name,region,historic,aliases\n"
        "UKR,Ukraine,Europe,false,\n"
        'SUN,USSR,Europe,true,"Soviet Union;CCCP"\n',
        encoding="utf-8",
    )
    reg = CountryRegistry.from_csv(path)
    assert reg.codes() == ["SUN", "UKR"]
    assert reg.resolve("cccp").code == "SUN"
    assert reg.resolve("ukraine").code == "UKR"


@pytest.mark.parametrize(
    "rows, message",
    [
        # an unquoted alias list: Kyiv would be dropped
        ("UKR,Ukraine,Europe,false,Ukrainian SSR,Kyiv\n", "line 2: row has 6 cells, the header 5"),
        ('UKR,Ukraine,Europe,false,"Ukrainian SSR;\nKyiv"\nSUN,USSR,Europe,true,,,\n', "line 4: row has 7 cells, the header 5"),
    ],
    ids=["unquoted-alias", "after-quoted-newline"],
)
def test_registry_csv_row_wider_than_header(tmp_path, rows, message):
    path = tmp_path / "registry.csv"
    path.write_text("code,display_name,region,historic,aliases\n" + rows, encoding="utf-8")
    with pytest.raises(DataError) as info:
        CountryRegistry.from_csv(path)
    assert str(info.value) == message


def test_registry_csv_validation(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("code,name\nUKR,Ukraine\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        CountryRegistry.from_csv(bad_header)

    bad_flag = tmp_path / "f.csv"
    bad_flag.write_text(
        "code,display_name,region,historic,aliases\nUKR,Ukraine,Europe,maybe,\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="historic"):
        CountryRegistry.from_csv(bad_flag)

    bad_region = tmp_path / "r.csv"
    bad_region.write_text(
        "code,display_name,region,historic,aliases\nUKR,Ukraine,Atlantis,false,\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="region"):
        CountryRegistry.from_csv(bad_region)


def test_registry_rejects_duplicates_and_collisions():
    from coauthnet.countries import CountryEntry

    with pytest.raises(DataError, match="duplicate"):
        CountryRegistry(
            [
                CountryEntry("UKR", "Ukraine", "Europe"),
                CountryEntry("UKR", "Ukraine again", "Europe"),
            ]
        )
    with pytest.raises(DataError, match="maps to both"):
        CountryRegistry(
            [
                CountryEntry("UKR", "Ukraine", "Europe"),
                CountryEntry("UKX", "Ukraine", "Europe"),
            ]
        )
    with pytest.raises(DataError, match="invalid country code"):
        CountryRegistry([CountryEntry("U1", "Utopia", "Europe")])


def test_builtin_registry_is_cached():
    assert builtin_registry() is builtin_registry()


def test_shipped_table_is_pinned():
    assert hashlib.sha256(SHIPPED_CSV.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256


def test_shipped_table_is_canonical_csv():
    text = SHIPPED_CSV.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["code", "display_name", "region", "historic", "aliases"]
    assert {row[3] for row in rows[1:]} == {"true", "false"}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text


def test_builtin_registry_is_the_shipped_table(registry):
    assert registry.codes() == CountryRegistry.from_csv(SHIPPED_CSV).codes()
    assert len(registry.codes()) == 176
    assert [code for code in registry.codes() if registry.get(code).historic] == ["CSK", "DDR", "SUN", "YUG"]


def test_shipped_table_is_package_data(tmp_path):
    # build_py writes an egg-info into the tree it runs in, so it runs on a copy.
    shutil.copy(REPO / "pyproject.toml", tmp_path)
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    build = tmp_path / "build"
    subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "build_py", "--build-lib", build, "-q"],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    package = build / "coauthnet"
    assert (package / "countries.py").is_file()
    assert (package / "countries.csv").read_bytes() == SHIPPED_CSV.read_bytes()
