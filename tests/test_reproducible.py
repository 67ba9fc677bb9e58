"""The tree `report` writes does not depend on where or how the process starts.

Each run is a child process, so the interpreter's hash seed, locale and time
zone are its own. The package finds its built-in registry through
`__file__`, so a run from another working directory must read the same table.
`config.json` echoes `--input` as given, so both runs pass the same absolute
`--input`; `--out` is absolute in one run and relative in the other.
"""

import os
import subprocess
import sys
from pathlib import Path

import coauthnet

from conftest import FIXTURE_CORPUS

SRC = Path(coauthnet.__file__).resolve().parent.parent


def report_tree(cwd: Path, out: str, extra_env: dict) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONPATH": str(SRC), **extra_env}
    child = subprocess.run(
        [sys.executable, "-m", "coauthnet.cli", "report", "--input", str(FIXTURE_CORPUS), "--out", out],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    root = cwd / out
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


def test_report_bytes_do_not_depend_on_cwd_hash_seed_locale_or_time_zone(tmp_path):
    default = report_tree(tmp_path, str(tmp_path / "default"), {})
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    varied = report_tree(elsewhere, "tree", {"PYTHONHASHSEED": "1", "LC_ALL": "C.UTF-8", "TZ": "Asia/Tokyo"})
    assert "report.md" in default and "config.json" in default
    assert list(varied) == list(default)
    for name, data in default.items():
        assert varied[name] == data, name
