"""numpy loads on the first kernel use, not when the package is imported.

`ingest`, `build` and `export` never touch an array, so a process that runs
only those commands starts without numpy. Each check runs in a fresh
interpreter, because this test process has numpy loaded already.
"""

import json
import pkgutil
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import coauthnet
from coauthnet.cli import main

from conftest import synthetic_corpus_rows, write_jsonl

SRC = Path(coauthnet.__file__).resolve().parent.parent

# Runs each argv through coauthnet.cli.main, then prints, as the last stdout
# line, whether any numpy module was executed and which package modules
# are loaded. A lazy numpy stub sits in sys.modules under "numpy" alone.
PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import coauthnet.cli
for argv in {runs!r}:
    assert coauthnet.cli.main(argv) == 0, argv
print(json.dumps({{
    "numpy": any(name.startswith("numpy.") for name in sys.modules),
    "package": sorted(name for name in sys.modules if name.startswith("coauthnet.")),
}}))
"""


def probe(runs: list[list[str]]) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC), runs=runs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def report_tree(tmp_path_factory, registry):
    """A corpus whose densification fit runs, and the tree `report` writes for it."""
    root = tmp_path_factory.mktemp("lazy")
    names = [registry.get(code).display_name for code in registry.codes()[:60]]
    corpus = write_jsonl(root / "corpus.jsonl", synthetic_corpus_rows(random.Random(3), 200, names))
    assert main(["report", "--input", str(corpus), "--out", str(root / "tree"), "--sw-samples", "2"]) == 0
    assert "alpha" in json.loads((root / "tree" / "densification.json").read_text())
    return corpus, root / "tree"


def test_cli_import_loads_no_numpy():
    assert probe([])["numpy"] is False


def test_cli_import_loads_every_package_module():
    # bench/tracer.py wraps only the package modules loaded by this import.
    listed = {f"coauthnet.{m.name}" for m in pkgutil.iter_modules(coauthnet.__path__)}
    assert set(probe([])["package"]) == listed


@pytest.mark.parametrize(
    "command, loads_numpy",
    [
        ("ingest", False),
        ("build", False),
        ("export", False),
        ("metrics", True),
        ("slice", True),
        ("densify", True),
        ("report", True),
    ],
)
def test_only_kernel_commands_load_numpy(tmp_path, report_tree, command, loads_numpy):
    corpus, tree = report_tree
    out = tmp_path / "out"
    shutil.copytree(tree, out)
    argv = [command, "--out", str(out), "--sw-samples", "2"]
    if command in ("ingest", "report"):
        argv += ["--input", str(corpus)]
    assert probe([argv])["numpy"] is loads_numpy
