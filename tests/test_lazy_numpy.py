"""numpy loads on the first kernel use, not when the package is imported,
and a command loads it with its BLAS pinned to one thread.

`ingest`, `build`, `densify` and `export` never touch an array, so a process
that runs only those commands starts without numpy. The kernel commands load
it after `main` has set OPENBLAS_NUM_THREADS=1, which numpy's OpenBLAS reads
when it loads. Each check runs in a fresh interpreter, because this test
process has numpy loaded already.
"""

import json
import os
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

# Runs `first`, then each argv through coauthnet.cli.main, then prints, as the
# last stdout line, whether numpy and decimal were imported, the
# OPENBLAS_NUM_THREADS value when numpy was first looked up, and which package
# modules are loaded.
PROBE = """
import json, os, sys
sys.path.insert(0, {src!r})
blas_threads = []

class NumpyWatch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not blas_threads:
            blas_threads.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpyWatch())
{first}
import coauthnet.cli
for argv in {runs!r}:
    assert coauthnet.cli.main(argv) == 0, argv
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "decimal": "decimal" in sys.modules,
    "blas_threads": blas_threads,
    "package": sorted(name for name in sys.modules if name.startswith("coauthnet.")),
}}))
"""


def probe(runs: list[list[str]], first: str = "") -> dict:
    # In-process main() calls of other tests set the variable in this process;
    # inherited, it would hold before the child's main() ran.
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC), runs=runs, first=first)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
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


def test_bench_tracer_install_loads_no_numpy():
    # The tracer looks at every global of every package module when it wraps them.
    tracer = SRC.parent / "bench" / "tracer.py"
    code = f"""
import runpy, sys
sys.path.insert(0, {str(SRC)!r})
tracer = runpy.run_path({str(tracer)!r})
tracer["install"](tracer["Tracer"]())
print("numpy" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


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
        ("densify", False),
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
    found = probe([argv])
    assert found["numpy"] is loads_numpy
    # A kernel command loads numpy with its BLAS pinned to one thread.
    assert found["blas_threads"] == (["1"] if loads_numpy else [])
    # Only the commands that run the densification fit pay for decimal.
    assert found["decimal"] is (command in ("densify", "report"))


def test_probe_records_the_value_numpy_loads_under(monkeypatch):
    # numpy imported before main() loads unpinned, whatever this process holds.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    found = probe([], first="import numpy")
    assert found["numpy"] is True and found["blas_threads"] == [None]
