"""The README's Library examples run as written against the package namespace."""

import re
import shutil
from pathlib import Path

from conftest import FIXTURE_CORPUS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert blocks
    shutil.copy(FIXTURE_CORPUS, tmp_path / "records.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("GraphSummary(n=8, m=11, ")
    assert lines[1:] == ["1986-1990 8 11"]
