"""Output checks for one workload run: every artifact is present and
parses, the graph size matches the benchmark's own count, and the artifact
tree hashes to a digest that must repeat across runs of a workload."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from coauthnet.errors import DataError
from coauthnet.export import read_dot, read_pajek

_LINK_RE = re.compile(r"\]\(([^)\s]+)\)")


def report_artifacts(out: Path) -> list[str]:
    """report.md plus every artifact it links."""
    text = (out / "report.md").read_text(encoding="utf-8")
    return ["report.md", *_LINK_RE.findall(text)]


def tree_digest(out: Path) -> str:
    """sha256 over the relative path and bytes of every file in the tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def tree_size(out: Path) -> tuple[int, int]:
    """(files, bytes) of the artifact tree."""
    sizes = [p.stat().st_size for p in out.rglob("*") if p.is_file()]
    return len(sizes), sum(sizes)


def _parse_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged CSV rows (widths {sorted(widths)})")


def _parse_clu(text: str) -> None:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("*Vertices "):
        raise ValueError("missing *Vertices header")
    expected = int(lines[0].split()[1])
    values = [int(line) for line in lines[1:]]
    if len(values) != expected:
        raise ValueError(f"{len(values)} partition lines, header says {expected}")


def _check_graph_text(name: str, parsed, n: int, m: int) -> None:
    labels, edges = parsed
    if (len(labels), len(edges)) != (n, m):
        raise ValueError(f"{name} holds n={len(labels)} m={len(edges)}, expected n={n} m={m}")


def _check_one(path: Path, n: int, m: int) -> None:
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix
    if suffix == ".json":
        doc = json.loads(text)
        if path.name == "summary.json" and (doc["n"], doc["m"]) != (n, m):
            raise ValueError(f"summary n={doc['n']} m={doc['m']}, expected n={n} m={m}")
    elif suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line)
    elif suffix == ".csv":
        _parse_csv(text)
    elif suffix == ".svg":
        if not ET.fromstring(text).tag.endswith("svg"):
            raise ValueError("root element is not <svg>")
    elif suffix == ".net":
        _check_graph_text(path.name, read_pajek(text), n, m)
    elif suffix == ".dot":
        _check_graph_text(path.name, read_dot(text), n, m)
    elif suffix == ".clu":
        _parse_clu(text)
    elif suffix == ".md":
        if not text.startswith("# "):
            raise ValueError("no top-level heading")
    else:
        raise ValueError(f"no parser for {suffix!r} artifacts")


def check_artifacts(out: Path, names, n: int, m: int) -> list[str]:
    """Problems found in the named artifacts; an empty list means the run passed."""
    problems = []
    if "summary.json" not in names:
        problems.append("summary.json is not among the checked artifacts")
    for name in names:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            _check_one(path, n, m)
        except (ValueError, KeyError, TypeError, IndexError, DataError, ET.ParseError) as exc:
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
    return problems
