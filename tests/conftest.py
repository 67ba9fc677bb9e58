"""Shared fixtures and corpus generators."""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from coauthnet import builtin_registry
from coauthnet.graph import graph_from_edges

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FIXTURE_CORPUS = DATA_DIR / "fixture_corpus.jsonl"

# 8-node, 11-link reference graph: diameter 4 (F-G and F-H), deg(A)=3,
# deg(B)=4, clustering(A)=1/3, single component.
FIXTURE_EDGES = (
    ("A", "B"),
    ("A", "G"),
    ("A", "H"),
    ("G", "H"),
    ("F", "C"),
    ("C", "B"),
    ("B", "E"),
    ("E", "G"),
    ("E", "H"),
    ("B", "D"),
    ("D", "E"),
)


@pytest.fixture
def fixture_graph():
    return graph_from_edges(FIXTURE_EDGES)


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


def random_edges(rng: random.Random, n: int, p: float, labels=None):
    labels = labels or [f"N{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((labels[i], labels[j]))
    return labels, edges


def rank_pairs(n: int, ranks) -> list[tuple[int, int]]:
    """The (i, j) pairs, i < j, of upper-triangle ranks of n nodes, numbered in row-major order."""
    pairs = list(combinations(range(n), 2))
    return [pairs[r] for r in ranks.tolist()]


def random_graph(rng: random.Random, n: int, p: float):
    labels, edges = random_edges(rng, n, p)
    return graph_from_edges(edges, nodes=labels)


def write_jsonl(path: Path, rows) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def synthetic_corpus_rows(
    rng: random.Random,
    n_records: int,
    country_names,
    year_lo: int = 1986,
    year_hi: int = 2015,
    subjects=("Physics", "Medicine", "Environmental Science", "Engineering", "Social Sciences"),
):
    """Record dicts for a seeded synthetic corpus; every text matches the
    default topic variants."""
    rows = []
    n_countries = len(country_names)
    # Heavy-ish tail: low-index countries publish far more often.
    weights = [1.0 / (i + 1) for i in range(n_countries)]
    for i in range(n_records):
        year = rng.randint(year_lo, year_hi)
        k = rng.choices((0, 1, 2, 3, 4), weights=(5, 30, 40, 18, 7))[0]
        names = []
        for _ in range(k):
            names.append(rng.choices(country_names, weights=weights)[0])
        rows.append(
            {
                "id": f"r{i:06d}",
                "year": year,
                "text": f"chernobyl study {i}",
                "countries": names,
                "subjects": rng.sample(subjects, rng.randint(0, 2)),
            }
        )
    return rows


def densifying_corpus_rows(n_years: int = 30, year0: int = 1986):
    """Deterministic corpus whose cumulative snapshots densify.

    Country i enters in year0+i and immediately collaborates with
    ceil(i/2) of the earlier countries, so links grow faster than nodes and
    the cumulative mean degree rises.
    """
    rows = []
    rid = 0
    for i in range(n_years):
        year = year0 + i
        me = f"Country{i:02d}"
        n_partners = (i - 2) // 2 if i >= 4 else 0
        partners = [f"Country{j:02d}" for j in range(i - n_partners, i)]
        if not partners:
            rows.append(
                {"id": f"d{rid:05d}", "year": year, "text": "chornobyl kickoff", "countries": [me]}
            )
            rid += 1
        for partner in partners:
            rows.append(
                {
                    "id": f"d{rid:05d}",
                    "year": year,
                    "text": f"chernobyl collaboration {rid}",
                    "countries": [me, partner],
                }
            )
            rid += 1
    return rows


def synthetic_code(i: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return f"Q{letters[i // 26]}{letters[i % 26]}"


def densifying_registry_csv(path: Path, n_countries: int = 30) -> Path:
    """Registry file covering the synthetic CountryNN names."""
    lines = ["code,display_name,region,historic,aliases"]
    regions = ("Europe", "Asia", "NorthAmerica", "SouthAmerica", "Africa", "Oceania")
    for i in range(n_countries):
        lines.append(f"{synthetic_code(i)},Country{i:02d},{regions[i % len(regions)]},false,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
