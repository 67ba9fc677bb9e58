"""Seeded synthetic record corpora for the benchmark workloads.

The generator draws the same random sequence as the corpus behind the
10,000-record scale test: seed 0, the first 100 registry countries and
10,000 records give that corpus row for row. Any other seed, country list
or size uses the same draws.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate, combinations
from pathlib import Path

SUBJECTS = ("Physics", "Medicine", "Environmental Science", "Engineering", "Social Sciences")
AUTHOR_COUNTS = (0, 1, 2, 3, 4)
AUTHOR_COUNT_WEIGHTS = (5, 30, 40, 18, 7)
YEAR_LO, YEAR_HI = 1986, 2015


def corpus_rows(seed: int, n_records: int, country_names) -> list[dict]:
    """Record dicts; every text matches the default topic variants.

    Country i is drawn with weight 1/(i+1), so low-index countries publish
    far more often. Passing precomputed cumulative weights to
    random.choices draws exactly what passing the weights would.
    """
    rng = random.Random(seed)
    names = list(country_names)
    cum_weights = list(accumulate(1.0 / (i + 1) for i in range(len(names))))
    rows = []
    for i in range(n_records):
        year = rng.randint(YEAR_LO, YEAR_HI)
        k = rng.choices(AUTHOR_COUNTS, weights=AUTHOR_COUNT_WEIGHTS)[0]
        countries = [rng.choices(names, cum_weights=cum_weights)[0] for _ in range(k)]
        rows.append(
            {
                "id": f"r{i:06d}",
                "year": year,
                "text": f"chernobyl study {i}",
                "countries": countries,
                "subjects": rng.sample(SUBJECTS, rng.randint(0, 2)),
            }
        )
    return rows


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def expected_graph_size(rows) -> tuple[int, int]:
    """(n, m) of the whole-corpus graph, counted straight from the rows.

    Valid when every row passes the topic filter and every country name
    resolves to its own code, which holds for rows from corpus_rows drawn
    over distinct registry display names.
    """
    nodes: set[str] = set()
    links: set[tuple[str, str]] = set()
    for row in rows:
        names = sorted(set(row["countries"]))
        nodes.update(names)
        links.update(combinations(names, 2))
    return len(nodes), len(links)
