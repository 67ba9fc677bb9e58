"""Structural network observables: components, geodesics, centralities,
clustering, degree distribution, clique test and the small-world comparison.

All operations are pure functions of an immutable graph and ignore edge
weights. Components, geodesics, closeness and clustering read one dense
kernel result per graph (`_Geodesics`): the n x n boolean adjacency matrix
of the graph, in ascending code order (filled by one store at the flat
indices that np.fromiter over the neighbour views and np.repeat over the
degrees give), expanded level by level into all-pairs hop distances
(`next = (frontier . A > 0) & ~reach`, one product per BFS level for all
sources at once), with per-node triangle counts diag(A.A.A)/2 read off the
first product. Country graphs have at most a few hundred nodes, so the
matrices always fit. The small-world comparison draws each random sample as
upper-triangle ranks (the m smallest of one 64-bit key per rank) and stores
them straight into the same kernel's matrix.

The kernel keeps the bytes of every result:
- path lengths and triangle counts accumulate as exact integers, and each
  local clustering term is `links / (k * (k - 1) / 2)` on Python ints;
- float sums (average clustering, the small-world sample means) add Python
  floats one by one in ascending code or sample order, never with np.sum,
  whose pairwise summation changes the last bit;
- the giant component is the largest, ties going to the one holding the
  smallest code.

The kernel's matrix products are `@`, so they run in numpy's BLAS, and
every product sums exact integers: walk counts and BFS frontiers in float32
0/1 matrices (counts are at most n^2, exact in float32 up to n = 4096),
geodesic counts in float64 (exact while below 2^53). So no summation order
and no thread count of the BLAS can change a byte. `cli.main` sets
OPENBLAS_NUM_THREADS=1 before numpy loads, so a CLI process runs the BLAS on
one thread and starts no worker. Unpinned on a 2-vCPU host, `import numpy`
started a second thread and took 0.14-0.17 s instead of 0.07-0.09 s, and a
176 x 176 sgemm took 5-16 ms instead of 0.09 ms while other work held the
CPUs. A library caller pins it the same way, before importing numpy.

Betweenness runs Brandes' algorithm for all sources at once on the same
kernel result, with the source as the row axis of n x n arrays:
- a forward pass steps through queue positions, appending each popped
  node's unseen neighbours in ascending code order, so every row holds
  that source's BFS queue in the single-source loop's order;
- geodesic counts sigma grow level by level from the hop distances, one
  product per level of float64 integer-valued and 0/1 matrices;
- a backward pass steps through queue positions from the last, applying
  `delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])` to the
  predecessors of each row's node w, the same float operations in the same
  order per source as the loop;
- the scores add each source's dependency row in ascending code order.
So betweenness equals the single-source loop's bit for bit. It costs
O(n^2) array work per queue position and O(n^3) per BFS level instead of
O(n m) interpreter steps: a win on dense country graphs, a loss on long
sparse chains with many levels.

`summary_fields` computes every GraphSummary field but the two code lists,
the max-degree holders and the diameter endpoint pairs, which only `summary`
adds (the pairs through `path_stats`), so the per-window series build no
endpoint pair.

numpy is imported inside the functions that touch an array, never at module
level, so `ingest`, `build`, `densify` and `export` never load it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

from .errors import UsageError
from .graph import CoauthorshipGraph


CLUSTERING_MODES = ("exclude_low_degree", "zero_low_degree")
DEFAULT_CLUSTERING_MODE = "exclude_low_degree"


class _Geodesics:
    """Dense-kernel result of one graph; node i is the i-th code in ascending order.

    dist holds hop distances (0 on the diagonal and between components),
    root the smallest node index of each node's component, triangles the
    number of links among each node's neighbours.
    """

    def __init__(self, adj: np.ndarray):
        import numpy as np
        n = len(adj)
        a = adj.astype(np.float32)
        self.degree = adj.sum(axis=1)
        self.dist = adj.astype(np.int32)
        walks = a @ a
        # sum_j (A.A)_ij A_ij = (A.A.A)_ii counts each link among i's
        # neighbours twice.
        self.triangles = np.einsum("ij,ij->i", walks, a).astype(np.int64) // 2
        reach = adj | np.eye(n, dtype=bool)
        level = 2
        new = (walks > 0) & ~reach
        while new.any():
            self.dist[new] = level
            reach |= new
            if reach.all():
                break
            level += 1
            new = (new.astype(np.float32) @ a > 0) & ~reach
        self.root = reach.argmax(axis=1) if n else np.zeros(0, dtype=np.int64)

    def giant(self) -> np.ndarray:
        """Indices of the largest component (smallest-root component wins ties)."""
        import numpy as np
        if not len(self.root):
            return self.root
        return np.flatnonzero(self.root == np.bincount(self.root).argmax())

    def clustering_terms(self, mode: str, members: np.ndarray | None = None) -> list[float | None]:
        """Local clustering per node (of `members`, default all); low degree gives None or 0.0 by mode."""
        if mode not in CLUSTERING_MODES:
            raise UsageError(f"unknown clustering mode {mode!r} (expected one of {CLUSTERING_MODES})")
        if members is None:
            members = slice(None)
        low = None if mode == "exclude_low_degree" else 0.0
        return [
            links / (k * (k - 1) / 2) if k >= 2 else low
            for k, links in zip(self.degree[members].tolist(), self.triangles[members].tolist())
        ]


def _geodesics(g: CoauthorshipGraph) -> _Geodesics:
    """The kernel result of g, computed on first use and kept on the (immutable) graph.

    The boolean adjacency matrix is filled by one store at the flat indices
    i * n + j of every node i's neighbours j, read in no particular order:
    the columns j come from one np.fromiter over the chained neighbour views
    and the row offsets i * n from np.repeat over the degrees, so no Python
    list of indices is built.
    """
    import numpy as np
    geo = vars(g).get("_geodesics")
    if geo is None:
        codes = g.codes()
        n = len(codes)
        index = {code: i for i, code in enumerate(codes)}
        rows = [g.neighbor_set(a) for a in codes]
        cols = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), dtype=np.intp, count=2 * g.m)
        adj = np.zeros(n * n, dtype=bool)
        adj[np.repeat(np.arange(n) * n, list(map(len, rows))) + cols] = True
        geo = g._geodesics = _Geodesics(adj.reshape(n, n))
    return geo


def _average(terms: list[float | None]) -> float:
    # Python floats summed one by one, in order: np.sum's pairwise
    # summation would change the last bit of the artifacts.
    values = [v for v in terms if v is not None]
    return sum(values) / len(values) if values else 0.0


@dataclass
class ComponentPartition:
    assignment: dict[str, int]
    sizes: list[int]
    giant_size: int
    isolated_count: int


def components(g: CoauthorshipGraph) -> ComponentPartition:
    """Connected components; ids are assigned by smallest member code."""
    import numpy as np
    _, cid, sizes = np.unique(_geodesics(g).root, return_inverse=True, return_counts=True)
    sizes = sizes.tolist()
    return ComponentPartition(
        assignment=dict(zip(g.codes(), cid.tolist())),
        sizes=sorted(sizes, reverse=True),
        giant_size=max(sizes, default=0),
        isolated_count=sizes.count(1),
    )


@dataclass
class PathStats:
    diameter: int
    diameter_endpoints: list[tuple[str, str]]
    mean_path_length: float
    connected_pair_count: int


def _path_lengths(geo: _Geodesics) -> tuple[int, float, int]:
    """(diameter, mean path length, connected pair count) over the pairs in one component."""
    import numpy as np
    # dist is symmetric with a zero diagonal: each connected pair counts twice.
    pairs = int(np.count_nonzero(geo.dist)) // 2
    total = int(geo.dist.sum(dtype=np.int64)) // 2
    return int(geo.dist.max(initial=0)), total / pairs if pairs else 0.0, pairs


def path_stats(g: CoauthorshipGraph) -> PathStats:
    """All-pairs geodesic statistics over connected pairs only.

    Pairs in different components are excluded from the average; the
    diameter is the longest finite geodesic, with every realizing pair
    reported.
    """
    import numpy as np
    geo = _geodesics(g)
    diameter, mean_path_length, pairs = _path_lengths(geo)
    codes = g.codes()
    upper = np.triu(geo.dist, 1)
    first, second = np.nonzero((upper == diameter) & (upper > 0))
    return PathStats(
        diameter=diameter,
        diameter_endpoints=[(codes[i], codes[j]) for i, j in zip(first.tolist(), second.tolist())],
        mean_path_length=mean_path_length,
        connected_pair_count=pairs,
    )


def betweenness(g: CoauthorshipGraph) -> dict[str, float]:
    """Normalized betweenness centrality.

    For every unordered pair (s, t), a node v strictly between them picks up
    the fraction of s-t geodesics passing through it; the per-node sum is
    divided by (n-1)(n-2)/2 with the global node count, so a node lying on
    every geodesic scores 1. Graphs with n < 3 score 0 everywhere.
    Accumulation follows the Brandes single-source scheme in ascending code
    order, for all sources at once (see the module docstring).
    """
    import numpy as np
    codes = g.codes()
    n = len(codes)
    if n < 3:
        return {c: 0.0 for c in codes}
    geo = _geodesics(g)
    adj = geo.dist == 1
    sources = np.arange(n)
    size = np.bincount(geo.root)[geo.root]
    # Row s is source s's BFS queue: each popped node appends its unseen
    # neighbours in ascending index order. Past the end of its component a
    # row repeats the source, which has no predecessors and so adds nothing.
    order = np.repeat(sources[:, None], n, axis=1)
    seen = np.eye(n, dtype=bool)
    tail = np.ones(n, dtype=np.int64)
    p = 0
    while (tail < size).any():
        new = adj[order[:, p]] & ~seen
        seen |= new
        s, w = np.divmod(np.flatnonzero(new), n)
        counts = np.bincount(s, minlength=n)
        order[s, np.arange(len(s)) + (tail + counts - np.cumsum(counts))[s]] = w
        tail += counts
        p += 1
    # Geodesic counts level by level: exact integer sums in float64.
    dist = np.where(seen, geo.dist, -1)
    a = adj.astype(np.float64)
    sigma = np.eye(n)
    for level in range(1, int(dist.max()) + 1):
        spread = np.where(dist == level - 1, sigma, 0.0) @ a
        sigma += np.where(dist == level, spread, 0.0)
    # Dependencies in reverse queue order, with the single-source loop's
    # float operations: delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w]).
    # Flat index s * n + v; within one step every (s, v) occurs at most once.
    sig = sigma.ravel()
    delta = np.zeros(n * n)
    for p in range(int(size.max()) - 1, 0, -1):
        w = order[:, p]
        preds = np.flatnonzero(adj[w] & (dist == dist[sources, w][:, None] - 1))
        rows = preds // n
        at = rows * n + w[rows]
        delta[preds] += (sig[preds] / sig[at]) * (1.0 + delta[at])
    delta = delta.reshape(n, n)
    delta[sources, sources] = 0.0
    # Per-source rows added one by one in ascending order, never np.sum.
    score = np.zeros(n)
    for row in delta:
        score += row
    # Each unordered pair was visited from both ends; fold the factor 2 into
    # the (n-1)(n-2)/2 normalizer.
    scale = 1.0 / ((n - 1) * (n - 2))
    return dict(zip(codes, (score * scale).tolist()))


def closeness(g: CoauthorshipGraph) -> dict[str, float]:
    """Closeness = reciprocal of farness within the node's own component.

    Farness sums distances to all other members of the component; isolated
    nodes get 0 by convention.
    """
    import numpy as np
    farness = _geodesics(g).dist.sum(axis=1, dtype=np.int64).tolist()
    return {code: 1.0 / f if f > 0 else 0.0 for code, f in zip(g.codes(), farness)}


def clustering(g: CoauthorshipGraph, mode: str = DEFAULT_CLUSTERING_MODE) -> tuple[dict[str, float | None], float]:
    """Local clustering coefficients and their average.

    The local coefficient is defined for degree >= 2 only. In
    exclude_low_degree mode lower-degree nodes carry None and are left out
    of the average; in zero_low_degree mode they count as 0.
    """
    terms = _geodesics(g).clustering_terms(mode)
    return dict(zip(g.codes(), terms)), _average(terms)


def degree_distribution(g: CoauthorshipGraph) -> list[dict]:
    """Degree histogram rows in ascending degree: degree, count and probability count / n."""
    counts: dict[int, int] = {}
    for d in g.degrees().values():
        counts[d] = counts.get(d, 0) + 1
    return [{"degree": k, "count": c, "probability": c / g.n} for k, c in sorted(counts.items())]


def is_clique(g: CoauthorshipGraph, nodes) -> bool:
    """True iff every pair in the set is directly linked (vacuously for <= 1)."""
    members = sorted(set(nodes))
    unknown = [c for c in members if not g.has_node(c)]
    if unknown:
        raise UsageError(f"unknown codes: {unknown}")
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not g.has_edge(a, b):
                return False
    return True


def top_k_by_degree(g: CoauthorshipGraph, k: int) -> list[str]:
    """Codes with the highest degrees, ties broken by ascending code."""
    if k < 1:
        raise UsageError("k must be >= 1")
    ranked = sorted(g.codes(), key=lambda c: (-g.degree(c), c))
    return ranked[:k]


def random_edge_set(n: int, m: int, rng: random.Random) -> np.ndarray:
    """Uniformly sample m distinct unordered pairs out of n labelled nodes.

    The pairs (i, j), i < j, are numbered by rank in row-major order: row i
    holds (i, i+1..n-1). One `rng.getrandbits` call draws a 64-bit key per
    rank, in rank order, so every call consumes the same bits whatever m is.
    The result is the int64 ranks of the m smallest keys, in ascending rank
    order; keys that tie go to the lower rank. The m smallest of i.i.d.
    uniform keys are a uniform m-subset. The tie rule biases it only when two
    keys collide, which has probability below total^2 / 2^65 (about 7e-13 at
    n = 100).
    """
    import numpy as np
    total = n * (n - 1) // 2
    if m > total:
        raise UsageError(f"cannot place {m} edges on {n} nodes (max {total})")
    keys = np.frombuffer(rng.getrandbits(64 * total).to_bytes(8 * total, "little"), dtype="<u8")
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    # Select by value, so the result does not depend on partition's algorithm.
    kth = np.partition(keys, m - 1)[m - 1]
    chosen = keys < kth
    chosen[np.flatnonzero(keys == kth)[: m - np.count_nonzero(chosen)]] = True
    return np.flatnonzero(chosen).astype(np.int64, copy=False)


@dataclass
class SmallWorldReport:
    l_actual: float
    c_actual: float
    l_random_mean: float
    c_random_mean: float
    sample_count: int
    seed: int
    sigma: float


def _giant_metrics(geo: _Geodesics, clustering_mode: str) -> tuple[float, float]:
    """Mean path length and average clustering of the giant component."""
    import numpy as np
    members = geo.giant()
    size = len(members)
    pairs = size * (size - 1) // 2
    # Rows of the giant's members are 0 outside it; each pair counts twice.
    total = int(geo.dist[members].sum(dtype=np.int64)) // 2
    l_value = total / pairs if pairs else 0.0
    return l_value, _average(geo.clustering_terms(clustering_mode, members))


def small_world(
    g: CoauthorshipGraph,
    samples: int,
    seed: int,
    clustering_mode: str = DEFAULT_CLUSTERING_MODE,
) -> SmallWorldReport:
    """Compare the graph with a random baseline of the same size.

    Draws `samples` graphs uniformly from the fixed-n, fixed-m ensemble (no
    self-loops, no multi-edges), computes mean path length and average
    clustering on the giant component of each, and reports
    sigma = (C / <C_rand>) / (L / <L_rand>). Each sample is the keyed draw
    of `random_edge_set` from one `random.Random(seed)`: its ranks go
    through a rank -> flat position table, built once per call, into one
    store in a zero n x n matrix, which is then symmetrised. Fully
    reproducible from the seed, which must be >= 0 (CPython seeds -s like
    s). sigma is inf when the baseline clustering averages to zero while
    the graph's does not, and nan when both vanish.
    """
    import numpy as np
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    if components(g).giant_size < 3:
        raise UsageError("giant component must have at least 3 nodes")
    l_actual, c_actual = _giant_metrics(_geodesics(g), clustering_mode)

    n, m = g.n, g.m
    rng = random.Random(seed)
    flat = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    l_sum = 0.0
    c_sum = 0.0
    for _ in range(samples):
        adj = np.zeros(n * n, dtype=bool)
        adj[flat[random_edge_set(n, m, rng)]] = True
        adj = adj.reshape(n, n)
        adj |= adj.T
        l_value, c_value = _giant_metrics(_Geodesics(adj), clustering_mode)
        l_sum += l_value
        c_sum += c_value
    l_random = l_sum / samples
    c_random = c_sum / samples

    if c_random > 0.0 and l_actual > 0.0:
        sigma = (c_actual / c_random) / (l_actual / l_random)
    elif c_actual > 0.0:
        sigma = math.inf
    else:
        sigma = math.nan
    return SmallWorldReport(
        l_actual=l_actual,
        c_actual=c_actual,
        l_random_mean=l_random,
        c_random_mean=c_random,
        sample_count=samples,
        seed=seed,
        sigma=sigma,
    )


@dataclass
class GraphSummary:
    n: int
    m: int
    density: float
    mean_degree: float
    max_degree: int
    max_degree_codes: list[str]
    diameter: int
    diameter_endpoints: list[tuple[str, str]]
    mean_path_length: float
    avg_clustering: float
    clustering_mode: str
    isolated_count: int
    isolated_fraction: float
    giant_size: int
    giant_fraction: float
    empty: bool


def summary_fields(g: CoauthorshipGraph, clustering_mode: str = DEFAULT_CLUSTERING_MODE) -> dict:
    """The GraphSummary fields of g by name, all but its two code lists
    (max_degree_codes, and diameter_endpoints from path_stats), which only
    summary builds."""
    n, m = g.n, g.m
    geo = _geodesics(g)
    part = components(g)
    diameter, mean_path_length, _ = _path_lengths(geo)
    _, avg_clustering = clustering(g, clustering_mode)
    return {
        "n": n,
        "m": m,
        "density": (2 * m) / (n * (n - 1)) if n >= 2 else 0.0,
        "mean_degree": (2 * m) / n if n else 0.0,
        "max_degree": int(geo.degree.max(initial=0)),
        "diameter": diameter,
        "mean_path_length": mean_path_length,
        "avg_clustering": avg_clustering,
        "clustering_mode": clustering_mode,
        "isolated_count": part.isolated_count,
        "isolated_fraction": part.isolated_count / n if n else 0.0,
        "giant_size": part.giant_size,
        "giant_fraction": part.giant_size / n if n else 0.0,
        "empty": n == 0,
    }


def summary(g: CoauthorshipGraph, clustering_mode: str = DEFAULT_CLUSTERING_MODE) -> GraphSummary:
    """One-stop structural report: counts, density, degrees, geodesics,
    clustering, isolated-node and giant-component shares."""
    fields = summary_fields(g, clustering_mode)
    return GraphSummary(
        **fields,
        max_degree_codes=sorted(c for c, d in g.degrees().items() if d == fields["max_degree"]),
        diameter_endpoints=path_stats(g).diameter_endpoints,
    )


def centrality_table(g: CoauthorshipGraph, clustering_mode: str = DEFAULT_CLUSTERING_MODE) -> list[dict]:
    """Per-node centrality rows sorted by code."""
    degree = g.degrees()
    between = betweenness(g)
    close = closeness(g)
    local, _ = clustering(g, clustering_mode)
    return [
        {
            "code": code,
            "degree": degree[code],
            "betweenness": between[code],
            "closeness": close[code],
            "local_clustering": local[code],
        }
        for code in g.codes()
    ]
