"""Structural network observables: components, geodesics, centralities,
clustering, degree distribution, clique test and the small-world comparison.

All operations are pure functions of an immutable graph and ignore edge
weights. Components, geodesics, closeness and clustering read one dense
kernel result per graph (`_Geodesics`): the n x n boolean adjacency matrix
of the graph, in ascending code order, expanded level by level into
all-pairs hop distances (`next = (frontier . A > 0) & ~reach`, one product
per BFS level for all sources at once), with per-node triangle counts
diag(A.A.A)/2 read off the first product. Country graphs have at most a few
hundred nodes, so the matrices always fit. The small-world comparison feeds
each random sample's index pairs straight into the same kernel.

The kernel keeps the bytes of every result:
- path lengths and triangle counts accumulate as exact integers, and each
  local clustering term is `links / (k * (k - 1) / 2)` on Python ints;
- float sums (average clustering, the small-world sample means) add Python
  floats one by one in ascending code or sample order, never with np.sum,
  whose pairwise summation changes the last bit;
- the giant component is the largest, ties going to the one holding the
  smallest code.

The kernel is also thread-free: every product is `np.einsum` without
`optimize`, which runs numpy's own single-threaded loop; the kernel's own
products are on float32 0/1 matrices (counts are at most n^2, exact in
float32 up to n = 4096).
`@`, `np.dot`, `np.matmul` and `tensordot` on float arrays go to the BLAS,
which on a 2-vCPU host turns two-threaded above about 100^3 multiply-adds;
a 176 x 176 sgemm then took 5-16 ms per call under contention instead of
0.09 ms.

Betweenness runs Brandes' algorithm for all sources at once on the same
kernel result, with the source as the row axis of n x n arrays:
- a forward pass steps through queue positions, appending each popped
  node's unseen neighbours in ascending code order, so every row holds
  that source's BFS queue in the single-source loop's order;
- geodesic counts sigma grow level by level from the hop distances, one
  einsum per level on float64 0/1 and integer-valued matrices; the counts
  are integers, exact while below 2^53;
- a backward pass steps through queue positions from the last, applying
  `delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])` to the
  predecessors of each row's node w, the same float operations in the same
  order per source as the loop;
- the scores add each source's dependency row in ascending code order.
So betweenness equals the single-source loop's bit for bit. It costs
O(n^2) array work per queue position and O(n^3) per BFS level instead of
O(n m) interpreter steps: a win on dense country graphs, a loss on long
sparse chains with many levels.

numpy is imported lazily: `np` here and in temporal is a module object
from `lazy_import` (the importlib.util.LazyLoader recipe) that executes
numpy on its first attribute access, the first kernel call. The import
costs about 175 ms per process, and the CLI runs each stage as its own
process: `ingest`, `build` and `export` never reach a kernel and run
without numpy, while `metrics`, `slice`, `densify` and `report` load it on
first use. Any attribute lookup on `np` loads numpy, even the `__class__`
lookup behind isinstance(np, T). Python 3.11's LazyLoader is safe only when the first access
comes from a single thread (3.12 adds a lock). The package starts no
threads of its own, and the thread rule above keeps even the BLAS's
threads out, so the first access always comes from the calling thread.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from dataclasses import dataclass

from .errors import UsageError
from .graph import CoauthorshipGraph, basic_stats


def lazy_import(name: str):
    """The module `name`, executed on its first attribute access (importlib.util.LazyLoader).

    Returns sys.modules[name] when the module is already there, loaded or
    still lazy, so every caller shares one module object.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")

CLUSTERING_MODES = ("exclude_low_degree", "zero_low_degree")
DEFAULT_CLUSTERING_MODE = "exclude_low_degree"


class _Geodesics:
    """Dense-kernel result of one graph; node i is the i-th code in ascending order.

    dist holds hop distances (0 on the diagonal and between components),
    root the smallest node index of each node's component, triangles the
    number of links among each node's neighbours.
    """

    def __init__(self, adj: np.ndarray):
        n = len(adj)
        a = adj.astype(np.float32)
        self.degree = adj.sum(axis=1)
        self.dist = adj.astype(np.int32)
        walks = np.einsum("ij,jk->ik", a, a)
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
            new = (np.einsum("ij,jk->ik", new.astype(np.float32), a) > 0) & ~reach
        self.root = reach.argmax(axis=1) if n else np.zeros(0, dtype=np.int64)

    def giant(self) -> np.ndarray:
        """Indices of the largest component (smallest-root component wins ties)."""
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
    """The kernel result of g, computed on first use and kept on the (immutable) graph."""
    geo = vars(g).get("_geodesics")
    if geo is None:
        codes = g.codes()
        index = {code: i for i, code in enumerate(codes)}
        adj = np.zeros((len(codes), len(codes)), dtype=bool)
        for a, b, _ in g.edges():
            adj[index[a], index[b]] = adj[index[b], index[a]] = True
        geo = g._geodesics = _Geodesics(adj)
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
    root = _geodesics(g).root.tolist()
    cid = {r: i for i, r in enumerate(sorted(set(root)))}
    sizes = [0] * len(cid)
    for r in root:
        sizes[cid[r]] += 1
    return ComponentPartition(
        assignment={code: cid[r] for code, r in zip(g.codes(), root)},
        sizes=sorted(sizes, reverse=True),
        giant_size=max(sizes, default=0),
        isolated_count=sum(1 for s in sizes if s == 1),
    )


def giant_component_codes(g: CoauthorshipGraph) -> list[str]:
    """Members of the largest component (smallest-code component wins ties)."""
    codes = g.codes()
    return [codes[i] for i in _geodesics(g).giant().tolist()]


@dataclass
class PathStats:
    diameter: int
    diameter_endpoints: list[tuple[str, str]]
    mean_path_length: float
    connected_pair_count: int


def path_stats(g: CoauthorshipGraph) -> PathStats:
    """All-pairs geodesic statistics over connected pairs only.

    Pairs in different components are excluded from the average; the
    diameter is the longest finite geodesic, with every realizing pair
    reported.
    """
    codes = g.codes()
    upper = np.triu(_geodesics(g).dist, 1)
    total = int(upper.sum(dtype=np.int64))
    pairs = int(np.count_nonzero(upper))
    diameter = int(upper.max(initial=0))
    first, second = np.nonzero((upper == diameter) & (upper > 0))
    return PathStats(
        diameter=diameter,
        diameter_endpoints=[(codes[i], codes[j]) for i, j in zip(first.tolist(), second.tolist())],
        mean_path_length=total / pairs if pairs else 0.0,
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
        spread = np.einsum("ij,jk->ik", np.where(dist == level - 1, sigma, 0.0), a)
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


@dataclass
class DegreeHistogram:
    counts: dict[int, int]
    probabilities: dict[int, float]


def degree_distribution(g: CoauthorshipGraph) -> DegreeHistogram:
    counts: dict[int, int] = {}
    for d in g.degrees().values():
        counts[d] = counts.get(d, 0) + 1
    counts = dict(sorted(counts.items()))
    n = g.n
    return DegreeHistogram(
        counts=counts,
        probabilities={k: c / n for k, c in counts.items()} if n else {},
    )


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


def random_edge_set(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniformly sample m distinct unordered pairs out of n labelled nodes."""
    total = n * (n - 1) // 2
    if m > total:
        raise UsageError(f"cannot place {m} edges on {n} nodes (max {total})")
    idx = np.array(sorted(rng.sample(range(total), m)), dtype=np.int64)
    # Unrank idx into (i, j), i < j: row i holds the n - 1 - i pairs (i, i+1..n-1)
    # and starts at index i * (2n - i - 1) / 2.
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, idx, side="right") - 1
    j = i + 1 + idx - starts[i]
    return list(zip(i.tolist(), j.tolist()))


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
    sigma = (C / <C_rand>) / (L / <L_rand>). Fully reproducible from the
    seed. sigma is inf when the baseline clustering averages to zero while
    the graph's does not, and nan when both vanish.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if components(g).giant_size < 3:
        raise UsageError("giant component must have at least 3 nodes")
    l_actual, c_actual = _giant_metrics(_geodesics(g), clustering_mode)

    n, m = g.n, g.m
    rng = random.Random(seed)
    l_sum = 0.0
    c_sum = 0.0
    for _ in range(samples):
        adj = np.zeros((n, n), dtype=bool)
        i, j = np.array(random_edge_set(n, m, rng), dtype=np.int64).T
        adj[i, j] = adj[j, i] = True
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


def summary(g: CoauthorshipGraph, clustering_mode: str = DEFAULT_CLUSTERING_MODE) -> GraphSummary:
    """One-stop structural report: counts, density, degrees, geodesics,
    clustering, isolated-node and giant-component shares."""
    stats = basic_stats(g)
    part = components(g)
    paths = path_stats(g)
    _, avg_clust = clustering(g, clustering_mode)
    n = stats.n
    return GraphSummary(
        n=n,
        m=stats.m,
        density=stats.density,
        mean_degree=stats.mean_degree,
        max_degree=stats.max_degree,
        max_degree_codes=stats.max_degree_codes,
        diameter=paths.diameter,
        diameter_endpoints=paths.diameter_endpoints,
        mean_path_length=paths.mean_path_length,
        avg_clustering=avg_clust,
        clustering_mode=clustering_mode,
        isolated_count=part.isolated_count,
        isolated_fraction=part.isolated_count / n if n else 0.0,
        giant_size=part.giant_size,
        giant_fraction=part.giant_size / n if n else 0.0,
        empty=n == 0,
    )


def summary_to_dict(s: GraphSummary) -> dict:
    return {
        "n": s.n,
        "m": s.m,
        "density": s.density,
        "mean_degree": s.mean_degree,
        "max_degree": s.max_degree,
        "max_degree_codes": list(s.max_degree_codes),
        "diameter": s.diameter,
        "diameter_endpoints": [list(p) for p in s.diameter_endpoints],
        "mean_path_length": s.mean_path_length,
        "avg_clustering": s.avg_clustering,
        "clustering_mode": s.clustering_mode,
        "isolated_count": s.isolated_count,
        "isolated_fraction": s.isolated_fraction,
        "giant_size": s.giant_size,
        "giant_fraction": s.giant_fraction,
        "empty": s.empty,
    }


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


def histogram_rows(h: DegreeHistogram) -> list[dict]:
    return [
        {"degree": k, "count": h.counts[k], "probability": h.probabilities[k]}
        for k in sorted(h.counts)
    ]
