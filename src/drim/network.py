"""Graph storage, edge-list ingestion, and planning-side views.

The simulation graph is undirected and unweighted, without self-loops or
duplicate edges. There is one graph type, `Graph`, and a party plans on
a view of the network that is itself a `Graph`. When network visibility
is partial the view is edge-masked: each edge of the base graph is kept
independently with probability p_nv. At p_nv = 1 the view is the graph
itself (`full_view(g) is g`), so every episode on a graph shares its
cached degrees, 2-hop counts and spectral embeddings. Spreading always
runs on the full graph; only planning queries (degree, free degree, 2-hop
neighborhoods, communities) consult the view.

Only `spectral_communities` (C-STORM's community step) needs scipy,
imported when a view is first solved: sparse matrices, csgraph's
connected components and normalized Laplacian (`scipy.sparse.csgraph`)
and ARPACK (`scipy.sparse.linalg`). Its k-means runs in numpy; the rest
of the module, and every drim process that never builds a C-STORM
agent, runs on numpy alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable

import numpy as np


# Reach cells (rows x n, one byte each) plus 2-hop walks (int64 index
# arrays, about 40 bytes each) that one block of Graph.within2_counts
# holds: about 10 MiB at most, unless a single row needs more.
_WITHIN2_BLOCK_ENTRIES = 1 << 18

# Names the community labels `spectral_communities` gives a view: C-STORM
# policies trained under other labels are keyed apart (`harness.policy_paths`).
COMMUNITY_CONTRACT = ("components in closed form, isolated users left out, one deflated "
                      "eigsh (tol 1e-8, seed-0 start), numpy k-means++ and 10 Lloyd steps")

# The spectral step: ARPACK's relative tolerance, the seed of its fixed
# start vector, the eigenvalue the known zero modes are moved to (the top
# of the normalized Laplacian's spectrum [0, 2]), the linked-user count
# below which a dense eigh solves instead, and k-means' Lloyd iterations.
_EIGSH_TOL = 1e-8
_EIGSH_START_SEED = 0
_ZERO_MODE_SHIFT = 2.0
_DENSE_BELOW = 64
_KMEANS_ITERATIONS = 10


class Graph:
    """Immutable undirected graph: n nodes, a sorted edge array, and CSR
    adjacency (`indices[indptr[v]:indptr[v + 1]]` are v's neighbors in
    ascending order), with its planning statistics (degrees, 2-hop
    counts, C-STORM's spectral embedding per community count) cached on
    first use. The simulation graph and every view a party plans on are
    Graphs; the full view is the graph itself.

    Construction sorts 1-D integer keys, not pairs: each edge (u, v) with
    u < v is the key u·n + v, so sorting and deduplicating the keys gives
    the edges in (u, v) order, and sorting src·n + dst over both
    directions gives the CSR's neighbor order."""

    __slots__ = ("n", "edge_u", "edge_v", "indptr", "indices", "_degrees", "_within2",
                 "_embeddings")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        raw = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        raw = raw.reshape(-1, 2)
        raw = raw[raw[:, 0] != raw[:, 1]]
        lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
        bad = (lo < 0) | (hi >= n)
        if np.count_nonzero(bad):
            lo, hi = lo[bad], hi[bad]
            a = lo.min()
            raise ValueError(f"edge ({a}, {hi[lo == a].min()}) out of range for n={n}")
        self.n = n
        keys = np.sort(lo * n + hi)
        # drop repeats of the sorted keys (np.unique hashes first: slower here)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.edge_u, self.edge_v = np.divmod(keys, n)
        src = np.concatenate([self.edge_u, self.edge_v])
        dst = np.concatenate([self.edge_v, self.edge_u])
        self.indices = np.sort(src * n + dst) % n
        self._degrees = np.bincount(src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=self.indptr[1:])
        self._within2: np.ndarray | None = None
        self._embeddings: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return self._degrees

    def within2_counts(self) -> np.ndarray:
        """Size of every node's 1-to-2-hop neighborhood (cached).

        Plain numpy over the CSR, no scipy: for a block of rows, mark each
        row's neighbors and their neighbors (every 2-hop walk) in a boolean
        reach block, clear the diagonal and count. Blocks are cut so that
        reach cells plus walks stay within _WITHIN2_BLOCK_ENTRIES.
        """
        if self._within2 is None:
            n, indptr, indices = self.n, self.indptr, self.indices
            deg = self.degrees()
            walk_ends = np.concatenate(([0], np.cumsum(deg[indices])))[indptr]
            cost = np.cumsum(n + np.diff(walk_ends))
            counts = np.empty(n, dtype=np.int64)
            lo = 0
            while lo < n:
                budget = _WITHIN2_BLOCK_ENTRIES + (cost[lo - 1] if lo else 0)
                hi = max(lo + 1, int(np.searchsorted(cost, budget, side="right")))
                rows = np.repeat(np.arange(hi - lo), deg[lo:hi])
                hop1 = indices[indptr[lo]:indptr[hi]]
                lens = deg[hop1]
                starts = indptr[hop1] - (np.cumsum(lens) - lens)
                walks = np.repeat(starts, lens) + np.arange(lens.sum())
                reach = np.zeros((hi - lo, n), dtype=bool)
                reach[rows, hop1] = True
                reach[np.repeat(rows, lens), indices[walks]] = True
                reach[np.arange(hi - lo), np.arange(lo, hi)] = False
                counts[lo:hi] = np.count_nonzero(reach, axis=1)
                lo = hi
            self._within2 = counts
        return self._within2


ObservableGraph = Graph  # (kept as a name; perfbench's tracer rebinds its within2_counts)


def full_view(g: Graph) -> Graph:
    """The fully visible view (p_nv = 1): the graph itself, with its caches."""
    return g


def mask_network(g: Graph, p_nv: float, rng_seed: int | np.random.Generator) -> Graph:
    """Sample the visible-edge view: each edge kept with probability p_nv.

    Deterministic for a fixed seed; both parties plan on the same view
    within an episode. At p_nv = 1 the view is g itself, so it shares
    g's cached degrees and 2-hop counts.
    """
    if not 0.0 <= p_nv <= 1.0:
        raise ValueError(f"p_nv={p_nv} outside [0, 1]")
    if p_nv >= 1.0:
        return g
    rng = np.random.default_rng(rng_seed)
    visible = rng.random(g.num_edges) < p_nv
    return Graph(g.n, np.stack([g.edge_u[visible], g.edge_v[visible]], axis=1))


def neighbor_sums(edge_u: np.ndarray, edge_v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of weights over every node's neighbors along the edges
    (edge_u[i], edge_v[i]); a free mask as weights gives free degrees."""
    size = weights.size
    return (np.bincount(edge_u, weights=weights.take(edge_v), minlength=size)
            + np.bincount(edge_v, weights=weights.take(edge_u), minlength=size))


def _spectral_embedding(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(users, vectors): the users the spectral step embeds, ascending,
    and their rows of k smallest eigenvectors of the normalized Laplacian
    L = I - D^{-1/2} A D^{-1/2}, orthonormal columns. Cached on g per k
    (`Graph._embeddings`), as it depends on the view alone.

    Components and L come from one scipy adjacency of g: csgraph's
    `connected_components` and `laplacian(normed=True)`. Isolated users
    (no visible edge) are left out. Each component of two or more users
    has a zero mode in closed form, its D^{1/2}-weighted indicator (von
    Luxburg, Stat. Comput. 17, 2007). With m < k such components, the
    other k - m vectors are the smallest eigenvectors of L over the
    linked users with the m zero modes moved to eigenvalue
    _ZERO_MODE_SHIFT, from one ARPACK solve (`eigsh`, relative tolerance
    _EIGSH_TOL, a Gaussian start vector of the fixed seed
    _EIGSH_START_SEED), or from a dense `eigh` below _DENSE_BELOW linked
    users. With m >= k the zero eigenspace alone has k or more
    dimensions: the zero modes of the k largest components (ties to the
    smallest user id) are the embedding, and the users of smaller
    components are left out.
    """
    cached = g._embeddings.get(k)
    if cached is not None:
        return cached
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, laplacian
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    deg = g.degrees()
    linked = np.flatnonzero(deg)
    size = linked.size
    adjacency = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    _, first, component, sizes = np.unique(
        connected_components(adjacency, directed=False)[1][linked],
        return_index=True, return_inverse=True, return_counts=True)
    # number the components largest first, ties to the one holding the smallest user
    rank = np.empty_like(sizes)
    rank[np.lexsort((first, -sizes))] = np.arange(sizes.size)
    component = rank[component]
    m = sizes.size
    sqrt_deg = np.sqrt(deg[linked])
    zero = np.zeros((size, m))
    zero[np.arange(size), component] = sqrt_deg
    zero /= np.linalg.norm(zero, axis=0)
    if m >= k:
        keep = component < k
        cached = g._embeddings[k] = linked[keep], zero[keep, :k]
        return cached
    # tocsr: laplacian returns COO for a CSR input
    lap = laplacian(adjacency, normed=True).tocsr()[linked][:, linked]
    shifted = _ZERO_MODE_SHIFT * zero

    def deflated(x):
        return lap @ x + zero @ (shifted.T @ x)

    vecs = None
    if size >= _DENSE_BELOW and k - m < size - 1:
        v0 = np.random.default_rng(_EIGSH_START_SEED).standard_normal(size)
        try:
            _, vecs = eigsh(LinearOperator((size, size), matvec=deflated, dtype=float),
                            k=k - m, which="SA", v0=v0, tol=_EIGSH_TOL)
        except (ArpackError, ArpackNoConvergence):
            vecs = None
    if vecs is None:
        vecs = np.linalg.eigh(deflated(np.eye(size)))[1][:, :k - m]
    cached = g._embeddings[k] = linked, np.hstack([zero, vecs])
    return cached


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster labels in [0, k) of the rows of points: k-means++ seeding
    (Arthur & Vassilvitskii, SODA 2007), then _KMEANS_ITERATIONS Lloyd
    iterations; a cluster left empty keeps its centre.

    The first centre is a uniform pick (`rng.integers`); each next one is
    drawn with probability proportional to the squared distance to the
    nearest centre so far (one `rng.random()`), and once every point sits
    on a centre the remaining centres repeat the first. Each assignment is
    one matmul: the nearest centre minimizes |c|^2 - 2 x.c."""
    n = points.shape[0]
    centres = np.repeat(points[[rng.integers(n)]], k, axis=0)
    dist2 = ((points - centres[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        cum = np.cumsum(dist2)
        if cum[-1] <= 0.0:
            break
        pick = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), n - 1)
        centres[i] = points[pick]
        dist2 = np.minimum(dist2, ((points - centres[i]) ** 2).sum(axis=1))
    clusters = np.arange(k)
    for _ in range(_KMEANS_ITERATIONS):
        labels = np.argmin((centres**2).sum(axis=1) - 2.0 * (points @ centres.T), axis=1)
        members = (labels[:, None] == clusters).astype(float)
        counts = members.sum(axis=0)
        filled = counts > 0
        centres[filled] = (members.T @ points)[filled] / counts[filled, None]
    return labels


def spectral_communities(
    g: Graph, k: int, rng_seed: int | np.random.Generator
) -> np.ndarray:
    """k communities of g's users: labels in [0, k), deterministic for a
    fixed seed.

    Clusters g's spectral embedding (`_spectral_embedding`, solved once
    per view and k), its rows normalized to unit length, with seeded
    k-means (`_kmeans`). Users the embedding leaves out, isolated users
    and those of components beyond the k largest, take the label of the
    largest community found (the lowest such label on ties), or 0 when
    no user is embedded. Loads scipy's csgraph and ARPACK modules on the
    first solve, so only C-STORM pays for them.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"community count k={k} out of range [1, {g.n}]")
    labels = np.zeros(g.n, dtype=np.int64)
    if k == 1:
        return labels
    users, vectors = _spectral_embedding(g, k)
    if users.size:
        points = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        found = _kmeans(points, k, np.random.default_rng(rng_seed))
        labels[:] = np.argmax(np.bincount(found, minlength=k))
        labels[users] = found
    return labels


def load_edge_list(source: str | Path | IO) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Lines hold two integer ids, numbered from 1; '%' and '#' start
    comment lines. Input whose first line is a `%%MatrixMarket` banner
    is read as Matrix Market: its first non-comment line gives the
    dimensions. Ids become 0-indexed; self-loops and duplicate edges are
    dropped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_edge_list(fh)
    raw = source.read()
    text = raw.decode() if isinstance(raw, bytes) else raw

    matrix_market = text.startswith("%%MatrixMarket")
    edges: list[tuple[int, int]] = []
    declared_n: int | None = None
    max_id = -1

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("%", "#")):
            continue
        parts = stripped.split()
        if matrix_market and declared_n is None:
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: bad matrix market dimension line")
            try:
                declared_n = max(int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad matrix market dimensions") from exc
            continue
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {stripped!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer node id in {stripped!r}") from exc
        a -= 1
        b -= 1
        if a < 0 or b < 0:
            raise ValueError(f"line {lineno}: node ids start at 1, got {stripped!r}")
        if declared_n is not None and (a >= declared_n or b >= declared_n):
            raise ValueError(f"line {lineno}: node id exceeds declared size {declared_n}")
        max_id = max(max_id, a, b)
        edges.append((a, b))

    if declared_n is not None:
        n = declared_n
    elif max_id >= 0:
        n = max_id + 1
    else:
        raise ValueError("empty edge-list stream")
    return Graph(n, edges)

