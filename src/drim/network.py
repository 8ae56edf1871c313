"""Graph storage, edge-list ingestion, and planning-side views.

The simulation graph is undirected and unweighted, without self-loops or
duplicate edges. There is one graph type, `Graph`, and a party plans on
a view of the network that is itself a `Graph`. When network visibility
is partial the view is edge-masked: each edge of the base graph is kept
independently with probability p_nv. At p_nv = 1 the view is the graph
itself (`full_view(g) is g`), so every episode on a graph shares its
cached degrees and 2-hop counts. Spreading always runs on the full
graph; only planning queries (degree, free degree, 2-hop neighborhoods,
communities) consult the view.

Only `spectral_communities` (C-STORM's community step) needs scipy, and
it imports scipy's sparse, ARPACK and k-means modules when called; the
rest of the module, and every drim process that never builds a C-STORM
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


class Graph:
    """Immutable undirected graph: n nodes, a sorted edge array, and CSR
    adjacency (`indices[indptr[v]:indptr[v + 1]]` are v's neighbors in
    ascending order), with its planning statistics (degrees, 2-hop
    counts) cached on first use. The simulation graph and every view a
    party plans on are Graphs; the full view is the graph itself.

    Construction sorts 1-D integer keys, not pairs: each edge (u, v) with
    u < v is the key u·n + v, so sorting and deduplicating the keys gives
    the edges in (u, v) order, and sorting src·n + dst over both
    directions gives the CSR's neighbor order."""

    __slots__ = ("n", "edge_u", "edge_v", "indptr", "indices", "_degrees", "_within2")

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
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self._degrees: np.ndarray | None = None
        self._within2: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def degrees(self) -> np.ndarray:
        """Degree of every node (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
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


def free_degrees(g: Graph, free_mask: np.ndarray) -> np.ndarray:
    """Vectorized free degree of every node given a boolean free mask."""
    out = np.zeros(g.n, dtype=np.int64)
    eu, ev = g.edge_u, g.edge_v
    np.add.at(out, eu, free_mask[ev].astype(np.int64))
    np.add.at(out, ev, free_mask[eu].astype(np.int64))
    return out


def spectral_communities(
    g: Graph, k: int, rng_seed: int | np.random.Generator
) -> np.ndarray:
    """Normalized-Laplacian spectral embedding clustered by k-means.

    Embeds every node into the k eigenvectors of L = I - D^{-1/2} A D^{-1/2}
    with the smallest eigenvalues (sparse Lanczos with a seeded start
    vector; dense fallback for small graphs), row-normalizes, and clusters
    with seeded k-means++. Labels cover [0, k); deterministic for a fixed
    seed. Imports scipy's sparse, ARPACK and k-means modules on first use,
    so only C-STORM pays for loading them.
    """
    import scipy.sparse as sparse
    from scipy.cluster.vq import kmeans2
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    if not 1 <= k <= g.n:
        raise ValueError(f"community count k={k} out of range [1, {g.n}]")
    if k == 1:
        return np.zeros(g.n, dtype=np.int64)
    rng = np.random.default_rng(rng_seed)

    n = g.n
    adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    deg = g.degrees()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    scaling = sparse.diags(inv_sqrt)
    lap = sparse.identity(n) - scaling @ adj @ scaling

    embedding: np.ndarray | None = None
    if k < n - 1 and n >= 64:
        v0 = rng.standard_normal(n)
        try:
            _, vecs = eigsh(lap, k=k, which="SA", v0=v0)
            embedding = vecs
        except (ArpackError, ArpackNoConvergence):
            embedding = None
    if embedding is None:
        _, eigvecs = np.linalg.eigh(lap.toarray())
        embedding = eigvecs[:, :k]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = embedding / np.maximum(norms, 1e-12)
    _, labels = kmeans2(embedding, k, minit="++", seed=rng)
    return labels.astype(np.int64)


def load_edge_list(source: str | Path | IO, index_base: int = 1) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Lines hold two integer ids; '%' and '#' start comment lines. Input
    whose first line is a `%%MatrixMarket` banner is read as Matrix
    Market: its first non-comment line gives the dimensions, and entries
    are 1-indexed. Inputs are normalized to 0-indexed ids; self-loops and
    duplicate edges are dropped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_edge_list(fh, index_base=index_base)
    raw = source.read()
    text = raw.decode() if isinstance(raw, bytes) else raw

    matrix_market = text.startswith("%%MatrixMarket")
    edges: list[tuple[int, int]] = []
    declared_n: int | None = None
    max_id = -1
    if matrix_market:
        index_base = 1

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
        a -= index_base
        b -= index_base
        if a < 0 or b < 0:
            raise ValueError(f"line {lineno}: node id below index base")
        if declared_n is not None and (a >= declared_n or b >= declared_n):
            raise ValueError(f"line {lineno}: node id exceeds declared size {declared_n}")
        max_id = max(max_id, a, b)
        if a == b:
            continue
        edges.append((a, b))

    if declared_n is not None:
        n = declared_n
    elif max_id >= 0:
        n = max_id + 1
    else:
        raise ValueError("empty edge-list stream")
    return Graph(n, edges)

