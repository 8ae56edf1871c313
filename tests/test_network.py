"""Graph loading, masking, queries, and spectral communities.

Oracles: a per-node loop over each node's visible neighbors for free
degrees, for 1-to-2-hop neighborhood sizes both a plain BFS over the
visible edge set and scipy's sparse A + A² (the formula the numpy counts
replaced), for components a BFS, and for the spectral embedding dense
`eigh` of the normalized Laplacian: its k smallest eigenvectors span the
embedding's subspace (principal angles below ANGLE_BOUND). A view built
from a COO adjacency of both edge directions gives the same labels as
the view itself.
"""

from __future__ import annotations

import io
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drim import network
from drim.datasets import load_urv_email
from drim.network import (
    Graph,
    full_view,
    load_edge_list,
    mask_network,
    neighbor_sums,
    spectral_communities,
)


def make_star(leaves: int = 4):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def make_path(n: int):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def edge_set(g: Graph) -> set[tuple[int, int]]:
    return set(zip(g.edge_u.tolist(), g.edge_v.tolist()))


def bfs_within(g: Graph, src: int, d: int) -> int:
    """Distinct nodes at BFS distance 1..d from src over g's edge set."""
    adjacency = {v: [] for v in range(g.n)}
    for a, b in edge_set(g):
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = {src: 0}
    frontier = [src]
    for step in range(1, d + 1):
        nxt = []
        for v in frontier:
            for nb in adjacency[v]:
                if nb not in dist:
                    dist[nb] = step
                    nxt.append(nb)
        frontier = nxt
    return sum(1 for k in dist.values() if 1 <= k <= d)


def free_degree_loop(g: Graph, free: np.ndarray) -> list[int]:
    """Free neighbors of every node, one node at a time."""
    return [sum(1 for nb in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() if free[nb])
            for v in range(g.n)]


def sparse_within2(g: Graph) -> np.ndarray:
    """Off-diagonal nonzeros of A + A² per row, with scipy.sparse."""
    import scipy.sparse as sparse

    adj = sparse.csr_matrix(
        (np.ones(g.indices.size, dtype=bool), g.indices, g.indptr), shape=(g.n, g.n))
    reach = (adj + adj @ adj).tocsr()
    return np.diff(reach.indptr) - reach.diagonal()


def coo_view(g: Graph) -> Graph:
    """g rebuilt from a scipy COO adjacency of both edge directions, its
    entries shuffled."""
    import scipy.sparse as sparse

    eu, ev = g.edge_u, g.edge_v
    adj = sparse.coo_matrix(
        (np.ones(2 * eu.size), (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
        shape=(g.n, g.n))
    order = np.random.default_rng(0).permutation(adj.nnz)
    return Graph(g.n, np.stack([adj.row[order], adj.col[order]], axis=1))


def bfs_component_roots(g: Graph) -> list[int]:
    """The smallest user id of every user's component, by BFS from each
    user in ascending order."""
    roots = [-1] * g.n
    for start in range(g.n):
        if roots[start] >= 0:
            continue
        roots[start] = start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for nb in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
                if roots[nb] < 0:
                    roots[nb] = start
                    frontier.append(nb)
    return roots


def dense_laplacian_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of g's normalized Laplacian over all
    users (an isolated user's row is the identity's), by dense eigh."""
    adj = np.zeros((g.n, g.n))
    adj[g.edge_u, g.edge_v] = adj[g.edge_v, g.edge_u] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return np.linalg.eigh(np.eye(g.n) - inv_sqrt[:, None] * adj * inv_sqrt)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spaces of a and b."""
    cosines = np.linalg.svd(np.linalg.qr(a)[0].T @ np.linalg.qr(b)[0], compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


# Bound on the principal angles between the embedding and dense eigh's
# eigenvectors: ARPACK runs at relative tolerance 1e-8, and on the views
# tested the eigengap after the k-th eigenvalue is about 4e-3 or more, so
# the subspace error stays near 1e-7 rad (Davis-Kahan); the bound leaves
# a factor of ten.
ANGLE_BOUND = 1e-6


def embedded(g: Graph, k: int) -> np.ndarray:
    """The spectral embedding of g as an (n, k) array, zero rows for the
    users it leaves out."""
    users, vectors = network._spectral_embedding(g, k)
    out = np.zeros((g.n, vectors.shape[1]))
    out[users] = vectors
    return out


@st.composite
def raw_graphs(draw):
    """(n, raw edge list, block budget): some isolated nodes, duplicate
    edges and self-loops in the input, and a budget of at most n // 3 rows
    of n reach cells, so the counts span three row blocks or more."""
    n = draw(st.integers(6, 60))
    isolated = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n // 3))
    linked = st.sampled_from(sorted(set(range(n)) - isolated))
    edges = draw(st.lists(st.tuples(linked, linked), min_size=1, max_size=4 * n))
    edges += draw(st.lists(st.sampled_from(edges), min_size=1, max_size=5))
    edges += [(v, v) for v in draw(st.lists(linked, min_size=1, max_size=3))]
    budget = draw(st.integers(1, n * (n // 3)))
    return n, draw(st.permutations(edges)), budget


def lexsort_graph(n: int, edges) -> tuple[np.ndarray, ...]:
    """(edge_u, edge_v, indptr, indices) by the construction the 1-D keys
    replaced: (lo, hi) rows made unique with np.unique(axis=0) and the CSR
    ordered by lexsort. Raises the same ValueError for out-of-range ids."""
    raw = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    raw = raw[raw[:, 0] != raw[:, 1]]
    pairs = np.unique(np.sort(raw, axis=1), axis=0)
    bad = (pairs[:, 0] < 0) | (pairs[:, 1] >= n)
    if np.count_nonzero(bad):
        a, b = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
    edge_u = np.ascontiguousarray(pairs[:, 0])
    edge_v = np.ascontiguousarray(pairs[:, 1])
    src = np.concatenate([edge_u, edge_v])
    dst = np.concatenate([edge_v, edge_u])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return edge_u, edge_v, indptr, dst[np.lexsort((dst, src))]


@st.composite
def edge_lists(draw):
    """(n, raw edges): self-loops, duplicates and reversed pairs, the
    last node isolated when n > 1, an empty list possible, and ids out of
    [0, n) in some cases."""
    n = draw(st.integers(1, 30))
    out_of_range = draw(st.booleans())
    ids = st.integers(-3, n + 2) if out_of_range else st.integers(0, max(0, n - 2))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    if edges:
        extra = draw(st.lists(st.sampled_from(edges), max_size=5))
        edges += extra + [(b, a) for a, b in extra] + [(a, a) for a, _ in extra]
    return n, draw(st.permutations(edges))


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph(n, rng.integers(0, n, size=(m, 2)))


class TestLoadEdgeList:
    def test_plain_small(self):
        g = load_edge_list(io.BytesIO(b"1 2\n2 3\n"))
        assert g.n == 3
        assert g.num_edges == 2

    def test_self_loop_dropped(self):
        g = load_edge_list(io.BytesIO(b"1 1\n"))
        assert g.num_edges == 0
        assert g.n == 1
        # the same graph with and without a self-loop line
        plain = load_edge_list(io.BytesIO(b"1 2\n2 3\n"))
        looped = load_edge_list(io.BytesIO(b"1 2\n3 3\n2 3\n"))
        assert looped.n == plain.n == 3
        for name in ("edge_u", "edge_v", "indptr", "indices"):
            assert getattr(looped, name).tolist() == getattr(plain, name).tolist()
        assert looped.degrees().tolist() == plain.degrees().tolist()

    def test_duplicates_deduped(self):
        g = load_edge_list(io.BytesIO(b"1 2\n2 1\n1 2\n"))
        assert g.num_edges == 1

    def test_comments_skipped(self):
        g = load_edge_list(io.BytesIO(b"% header\n# note\n1 2\n"))
        assert g.num_edges == 1

    @pytest.mark.parametrize("text, line", [
        (b"1 2\n0 1\n", 2), (b"%%MatrixMarket\n3 3 2\n1 2\n0 1\n", 4),
    ], ids=["plain", "matrix-market"])
    def test_zero_id_rejected_with_line_number(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: node ids start at 1, got '0 1'"):
            load_edge_list(io.BytesIO(text))

    def test_matrix_market(self):
        mm = b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"
        g = load_edge_list(io.BytesIO(mm))
        assert g.n == 3 and g.num_edges == 2

    def test_matrix_market_size_line_is_no_edge(self):
        # Without the banner, the non-square size line "3 4 2" reads as edge (2, 3).
        mm = b"%%MatrixMarket matrix coordinate pattern general\n3 4 2\n1 2\n2 3\n"
        g = load_edge_list(io.BytesIO(mm))
        assert g.n == 4
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"1 two\n"))

    def test_single_token_line(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"7\n"))

    @pytest.mark.parametrize("size_line, message", [
        (b"3", "line 2: bad matrix market dimension line"),
        (b"3 x 2", "line 2: bad matrix market dimensions"),
    ], ids=["one-field", "non-integer"])
    def test_bad_matrix_market_size_line(self, size_line, message):
        with pytest.raises(ValueError, match=message):
            load_edge_list(io.BytesIO(b"%%MatrixMarket\n" + size_line + b"\n1 2\n"))

    def test_out_of_range_index(self):
        mm = b"%%MatrixMarket\n2 2 1\n1 5\n"
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(mm))

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"\n% nothing\n"))

    def test_urv_fixture_dimensions(self):
        g = load_urv_email()
        assert g.n == 1133
        assert g.num_edges == 5452


class TestGraphConstruction:
    @given(edge_lists(), st.booleans())
    @example((1, []), False)
    @example((1, [(0, 0)]), True)
    @example((4, []), True)
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_construction(self, case, as_array):
        n, edges = case
        given_edges = np.array(edges, dtype=np.int64) if as_array else edges
        try:
            want = lexsort_graph(n, edges)
        except ValueError as exc:
            bad = [(min(a, b), max(a, b)) for a, b in edges
                   if a != b and (min(a, b) < 0 or max(a, b) >= n)]
            assert str(exc) == f"edge {min(bad)} out of range for n={n}"
            with pytest.raises(ValueError) as got:
                Graph(n, given_edges)
            assert str(got.value) == str(exc)
            return
        g = Graph(n, given_edges)
        for got, expected in zip((g.edge_u, g.edge_v, g.indptr, g.indices), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


class TestMaskNetwork:
    def test_full_visibility(self):
        g = load_urv_email()
        ov = mask_network(g, 1.0, rng_seed=0)
        assert ov.num_edges == 5452

    def test_zero_visibility(self):
        g = load_urv_email()
        ov = mask_network(g, 0.0, rng_seed=0)
        assert ov.num_edges == 0

    def test_deterministic_for_seed(self):
        g = load_urv_email()
        a = mask_network(g, 0.5, rng_seed=42)
        b = mask_network(g, 0.5, rng_seed=42)
        assert np.array_equal(a.edge_u, b.edge_u)
        assert np.array_equal(a.edge_v, b.edge_v)

    def test_binomial_mean_visible_edges(self):
        g = load_urv_email()
        counts = [mask_network(g, 0.5, rng_seed=s).num_edges for s in range(1000)]
        mean = np.mean(counts)
        sigma = np.sqrt(5452 * 0.25)  # per-mask binomial sd
        assert abs(mean - 2726) <= 3 * sigma / np.sqrt(1000)

    def test_visible_edges_subset_of_base(self):
        g = load_urv_email()
        ov = mask_network(g, 0.3, rng_seed=5)
        assert edge_set(ov) <= edge_set(g)

    def test_rejects_bad_probability(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            mask_network(g, 1.5, rng_seed=0)


class TestQueries:
    def test_star_center_degree(self):
        assert make_star(4).degrees()[0] == 4

    def test_isolated_node_degree(self):
        g = Graph(3, [(0, 1)])
        assert g.degrees()[2] == 0

    def test_path_middle_degree(self):
        assert make_path(3).degrees()[1] == 2

    def test_invalid_index(self):
        with pytest.raises(ValueError, match=r"edge \(1, 9\) out of range for n=3"):
            Graph(3, [(0, 1), (1, 9)])

    def test_free_degree_star(self):
        ov = make_star(4)
        assert neighbor_sums(ov.edge_u, ov.edge_v, np.array([False, True, True, False, False]))[0] == 2
        assert neighbor_sums(ov.edge_u, ov.edge_v, np.zeros(5, dtype=bool))[0] == 0
        assert neighbor_sums(ov.edge_u, ov.edge_v, np.ones(5, dtype=bool))[0] == ov.degrees()[0]

    def test_free_degrees_vectorized_matches_scalar(self):
        g = load_urv_email()
        rng = np.random.default_rng(0)
        for ov in (g, mask_network(g, 0.4, rng_seed=1)):
            mask = rng.random(g.n) < 0.4
            assert neighbor_sums(ov.edge_u, ov.edge_v, mask).tolist() == free_degree_loop(ov, mask)

    def test_within_two_hops_path(self):
        assert make_path(4).within2_counts().tolist() == [2, 3, 3, 2]

    def test_within_two_hops_star_center(self):
        assert make_star(4).within2_counts().tolist() == [4, 4, 4, 4, 4]

    def test_within_two_hops_cycle_brute_force(self):
        ov = make_cycle(5)
        for v in range(5):
            assert ov.within2_counts()[v] == bfs_within(ov, v, 2) == 4

    def test_within_one_hop_equals_degree(self):
        ov = load_urv_email()
        for v in (0, 17, 500, 1132):
            assert bfs_within(ov, v, 1) == ov.degrees()[v] <= ov.within2_counts()[v]

    @pytest.mark.parametrize("p_nv", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_two_hops_random_graphs_match_bfs(self, p_nv, seed):
        g = random_graph(300, 900, seed)
        ov = mask_network(g, p_nv, rng_seed=seed)
        assert ov.within2_counts().tolist() == [bfs_within(ov, v, 2) for v in range(g.n)]

    @given(raw_graphs())
    @settings(max_examples=150, deadline=None)
    def test_within_two_hops_blocks_match_sparse_formula(self, case):
        n, edges, budget = case
        ov = Graph(n, edges)
        with mock.patch.object(network, "_WITHIN2_BLOCK_ENTRIES", budget):
            counts = ov.within2_counts()
        assert counts.tolist() == sparse_within2(ov).tolist()

    def test_within_two_hops_cached(self):
        ov = make_cycle(6)
        assert ov.within2_counts() is ov.within2_counts()
        assert ov.degrees() is ov.degrees()

    def test_full_view_is_the_graph(self):
        g = make_cycle(6)
        assert full_view(g) is g and mask_network(g, 1.0, rng_seed=3) is g
        counts = g.within2_counts()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._within2 is not None and clone._within2.tolist() == counts.tolist()
        assert clone.within2_counts() is clone._within2

    def test_queries_ignore_hidden_edges(self):
        g = Graph(3, [(0, 1), (0, 2)])
        visible = np.array([True, False])
        ov = Graph(g.n, np.stack([g.edge_u[visible], g.edge_v[visible]], axis=1))
        assert ov.degrees()[0] == 1
        assert ov.within2_counts()[1] == 1
        assert neighbor_sums(ov.edge_u, ov.edge_v, np.array([False, True, True]))[0] == 1


class TestSpectralCommunities:
    def test_disjoint_triangles_separate(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        labels = spectral_communities(g, 2, rng_seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_single_community(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        labels = spectral_communities(g, 1, rng_seed=0)
        assert np.all(labels == 0)

    def test_two_cliques_with_bridge(self):
        edges = []
        for base in (0, 10):
            for i in range(10):
                for j in range(i + 1, 10):
                    edges.append((base + i, base + j))
        edges.append((0, 10))
        g = Graph(20, edges)
        labels = spectral_communities(g, 2, rng_seed=1)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]
        # modularity of the found 2-cut must match the planted partition's
        assert _modularity(g, labels) == pytest.approx(_modularity(g, np.array([0] * 10 + [1] * 10)))

    def test_labels_cover_range(self):
        g = load_urv_email()
        labels = spectral_communities(g, 8, rng_seed=3)
        assert labels.shape == (1133,)
        assert labels.min() >= 0 and labels.max() < 8

    def test_k_out_of_range(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            spectral_communities(g, 0, rng_seed=0)
        with pytest.raises(ValueError):
            spectral_communities(g, 4, rng_seed=0)

    def test_deterministic(self):
        g = load_urv_email()
        a = spectral_communities(g, 4, rng_seed=9)
        b = spectral_communities(g, 4, rng_seed=9)
        assert np.array_equal(a, b)


    @pytest.mark.parametrize("mask_seed", [0, 1, 2])
    def test_matches_coo_adjacency_reference(self, mask_seed):
        g = load_urv_email()
        view = mask_network(g, 0.6, np.random.default_rng(mask_seed))
        for k, seed in ((8, mask_seed), (3, 100 + mask_seed)):
            got = spectral_communities(view, k, rng_seed=seed)
            assert np.array_equal(got, spectral_communities(coo_view(view), k, seed))
        small = make_cycle(12)
        assert np.array_equal(spectral_communities(small, 3, rng_seed=mask_seed),
                              spectral_communities(coo_view(small), 3, mask_seed))

    @pytest.mark.parametrize("mask_seed", [0, 1, 2])
    def test_embedding_spans_dense_smallest_eigenvectors(self, mask_seed):
        # these views have 2, 3 and 3 components of two or more users, so
        # the zero eigenvalue repeats, and 37-46 isolated users
        k = 8
        view = mask_network(load_urv_email(), 0.6, np.random.default_rng(mask_seed))
        values, vectors = dense_laplacian_spectrum(view)
        assert values[k] - values[k - 1] > 1e-3  # the k-dim eigenspace is well defined
        roots = np.array(bfs_component_roots(view))
        linked = view.degrees() > 0
        assert np.unique(roots[linked]).size == np.count_nonzero(values < 1e-9) >= 2
        got = embedded(view, k)
        assert np.allclose(got.T @ got, np.eye(k), atol=1e-9)
        assert principal_angles(got, vectors[:, :k]).max() < ANGLE_BOUND

    def test_dense_fallback_when_arpack_does_not_converge(self):
        from scipy.sparse import linalg
        from scipy.sparse.linalg import ArpackNoConvergence

        def no_convergence(*args, **kwargs):
            calls.append(kwargs["k"])
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        calls = []
        k = 8
        view = mask_network(load_urv_email(), 0.6, np.random.default_rng(0))
        with mock.patch.object(linalg, "eigsh", no_convergence):
            got = embedded(view, k)
        assert calls == [k - 2]  # the view's 2 components give 2 zero modes in closed form
        values, vectors = dense_laplacian_spectrum(view)
        assert np.allclose(got.T @ got, np.eye(k), atol=1e-9)
        assert principal_angles(got, vectors[:, :k]).max() < ANGLE_BOUND

    def test_at_least_k_components_embed_the_k_largest(self):
        sizes = (5, 4, 3, 3, 2)
        edges, base = [], 0
        for size in sizes:
            edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
            base += size
        g = Graph(base + 2, edges)  # users 17 and 18 are isolated
        clique = np.append(np.repeat(np.arange(len(sizes)), sizes), [-1, -1])
        for k in (3, 5):
            users, vectors = network._spectral_embedding(g, k)
            # the first 3-clique wins the tie
            assert np.array_equal(users, np.flatnonzero((clique >= 0) & (clique < k)))
            assert np.allclose(vectors.T @ vectors, np.eye(k))
            labels = spectral_communities(g, k, rng_seed=k)
            kept = [labels[clique == c] for c in range(k)]
            assert all(np.all(group == group[0]) for group in kept)
            assert len({int(group[0]) for group in kept}) == k
            # everyone left out (the smaller cliques at k = 3, the isolated
            # users) joins the largest community, the 5-clique's
            left_out = np.ones(g.n, dtype=bool)
            left_out[users] = False
            assert np.all(labels[left_out] == labels[0])

    def test_isolated_users_join_the_largest_community(self):
        def cliques(a, b):
            edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
            edges += [(a + i, a + j) for i in range(b) for j in range(i + 1, b)]
            return edges + [(0, a)]

        g = Graph(13, cliques(6, 4))  # users 10, 11 and 12 have no edge
        users, _ = network._spectral_embedding(g, 2)
        assert np.array_equal(users, np.arange(10))
        labels = spectral_communities(g, 2, rng_seed=1)
        assert labels[0] != labels[6]
        assert np.all(labels[:6] == labels[0]) and np.all(labels[6:10] == labels[6])
        assert np.all(labels[10:] == labels[0])
        # between communities of one size, the lower label
        g = Graph(12, cliques(5, 5))
        for seed in range(4):
            labels = spectral_communities(g, 2, rng_seed=seed)
            assert sorted({int(labels[0]), int(labels[5])}) == [0, 1]
            assert np.all(labels[10:] == 0)

    def test_no_edges_is_one_community(self):
        assert np.array_equal(spectral_communities(Graph(5, []), 3, rng_seed=0), np.zeros(5))

    def test_one_solve_per_view_and_k(self, monkeypatch):
        import scipy.sparse.linalg as linalg

        calls = []
        solve = linalg.eigsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigsh", counted)
        view = mask_network(load_urv_email(), 0.6, np.random.default_rng(4))
        first = spectral_communities(view, 8, rng_seed=1)
        assert np.array_equal(spectral_communities(view, 8, rng_seed=1), first)
        spectral_communities(view, 8, rng_seed=2)
        assert len(calls) == 1 and set(view._embeddings) == {8}
        spectral_communities(view, 5, rng_seed=2)
        assert len(calls) == 2 and set(view._embeddings) == {5, 8}

    def test_kmeans_keeps_empty_cluster_centres(self):
        # three distinct points, five clusters: two centres repeat and stay empty
        points = np.repeat(np.eye(3), [4, 3, 2], axis=0)
        labels = network._kmeans(points, 5, np.random.default_rng(0))
        groups = [set(labels[:4].tolist()), set(labels[4:7].tolist()), set(labels[7:].tolist())]
        assert all(len(group) == 1 for group in groups)
        assert len(set.union(*groups)) == 3 and labels.max() < 5


@settings(max_examples=60, deadline=None)
@given(raw_graphs(), st.integers(2, 8))
def test_spectral_labels_on_random_graphs(case, k):
    n, edges, _ = case
    g = Graph(n, edges)
    k = min(k, n)
    labels = spectral_communities(g, k, rng_seed=0)
    assert labels.shape == (n,) and labels.min() >= 0 and labels.max() < k
    users, vectors = network._spectral_embedding(g, k)
    assert np.all(g.degrees()[users] > 0) and np.all(np.linalg.norm(vectors, axis=1) > 0)
    left_out = np.ones(n, dtype=bool)
    left_out[users] = False
    largest = np.argmax(np.bincount(labels[users], minlength=k))
    assert np.all(labels[left_out] == largest)


@settings(max_examples=60, deadline=None)
@given(raw_graphs(), st.integers(2, 8))
def test_zero_modes_cover_bfs_components(case, k):
    """The embedding's zero modes are supported exactly on the BFS
    components of two or more users, largest first with ties to the
    smallest root; isolated users are left out, and with k or more such
    components only the users of the k largest are embedded."""
    n, edges, _ = case
    g = Graph(n, edges)
    k = min(k, n)
    roots = np.array(bfs_component_roots(g))
    components, sizes = np.unique(roots, return_counts=True)
    components, sizes = components[sizes >= 2], sizes[sizes >= 2]
    kept = components[np.lexsort((components, -sizes))][:k]
    users, vectors = network._spectral_embedding(g, k)
    assert users.tolist() == np.flatnonzero(np.isin(roots, kept)).tolist()
    sqrt_deg = np.sqrt(g.degrees()[users])
    for column, root in zip(vectors.T, kept):
        member = roots[users] == root
        assert np.array_equal(column != 0, member)
        assert np.allclose(column[member], sqrt_deg[member] / np.linalg.norm(sqrt_deg[member]))


def _modularity(g: Graph, labels: np.ndarray) -> float:
    m = g.num_edges
    deg = g.degrees()
    q = 0.0
    same = labels[g.edge_u] == labels[g.edge_v]
    q += same.sum() / m
    for c in np.unique(labels):
        dc = deg[labels == c].sum()
        q -= (dc / (2 * m)) ** 2
    return q

