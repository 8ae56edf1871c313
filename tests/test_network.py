"""Graph loading, masking, queries, and spectral communities."""

from __future__ import annotations

import io

import numpy as np
import pytest

from drim.datasets import load_urv_email
from drim.network import (
    EdgeListFormat,
    Graph,
    degree,
    free_degree,
    free_degrees,
    full_view,
    load_edge_list,
    mask_network,
    spectral_communities,
    within_d_hops,
    write_community_csv,
)


def make_star(leaves: int = 4):
    g = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return full_view(g)


def make_path(n: int):
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    return full_view(g)


def make_cycle(n: int):
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    return full_view(g)


class TestLoadEdgeList:
    def test_plain_small(self):
        g = load_edge_list(io.BytesIO(b"1 2\n2 3\n"))
        assert g.n == 3
        assert g.num_edges == 2

    def test_self_loop_dropped(self):
        g = load_edge_list(io.BytesIO(b"1 1\n"))
        assert g.num_edges == 0
        assert g.n == 1

    def test_duplicates_deduped(self):
        g = load_edge_list(io.BytesIO(b"1 2\n2 1\n1 2\n"))
        assert g.num_edges == 1

    def test_comments_skipped(self):
        g = load_edge_list(io.BytesIO(b"% header\n# note\n1 2\n"))
        assert g.num_edges == 1

    def test_zero_indexed_flag(self):
        g = load_edge_list(io.BytesIO(b"0 1\n1 2\n"), index_base=0)
        assert g.n == 3 and g.num_edges == 2

    def test_matrix_market(self):
        mm = b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"
        g = load_edge_list(io.BytesIO(mm), fmt=EdgeListFormat.MATRIX_MARKET)
        assert g.n == 3 and g.num_edges == 2

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"1 two\n"))

    def test_single_token_line(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"7\n"))

    def test_out_of_range_index(self):
        mm = b"%%MatrixMarket\n2 2 1\n1 5\n"
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(mm), fmt=EdgeListFormat.MATRIX_MARKET)

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            load_edge_list(io.BytesIO(b"\n% nothing\n"))

    def test_urv_fixture_dimensions(self):
        g = load_urv_email()
        assert g.n == 1133
        assert g.num_edges == 5452


class TestMaskNetwork:
    def test_full_visibility(self):
        g = load_urv_email()
        ov = mask_network(g, 1.0, rng_seed=0)
        assert ov.num_visible_edges == 5452

    def test_zero_visibility(self):
        g = load_urv_email()
        ov = mask_network(g, 0.0, rng_seed=0)
        assert ov.num_visible_edges == 0

    def test_deterministic_for_seed(self):
        g = load_urv_email()
        a = mask_network(g, 0.5, rng_seed=42)
        b = mask_network(g, 0.5, rng_seed=42)
        assert np.array_equal(a.edge_u, b.edge_u)
        assert np.array_equal(a.edge_v, b.edge_v)

    def test_binomial_mean_visible_edges(self):
        g = load_urv_email()
        counts = [mask_network(g, 0.5, rng_seed=s).num_visible_edges for s in range(1000)]
        mean = np.mean(counts)
        sigma = np.sqrt(5452 * 0.25)  # per-mask binomial sd
        assert abs(mean - 2726) <= 3 * sigma / np.sqrt(1000)

    def test_visible_edges_subset_of_base(self):
        g = load_urv_email()
        ov = mask_network(g, 0.3, rng_seed=5)
        base = g.edges()
        assert ov.view.edges() <= base

    def test_rejects_bad_probability(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            mask_network(g, 1.5, rng_seed=0)


class TestQueries:
    def test_star_center_degree(self):
        assert degree(make_star(4), 0) == 4

    def test_isolated_node_degree(self):
        g = full_view(Graph(3, [(0, 1)]))
        assert degree(g, 2) == 0

    def test_path_middle_degree(self):
        assert degree(make_path(3), 1) == 2

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            degree(make_path(3), 9)

    def test_free_degree_star(self):
        ov = make_star(4)
        assert free_degree(ov, 0, {1, 2}) == 2
        assert free_degree(ov, 0, set()) == 0
        assert free_degree(ov, 0, {1, 2, 3, 4}) == degree(ov, 0)

    def test_free_degrees_vectorized_matches_scalar(self):
        g = load_urv_email()
        ov = full_view(g)
        rng = np.random.default_rng(0)
        mask = rng.random(g.n) < 0.4
        vec = free_degrees(ov, mask)
        free_set = set(np.flatnonzero(mask).tolist())
        for v in rng.choice(g.n, size=25, replace=False):
            assert vec[v] == free_degree(ov, int(v), free_set)

    def test_within_two_hops_path(self):
        assert within_d_hops(make_path(4), 0, 2) == 2

    def test_within_two_hops_star_center(self):
        assert within_d_hops(make_star(4), 0, 2) == 4

    def test_within_two_hops_cycle_brute_force(self):
        ov = make_cycle(5)
        # brute-force BFS oracle
        def bfs_within(adj, src, d):
            dist = {src: 0}
            frontier = [src]
            for step in range(1, d + 1):
                nxt = []
                for v in frontier:
                    for nb in adj[v]:
                        if nb not in dist:
                            dist[nb] = step
                            nxt.append(nb)
                frontier = nxt
            return sum(1 for v, k in dist.items() if 1 <= k <= d)

        adjacency = {v: [] for v in range(5)}
        for a, b in ov.view.edges():
            adjacency[a].append(b)
            adjacency[b].append(a)
        for v in range(5):
            assert within_d_hops(ov, v, 2) == bfs_within(adjacency, v, 2) == 4

    def test_within_one_hop_equals_degree(self):
        g = load_urv_email()
        ov = full_view(g)
        for v in (0, 17, 500, 1132):
            assert within_d_hops(ov, v, 1) == degree(ov, v)

    def test_queries_ignore_hidden_edges(self):
        g = Graph(3, [(0, 1), (0, 2)])
        visible = np.array([True, False])
        from drim.network import ObservableGraph

        ov = ObservableGraph(g, 0.5, visible)
        assert degree(ov, 0) == 1
        assert within_d_hops(ov, 1, 2) == 1
        assert free_degree(ov, 0, {1, 2}) == 1


class TestSpectralCommunities:
    def test_disjoint_triangles_separate(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        labels = spectral_communities(full_view(g), 2, rng_seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_single_community(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        labels = spectral_communities(full_view(g), 1, rng_seed=0)
        assert np.all(labels == 0)

    def test_two_cliques_with_bridge(self):
        edges = []
        for base in (0, 10):
            for i in range(10):
                for j in range(i + 1, 10):
                    edges.append((base + i, base + j))
        edges.append((0, 10))
        g = Graph(20, edges)
        labels = spectral_communities(full_view(g), 2, rng_seed=1)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]
        # modularity of the found 2-cut must match the planted partition's
        assert _modularity(g, labels) == pytest.approx(_modularity(g, np.array([0] * 10 + [1] * 10)))

    def test_labels_cover_range(self):
        g = load_urv_email()
        labels = spectral_communities(full_view(g), 8, rng_seed=3)
        assert labels.shape == (1133,)
        assert labels.min() >= 0 and labels.max() < 8

    def test_k_out_of_range(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            spectral_communities(full_view(g), 0, rng_seed=0)
        with pytest.raises(ValueError):
            spectral_communities(full_view(g), 4, rng_seed=0)

    def test_deterministic(self):
        g = load_urv_email()
        a = spectral_communities(full_view(g), 4, rng_seed=9)
        b = spectral_communities(full_view(g), 4, rng_seed=9)
        assert np.array_equal(a, b)


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


class TestCommunityCsv:
    def test_export(self, tmp_path):
        labels = np.array([0, 1, 1])
        path = tmp_path / "labels.csv"
        write_community_csv(path, labels)
        assert path.read_text() == "node_id,label\n0,0\n1,1\n2,1\n"
