"""Incremental edge store tests: mutation bursts vs from-scratch rebuilds.

The append-log store must be observationally identical to a graph
rebuilt from scratch after every burst -- same ``edges_arrays`` edge
multiset, same dense ``csr()`` matrix, bit-identical path-kernel
distances -- while previously handed-out snapshots stay frozen
(copy-on-write).
"""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs.paths import multi_source_ball_lists, multi_source_distances


def rebuild_reference(g: Graph) -> Graph:
    """A graph with identical edges built edge-by-edge from scratch."""
    out = Graph(g.num_vertices)
    for u, v, w in g.edges():
        out.add_edge(u, v, w)
    return out


def assert_snapshots_match(g: Graph) -> None:
    ref = rebuild_reference(g)
    us, vs, ws = g.edges_arrays()
    assert sorted(zip(us.tolist(), vs.tolist(), ws.tolist())) == sorted(
        g.edges()
    )
    assert us.shape[0] == g.num_edges
    a, b = g.csr(), ref.csr()
    assert a.shape == b.shape
    assert (abs(a - b)).nnz == 0
    # Adjacency arrays stay ascending-per-row and aligned with csr.
    indptr, indices, weights = g.adjacency_arrays()
    assert indptr[-1] == 2 * g.num_edges
    for u in range(min(g.num_vertices, 20)):
        row = indices[indptr[u] : indptr[u + 1]].tolist()
        assert row == sorted(g.neighbors(u))
        for v, w in zip(row, weights[indptr[u] : indptr[u + 1]].tolist()):
            assert w == g.weight(u, v)


def random_mutation_burst(g: Graph, rng, adds=30, deletes=8):
    for _ in range(adds):
        a, b = int(rng.integers(g.num_vertices)), int(
            rng.integers(g.num_vertices)
        )
        if a != b:
            g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
    edges = list(g.edges())
    rng.shuffle(edges)
    for u, v, _ in edges[:deletes]:
        g.remove_edge(u, v)


class TestMutationBursts:
    def test_append_burst_matches_rebuild(self):
        rng = np.random.default_rng(0)
        g = Graph(60)
        for burst in range(5):
            g.csr()  # warm the caches between bursts
            for _ in range(40):
                a, b = int(rng.integers(60)), int(rng.integers(60))
                if a != b:
                    g.add_edge(a, b, float(rng.uniform(0.1, 2.0)))
            assert_snapshots_match(g)

    def test_delete_burst_matches_rebuild(self):
        rng = np.random.default_rng(1)
        g = Graph(40)
        for _ in range(200):
            a, b = int(rng.integers(40)), int(rng.integers(40))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 2.0)))
        g.csr()
        edges = list(g.edges())
        rng.shuffle(edges)
        for u, v, _ in edges[: len(edges) // 2]:
            g.remove_edge(u, v)
        assert_snapshots_match(g)

    def test_interleaved_bursts_randomized(self):
        rng = np.random.default_rng(2)
        g = Graph(50)
        for step in range(400):
            a, b = int(rng.integers(50)), int(rng.integers(50))
            if a == b:
                continue
            op = rng.random()
            if op < 0.55 or not g.has_edge(a, b):
                g.add_edge(a, b, float(rng.uniform(0.1, 2.0)))  # add/overwrite
            else:
                g.remove_edge(a, b)
            if step % 57 == 0:
                g.edges_arrays()
                g.csr()
            if step % 83 == 0:
                assert_snapshots_match(g)
        assert_snapshots_match(g)

    def test_bulk_insert_burst_matches_rebuild(self):
        rng = np.random.default_rng(3)
        g = Graph(80)
        for _ in range(4):
            a = rng.integers(0, 80, 60)
            b = rng.integers(0, 80, 60)
            keep = a != b
            g.add_weighted_edges_arrays(
                a[keep], b[keep], rng.uniform(0.1, 1.0, int(keep.sum()))
            )
            g.csr()
        # Overlapping re-insert with new weights (overwrite path).
        us, vs, _ = g.edges_arrays()
        g.add_weighted_edges_arrays(
            us[:10].copy(), vs[:10].copy(), np.full(10, 9.5)
        )
        assert_snapshots_match(g)
        assert g.weight(int(us[0]), int(vs[0])) == 9.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_bursts_match_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        g = Graph(70)
        for step in range(6):
            random_mutation_burst(g, rng)
            g.csr()  # warm: later appends stale the cached matrix
            for _ in range(20):
                a, b = int(rng.integers(70)), int(rng.integers(70))
                if a != b and not g.has_edge(a, b):
                    g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
            ref = rebuild_reference(g)
            sources = rng.choice(70, size=6, replace=False)
            cutoff = float(rng.uniform(0.3, 1.5))
            got = multi_source_ball_lists(g, sources, cutoff)
            want = multi_source_ball_lists(ref, sources, cutoff)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)  # bit-for-bit
            rows_got = multi_source_distances(g, sources, cutoff=cutoff)
            rows_want = multi_source_distances(ref, sources, cutoff=cutoff)
            assert np.array_equal(rows_got, rows_want)


class TestSnapshotFreezing:
    def test_held_snapshot_survives_append(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        us, vs, ws = g.edges_arrays()
        before = (us.tolist(), vs.tolist(), ws.tolist())
        for i in range(2, 5):
            g.add_edge(0, i, float(i))
        assert (us.tolist(), vs.tolist(), ws.tolist()) == before

    def test_held_snapshot_survives_overwrite_and_delete(self):
        g = Graph(6)
        for i in range(1, 6):
            g.add_edge(0, i, float(i))
        us, vs, ws = g.edges_arrays()
        mat = g.csr()
        dense = mat.toarray().copy()
        g.add_edge(0, 1, 99.0)  # weight overwrite
        g.remove_edge(0, 5)
        assert ws.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert (us.size, vs.size) == (5, 5)
        assert np.array_equal(mat.toarray(), dense)
        # The refreshed view reflects the mutations.
        assert g.csr()[0, 1] == 99.0
        assert g.csr()[0, 5] == 0.0

    def test_snapshot_views_are_readonly(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        us, _, ws = g.edges_arrays()
        with pytest.raises(ValueError):
            us[0] = 7
        with pytest.raises(ValueError):
            ws[0] = 7.0


class TestIncrementalCsr:
    def test_append_refresh_adds_exactly_the_new_rows(self):
        g = Graph(30)
        rng = np.random.default_rng(4)
        for _ in range(80):
            a, b = int(rng.integers(30)), int(rng.integers(30))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        old = g.csr()
        m_before = g.num_edges
        added = []
        while len(added) < 5:
            a, b = int(rng.integers(30)), int(rng.integers(30))
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b, 0.5)
                added.append((a, b))
        new = g.csr()
        assert new is not old
        # The delta relative to the held (frozen) old snapshot is exactly
        # the appended rows, both directions.
        diff = (new - old).tocoo()
        assert diff.nnz == 2 * len(added)
        assert g.num_edges == m_before + len(added)
        # The rebuilt matrix keeps rows sorted (downstream kernels and the
        # batch engine rely on ascending neighbor lists).
        indptr, indices = new.indptr, new.indices
        for u in range(30):
            row = indices[indptr[u] : indptr[u + 1]].tolist()
            assert row == sorted(row)

    def test_delete_drops_the_entry(self):
        g = Graph(10)
        for i in range(1, 10):
            g.add_edge(0, i, float(i))
        g.csr()
        g.remove_edge(0, 3)
        assert g.csr()[0, 3] == 0.0
        assert g.csr().nnz == 2 * g.num_edges

    def test_delete_churn_refresh_matches_rebuild(self):
        # A delete moves the log's last row into the gap; a refresh after
        # every delete must still see exactly the surviving edges.
        g = Graph(30)
        rng = np.random.default_rng(7)
        while g.num_edges < 120:
            a, b = int(rng.integers(30)), int(rng.integers(30))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        g.csr()
        edges = list(g.edges())
        rng.shuffle(edges)
        for u, v, _ in edges[:100]:
            g.remove_edge(u, v)
            mat = g.csr()
            assert mat[u, v] == 0.0 and mat.nnz == 2 * g.num_edges
        assert g.num_edges == 20
        assert_snapshots_match(g)

    def test_add_vertices_grows_the_matrix(self):
        g = Graph(6)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 0.5)
        g.csr()
        new = g.add_vertices(3)
        assert list(new) == [6, 7, 8]
        assert g.num_vertices == 9
        g.add_edge(7, 0, 0.75)
        mat = g.csr()
        assert mat.shape == (9, 9)
        assert mat[7, 0] == 0.75 and mat[0, 7] == 0.75
        assert_snapshots_match(g)
        assert list(g.add_vertices(0)) == []
        with pytest.raises(Exception):
            g.add_vertices(-1)

    def test_cache_identity_stable_without_mutation(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        first = g.csr()
        assert g.csr() is first
        us, _, _ = g.edges_arrays()
        assert g.edges_arrays()[0] is us
