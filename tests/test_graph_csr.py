"""Tests for the cached CSR matrix on Graph."""

import numpy as np
import pytest

from repro.graphs.graph import Graph


def triangle() -> Graph:
    g = Graph(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 3.0)
    return g


class TestCsrCache:
    def test_matches_dense_adjacency(self):
        g = triangle()
        dense = g.csr().toarray()
        expect = np.array(
            [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
        )
        assert np.array_equal(dense, expect)

    def test_cache_reused_until_mutation(self):
        g = triangle()
        first = g.csr()
        assert g.csr() is first

    def test_add_edge_invalidates(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        before = g.csr()
        g.add_edge(2, 3, 1.5)
        after = g.csr()
        assert after is not before
        assert after[2, 3] == 1.5

    def test_weight_overwrite_invalidates(self):
        g = triangle()
        g.csr()
        g.add_edge(0, 1, 9.0)
        assert g.csr()[0, 1] == 9.0

    def test_remove_edge_invalidates(self):
        g = triangle()
        g.csr()
        g.remove_edge(0, 2)
        assert g.csr()[0, 2] == 0.0

    def test_bulk_insert_invalidates(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.csr()
        g.add_weighted_edges_arrays(
            np.array([2, 3]), np.array([3, 4]), np.array([0.5, 0.25])
        )
        assert g.csr()[3, 4] == 0.25

    def test_copy_does_not_share_cache(self):
        g = triangle()
        g.csr()
        h = g.copy()
        h.add_edge(0, 1, 5.0)
        assert g.csr()[0, 1] == 1.0
        assert h.csr()[0, 1] == 5.0

    def test_empty_graph(self):
        g = Graph(0)
        assert g.csr().shape == (0, 0)

    def test_edgeless_graph(self):
        g = Graph(4)
        assert g.csr().nnz == 0


class TestEdgesArraysCache:
    def test_cached_and_readonly(self):
        g = triangle()
        us, vs, ws = g.edges_arrays()
        assert g.edges_arrays()[0] is us
        with pytest.raises(ValueError):
            us[0] = 99

    def test_invalidated_on_mutation(self):
        g = triangle()
        us, _, _ = g.edges_arrays()
        g.add_edge(1, 2, 7.0)  # overwrite weight
        us2, _, ws2 = g.edges_arrays()
        assert us2 is not us
        assert 7.0 in ws2.tolist()

    def test_rows_match_edges_iter_as_sets(self):
        # Rows follow insertion-log order (not edges() order); the edge
        # multiset is identical.
        g = triangle()
        us, vs, ws = g.edges_arrays()
        assert sorted(zip(us.tolist(), vs.tolist(), ws.tolist())) == sorted(
            g.edges()
        )

    def test_append_rows_land_at_log_tail(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        old_us, old_vs, old_ws = g.edges_arrays()  # snapshot views out
        g.add_edge(4, 3, 3.0)  # genuinely new row, reversed orientation
        g.add_edge(0, 4, 4.0)
        us, vs, ws = g.edges_arrays()
        # New rows appended at the tail, normalized u < v, in order.
        assert list(zip(us.tolist(), vs.tolist(), ws.tolist())) == [
            (0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0), (0, 4, 4.0),
        ]
        # The previously handed-out snapshot is untouched by the appends.
        assert list(zip(old_us.tolist(), old_vs.tolist())) == [(0, 1), (1, 2)]

    def test_overwrite_keeps_row_and_updates_weight(self):
        g = triangle()
        g.edges_arrays()
        g.add_edge(2, 0, 4.0)  # (0, 2) exists -> overwrite in place
        g.add_edge(1, 0, 1.0)  # overwrite with same weight
        us, vs, ws = g.edges_arrays()
        assert sorted(zip(us.tolist(), vs.tolist())) == [(0, 1), (0, 2), (1, 2)]
        assert g.weight(0, 2) == 4.0
