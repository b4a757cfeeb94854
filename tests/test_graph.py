"""Tests for the core Graph type."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def triangle() -> Graph:
    g = Graph(3)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 2.5)
    return g


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_vertices == 0 and g.num_edges == 0
        assert g.max_degree() == 0

    def test_rejects_negative_size(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_vertices_range(self):
        assert list(Graph(3).vertices()) == [0, 1, 2]


class TestEdges:
    def test_add_and_query(self):
        g = triangle()
        assert g.num_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.weight(1, 2) == 2.0

    def test_add_overwrites_weight(self):
        g = triangle()
        g.add_edge(0, 1, 9.0)
        assert g.num_edges == 3 and g.weight(0, 1) == 9.0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            triangle().add_edge(1, 1, 1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            triangle().add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            triangle().add_edge(0, 1, -2.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            triangle().add_edge(0, 7, 1.0)
        with pytest.raises(GraphError):
            triangle().has_edge(-1, 0)

    def test_weight_of_missing_edge(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.weight(0, 1)

    def test_remove(self):
        g = triangle()
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1) and g.num_edges == 2

    def test_remove_missing_raises(self):
        with pytest.raises(GraphError):
            Graph(3).remove_edge(0, 1)

    def test_edges_iteration_canonical(self):
        assert sorted(triangle().edges()) == [
            (0, 1, 1.0),
            (0, 2, 2.5),
            (1, 2, 2.0),
        ]

    def test_edge_set(self):
        assert triangle().edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_neighbors_and_degree(self):
        g = triangle()
        assert sorted(g.neighbors(0)) == [1, 2]
        assert g.degree(0) == 2
        assert dict(g.neighbor_items(1)) == {0: 1.0, 2: 2.0}


class TestDerived:
    def test_copy_independent(self):
        g = triangle()
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.has_edge(0, 1) and not h.has_edge(0, 1)

    def test_subgraph_keeps_ids(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        assert sub.num_vertices == 3
        assert sub.has_edge(0, 1) and not sub.has_edge(1, 2)

    def test_subgraph_out_of_range(self):
        with pytest.raises(GraphError):
            triangle().subgraph([0, 9])

    def test_is_subgraph_of(self):
        g = triangle()
        h = Graph(3)
        h.add_edge(0, 1, 1.0)
        assert h.is_subgraph_of(g) and not g.is_subgraph_of(h)


class TestAggregates:
    def test_total_weight(self):
        assert triangle().total_weight() == pytest.approx(5.5)

    def test_max_degree(self):
        assert triangle().max_degree() == 2

    def test_degree_sequence(self):
        assert triangle().degree_sequence() == [2, 2, 2]

    def test_max_edge_weight(self):
        assert triangle().max_edge_weight() == 2.5
        assert Graph(3).max_edge_weight() == 0.0


class TestInterop:
    def test_scipy_csr_symmetric(self):
        mat = triangle().csr()
        assert mat.shape == (3, 3)
        assert (mat != mat.T).nnz == 0

    def test_equality(self):
        assert triangle() == triangle()
        other = triangle()
        other.remove_edge(0, 1)
        assert triangle() != other

    def test_repr(self):
        assert repr(triangle()) == "Graph(n=3, m=3)"


class TestArrayApis:
    def test_edges_arrays_roundtrip(self):
        import numpy as np

        g = triangle()
        u, v, w = g.edges_arrays()
        assert sorted(zip(u.tolist(), v.tolist(), w.tolist())) == sorted(
            g.edges()
        )
        assert u.dtype == np.int64 and w.dtype == np.float64

    def test_adjacency_arrays_csr(self):
        g = triangle()
        indptr, indices, weights = g.adjacency_arrays()
        assert indptr.tolist() == [0, 2, 4, 6]
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]
        assert weights[indptr[0] : indptr[1]].tolist() == [1.0, 2.5]

    def test_bulk_insert_matches_add_edge(self):
        import numpy as np

        g = Graph(4)
        g.add_weighted_edges_arrays(
            np.array([0, 1, 2]),
            np.array([1, 2, 3]),
            np.array([1.0, 2.0, 3.0]),
        )
        ref = Graph(4)
        for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]:
            ref.add_edge(u, v, w)
        assert g == ref and g.num_edges == 3

    def test_bulk_insert_duplicate_overwrites_once(self):
        import numpy as np

        g = Graph(2)
        g.add_weighted_edges_arrays(
            np.array([0, 0]), np.array([1, 1]), np.array([1.0, 5.0])
        )
        assert g.num_edges == 1 and g.weight(0, 1) == 5.0

    def test_bulk_insert_empty_is_noop(self):
        import numpy as np

        g = Graph(3)
        g.add_weighted_edges_arrays(
            np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
        )
        assert g.num_edges == 0

    def test_bulk_insert_validation(self):
        import numpy as np

        g = Graph(3)
        with pytest.raises(GraphError):  # out of range
            g.add_weighted_edges_arrays(
                np.array([0]), np.array([3]), np.array([1.0])
            )
        with pytest.raises(GraphError):  # self-loop
            g.add_weighted_edges_arrays(
                np.array([1]), np.array([1]), np.array([1.0])
            )
        with pytest.raises(GraphError):  # non-positive weight
            g.add_weighted_edges_arrays(
                np.array([0]), np.array([1]), np.array([0.0])
            )
        with pytest.raises(GraphError):  # NaN weight
            g.add_weighted_edges_arrays(
                np.array([0]), np.array([1]), np.array([float("nan")])
            )
        with pytest.raises(GraphError):  # misaligned shapes
            g.add_weighted_edges_arrays(
                np.array([0, 1]), np.array([1]), np.array([1.0])
            )
        assert g.num_edges == 0  # every failed batch left it untouched
