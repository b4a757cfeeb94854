"""Tests for connected components and MST construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.nx import to_networkx
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.mst import kruskal_mst, mst_weight


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for _ in range(m):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            g.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
    return g


class TestComponents:
    def test_empty_graph(self):
        assert connected_components(Graph(0)) == []

    def test_isolated_vertices(self):
        assert connected_components(Graph(3)) == [[0], [1], [2]]

    def test_two_components_largest_first(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(3, 4, 1.0)
        comps = connected_components(g)
        assert comps == [[0, 1, 2], [3, 4]]


class TestMst:
    def test_simple_triangle(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 3.0)
        mst = kruskal_mst(g)
        assert mst.num_edges == 2
        assert mst.total_weight() == pytest.approx(3.0)
        assert not mst.has_edge(0, 2)

    def test_forest_on_disconnected(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        assert kruskal_mst(g).num_edges == 2

    def test_mst_weight_helper(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.7)
        assert mst_weight(g) == pytest.approx(0.7)

    def test_empty(self):
        assert kruskal_mst(Graph(0)).num_edges == 0
        assert kruskal_mst(Graph(3)).num_edges == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 60), st.integers(0, 10_000))
    def test_kruskal_scipy_networkx_agree(self, n, m, seed):
        """Property: Kruskal, the scipy weight kernel and networkx agree
        on the total weight, and Kruskal and networkx on the edge count."""
        import networkx as nx

        g = random_graph(n, m, seed)
        k = kruskal_mst(g)
        assert k.total_weight() == pytest.approx(mst_weight(g))
        tree = nx.minimum_spanning_tree(to_networkx(g))
        nx_weight = sum(d["weight"] for _, _, d in tree.edges(data=True))
        assert k.total_weight() == pytest.approx(nx_weight)
        assert k.num_edges == tree.number_of_edges()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 15), st.integers(0, 40), st.integers(0, 10_000))
    def test_mst_is_acyclic_and_spanning(self, n, m, seed):
        g = random_graph(n, m, seed)
        mst = kruskal_mst(g)
        comps_g = {tuple(c) for c in connected_components(g)}
        comps_m = {tuple(c) for c in connected_components(mst)}
        assert comps_g == comps_m  # spans every component
        # acyclic: edges = n - #components
        assert mst.num_edges == n - len(comps_g)
