"""Tests for Dijkstra / BFS / k-hop primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.nx import to_networkx
from oracles.paths import bfs_hops, k_hop_neighborhood
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra, dijkstra_distance


def path_graph(n: int, w: float = 1.0) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, w)
    return g


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for _ in range(m):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            g.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
    return g


class TestDijkstra:
    def test_path_distances(self):
        dist = dijkstra(path_graph(5), 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_unreachable_not_reported(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        assert 2 not in dijkstra(g, 0)

    def test_cutoff_prunes(self):
        dist = dijkstra(path_graph(10), 0, cutoff=2.5)
        assert set(dist) == {0, 1, 2}

    def test_cutoff_boundary_inclusive(self):
        dist = dijkstra(path_graph(4), 0, cutoff=2.0)
        assert 2 in dist

    def test_targets_early_exit(self):
        dist = dijkstra(path_graph(100), 0, targets={3})
        assert dist[3] == 3.0
        assert len(dist) <= 5  # stopped long before vertex 99

    def test_takes_shorter_route(self):
        g = path_graph(3)  # 0-1-2 weight 1 each
        g.add_edge(0, 2, 5.0)
        assert dijkstra(g, 0)[2] == 2.0

    def test_bad_source(self):
        with pytest.raises(GraphError):
            dijkstra(path_graph(3), 9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 60), st.integers(0, 10_000))
    def test_matches_networkx(self, n, m, seed):
        """Property: distances equal networkx's Dijkstra everywhere."""
        import networkx as nx

        g = random_graph(n, m, seed)
        expected = nx.single_source_dijkstra_path_length(
            to_networkx(g), 0
        )
        assert dijkstra(g, 0) == pytest.approx(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 50), st.integers(0, 10_000),
           st.floats(0.1, 5.0))
    def test_cutoff_consistent_with_full(self, n, m, seed, cutoff):
        """Property: cutoff run == full run filtered at the cutoff."""
        g = random_graph(n, m, seed)
        full = dijkstra(g, 0)
        cut = dijkstra(g, 0, cutoff=cutoff)
        assert cut == {v: d for v, d in full.items() if d <= cutoff}


class TestDijkstraDistance:
    def test_simple(self):
        assert dijkstra_distance(path_graph(4), 0, 3) == 3.0

    def test_unreachable_inf(self):
        g = Graph(2)
        assert dijkstra_distance(g, 0, 1) == float("inf")

    def test_beyond_cutoff_inf(self):
        assert dijkstra_distance(path_graph(4), 0, 3, cutoff=2.0) == float(
            "inf"
        )


class TestBfs:
    def test_hops(self):
        g = path_graph(4, w=7.0)  # weights ignored by BFS
        assert bfs_hops(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_max_hops(self):
        assert set(bfs_hops(path_graph(10), 0, max_hops=2)) == {0, 1, 2}

    def test_k_hop_neighborhood(self):
        assert k_hop_neighborhood(path_graph(10), 5, 1) == {4, 5, 6}

    def test_k_hop_zero(self):
        assert k_hop_neighborhood(path_graph(5), 2, 0) == {2}

    def test_k_hop_rejects_negative(self):
        with pytest.raises(GraphError):
            k_hop_neighborhood(path_graph(5), 2, -1)
