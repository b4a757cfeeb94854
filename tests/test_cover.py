"""Tests for cluster covers (Section 2.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import (
    ClusterCover,
    build_cluster_cover,
    cover_from_centers,
)
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra


def path_graph(n: int, w: float = 1.0) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, w)
    return g


def random_geometric(n: int, seed: int) -> Graph:
    from repro.geometry.sampling import uniform_points
    from repro.graphs.build import build_udg

    return build_udg(uniform_points(n, seed=seed, expected_degree=6.0))


def check_cover_invariants(graph: Graph, cover) -> None:
    """The three defining properties of a cluster cover."""
    # 1. Every vertex is covered and within radius of its center.
    for v in graph.vertices():
        c = cover.center_of(v)
        d = float(cover.dist[v])
        assert d <= cover.radius + 1e-12
        actual = dijkstra(graph, c, targets={v}).get(v, float("inf"))
        assert actual == pytest.approx(d)
    # 2. Centers belong to their own cluster at distance 0.
    for c in cover.centers:
        assert cover.center_of(c) == c
        assert cover.dist[c] == 0.0
    # 3. Centers are pairwise more than radius apart.
    for c in cover.centers:
        dist = dijkstra(graph, c, cutoff=cover.radius)
        for other in cover.centers:
            if other != c:
                assert other not in dist


class TestBuildClusterCover:
    def test_path_cover_radius_two(self):
        g = path_graph(10)
        cover = build_cluster_cover(g, 2.0)
        check_cover_invariants(g, cover)
        # Greedy from vertex 0: clusters at 0, 3, 6, 9 -> 4 clusters.
        assert cover.num_clusters == 4

    def test_zero_radius_singletons(self):
        g = path_graph(5)
        cover = build_cluster_cover(g, 0.0)
        assert cover.num_clusters == 5

    def test_radius_covers_everything_one_cluster(self):
        g = path_graph(5)
        cover = build_cluster_cover(g, 10.0)
        assert cover.num_clusters == 1
        check_cover_invariants(g, cover)

    def test_disconnected_graph(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        cover = build_cluster_cover(g, 5.0)
        assert cover.num_clusters == 2
        check_cover_invariants(g, cover)

    def test_rejects_negative_radius(self):
        with pytest.raises(GraphError):
            build_cluster_cover(path_graph(3), -1.0)

    def test_every_vertex_joins_a_listed_center(self):
        g = path_graph(10)
        cover = build_cluster_cover(g, 2.0)
        assert cover.center.tolist() == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9]
        assert set(cover.center.tolist()) == set(cover.centers)

    def test_custom_order_changes_centers(self):
        g = path_graph(10)
        cover = build_cluster_cover(g, 2.0, order=list(range(9, -1, -1)))
        assert cover.centers[0] == 9
        check_cover_invariants(g, cover)

    def test_order_outside_universe_rejected(self):
        g = path_graph(5)
        with pytest.raises(GraphError):
            build_cluster_cover(g, 1.0, vertices=[0, 1], order=[4])

    def test_uncovered_vertex_raises_nothing_weird(self):
        """Subset universe: vertices outside are simply not covered."""
        g = path_graph(6)
        cover = build_cluster_cover(g, 1.0, vertices=[0, 1, 2])
        assert np.flatnonzero(cover.center >= 0).tolist() == [0, 1, 2]
        with pytest.raises(GraphError):
            cover.center_of(5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(5, 40), st.floats(0.0, 3.0), st.integers(0, 1000))
    def test_invariants_on_random_geometric(self, n, radius, seed):
        """Property: cover invariants hold on arbitrary geometric graphs
        and radii."""
        g = random_geometric(n, seed)
        cover = build_cluster_cover(g, radius)
        check_cover_invariants(g, cover)


class TestArrayCover:
    """A cover is two read-only ``(n,)`` arrays; the scalar lookups
    check their vertex before reading them."""

    @pytest.mark.parametrize("v", [-1, 6, 0])
    def test_lookups_name_an_uncovered_vertex(self, v):
        # -1 and n = 6 are out of range; 0 is outside the universe.  A
        # bare center[-1] would answer for vertex 5, which is covered.
        cover = build_cluster_cover(path_graph(6), 1.0, vertices=[3, 4, 5])
        assert cover.center_of(5) == 5
        with pytest.raises(GraphError, match=f"vertex {v} is not covered"):
            cover.center_of(v)

    def test_arrays_are_read_only(self):
        center = np.array([0, 0, 2])
        dist = np.array([0.0, 0.5, 0.0])
        for cover in (
            build_cluster_cover(path_graph(6), 1.0),
            ClusterCover(1.0, (0, 2), center, dist),
        ):
            with pytest.raises(ValueError, match="read-only"):
                cover.center[1] = 2
            with pytest.raises(ValueError, match="read-only"):
                cover.dist[1] = 0.25
        assert center.flags.writeable  # the caller's array is untouched
        assert cover.center_of(1) == 0 and cover.dist[1] == 0.5


class TestCoverFromCenters:
    def test_mis_centers_cover_path(self):
        g = path_graph(7)
        # Centers 0 and 4: every vertex within 2 hops-worth (radius 2.0)?
        # vertex 2 is 2 away from 0 and 2 away from 4 -> covered.
        cover = cover_from_centers(g, 2.0, [0, 4])
        assert set(cover.centers) == {0, 4}
        for v in g.vertices():
            assert cover.dist[v] <= 2.0
        # 6 is 2 from 4 -> fine.

    def test_highest_id_preference(self):
        g = path_graph(3)
        cover = cover_from_centers(g, 5.0, [0, 2])
        # vertex 1 reachable from both; highest id (2) wins.
        assert cover.center_of(1) == 2

    def test_centers_keep_themselves(self):
        g = path_graph(5)
        cover = cover_from_centers(g, 10.0, [0, 4])
        assert cover.center_of(0) == 0 and cover.center_of(4) == 4

    def test_non_dominating_centers_rejected(self):
        g = path_graph(10)
        with pytest.raises(GraphError, match="dominate"):
            cover_from_centers(g, 1.0, [0])

    @pytest.mark.parametrize("universe", [[0, 1, 2, 7], [-1, 0, 1, 2]])
    def test_universe_out_of_range_named_like_ball_growing(self, universe):
        g = path_graph(3)
        msg = r"universe vertices must lie in \[0, 3\)"
        with pytest.raises(GraphError, match=msg):
            build_cluster_cover(g, 0.5, vertices=universe)
        with pytest.raises(GraphError, match=msg):
            cover_from_centers(g, 0.5, [0, 1, 2], vertices=universe)

    def test_center_outside_universe_rejected(self):
        g = path_graph(5)
        with pytest.raises(GraphError):
            cover_from_centers(g, 1.0, [4], vertices=[0, 1])

    def test_rejects_negative_radius(self):
        with pytest.raises(GraphError):
            cover_from_centers(path_graph(3), -0.5, [0])

    def test_mis_of_proximity_graph_always_dominates(self):
        """The distributed pipeline's contract: an MIS of the
        radius-proximity graph is always a valid center set."""

        def greedy_mis(adjacency):
            chosen = set()
            for node in sorted(adjacency):
                if not adjacency[node] & chosen:
                    chosen.add(node)
            return chosen

        for seed in range(5):
            g = random_geometric(30, seed)
            radius = 0.8
            adjacency = {u: set() for u in g.vertices()}
            for u in g.vertices():
                for v, d in dijkstra(g, u, cutoff=radius).items():
                    if v != u:
                        adjacency[u].add(v)
                        adjacency[v].add(u)
            centers = greedy_mis(adjacency)
            cover = cover_from_centers(g, radius, centers)
            for v in g.vertices():
                assert cover.dist[v] <= radius + 1e-12
