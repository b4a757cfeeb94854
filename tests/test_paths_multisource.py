"""Batched multi-source path primitives vs the dict-based references."""

import math

import numpy as np
import pytest

from repro.exceptions import GraphError, NotReachableError
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    NO_PREDECESSOR,
    bfs_hops,
    dijkstra,
    multi_source_distances,
    multi_source_trees,
    reconstruct_path_array,
    shortest_path_tree,
)


def geometric(n=60, seed=2, degree=6.0):
    return build_udg(uniform_points(n, seed=seed, expected_degree=degree))


class TestMultiSourceDistances:
    def test_matches_dijkstra_rows(self):
        g = geometric()
        sources = [0, 5, 17, 33]
        rows = multi_source_distances(g, sources)
        assert rows.shape == (4, g.num_vertices)
        for i, s in enumerate(sources):
            ref = dijkstra(g, s)
            for v in range(g.num_vertices):
                expect = ref.get(v, math.inf)
                assert rows[i, v] == pytest.approx(expect)

    def test_cutoff_matches_dict_cutoff(self):
        g = geometric()
        cutoff = 1.5
        rows = multi_source_distances(g, [3], cutoff=cutoff)
        ref = dijkstra(g, 3, cutoff=cutoff)
        for v in range(g.num_vertices):
            if v in ref:
                assert rows[0, v] == pytest.approx(ref[v])
            else:
                assert math.isinf(rows[0, v])

    def test_unweighted_matches_bfs(self):
        g = geometric()
        rows = multi_source_distances(g, [7], unweighted=True)
        hops = bfs_hops(g, 7)
        for v in range(g.num_vertices):
            expect = hops.get(v, math.inf)
            assert rows[0, v] == expect or (
                math.isinf(rows[0, v]) and v not in hops
            )

    def test_empty_sources(self):
        g = geometric(20)
        assert multi_source_distances(g, []).shape == (0, 20)

    def test_out_of_range_source(self):
        with pytest.raises(GraphError):
            multi_source_distances(Graph(3), [5])

    def test_negative_cutoff_rejected(self):
        with pytest.raises(GraphError):
            multi_source_distances(Graph(3), [0], cutoff=-1.0)


class TestMultiSourceTrees:
    def test_distances_match_reference_tree(self):
        g = geometric()
        dist, pred = multi_source_trees(g, [0, 9])
        for i, s in enumerate((0, 9)):
            ref_dist, _ = shortest_path_tree(g, s)
            for v in range(g.num_vertices):
                assert dist[i, v] == pytest.approx(
                    ref_dist.get(v, math.inf)
                )

    def test_predecessor_walk_reconstructs_shortest_path(self):
        g = geometric()
        dist, pred = multi_source_trees(g, [0])
        ref = dijkstra(g, 0)
        for target, d in ref.items():
            path = reconstruct_path_array(pred[0], 0, target)
            assert path[0] == 0 and path[-1] == target
            cost = sum(
                g.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert cost == pytest.approx(d)

    def test_unreachable_raises(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        dist, pred = multi_source_trees(g, [0])
        assert math.isinf(dist[0, 2])
        assert int(pred[0, 2]) == NO_PREDECESSOR
        with pytest.raises(NotReachableError):
            reconstruct_path_array(pred[0], 0, 2)

    def test_source_trivial_path(self):
        g = geometric(10)
        _, pred = multi_source_trees(g, [4])
        assert reconstruct_path_array(pred[0], 4, 4) == [4]


class TestAdaptiveDispatch:
    def test_unbounded_and_small_graphs_prefer_batched(self):
        from repro.graphs.paths import prefer_batched_sources

        g = geometric(60)
        assert prefer_batched_sources(g, [0, 1], None)
        assert prefer_batched_sources(g, [0, 1], 0.01)  # n < 256

    def test_tiny_balls_prefer_scalar_on_large_graphs(self):
        from repro.graphs.paths import prefer_batched_sources

        g = geometric(400, seed=5)
        assert not prefer_batched_sources(g, list(range(50)), 1e-6)
        assert prefer_batched_sources(g, list(range(50)), 1e9)

    @staticmethod
    def _graph_with_ball(n=2048, ball=170, seed=6):
        """A hub cluster of `ball` mutually-close vertices (so the probe
        ball crosses n/64) plus a sparse far-flung remainder."""
        rng = np.random.default_rng(seed)
        g = Graph(n)
        g.add_weighted_edges_arrays(
            np.zeros(ball - 1, dtype=np.int64),
            np.arange(1, ball),
            np.full(ball - 1, 0.01),
        )
        a = rng.integers(ball, n, 4 * n)
        b = rng.integers(ball, n, 4 * n)
        keep = a != b
        g.add_weighted_edges_arrays(
            a[keep], b[keep], np.full(int(keep.sum()), 10.0)
        )
        return g

    def test_tiny_ball_still_prefers_sparse(self):
        from repro.graphs.paths import prefer_batched_sources

        g = self._graph_with_ball()
        g.csr()
        # From a periphery vertex the probe ball is tiny -> sparse.
        assert not prefer_batched_sources(g, [2000, 2001], 0.5)

    def test_stale_matrix_keeps_the_choice(self):
        from repro.graphs.paths import prefer_batched_sources

        g = self._graph_with_ball()
        g.csr()
        sources = [0, 1, 2]
        cutoff = 0.5  # probe ball = the hub: > n/64 vertices
        assert prefer_batched_sources(g, sources, cutoff)
        # An append stales the cached matrix; the choice depends only on
        # the probe ball, so it does not flip.
        g.add_edge(0, g.num_vertices - 1, 0.7)
        assert prefer_batched_sources(g, sources, cutoff)
        assert not prefer_batched_sources(g, [2000, 2001], cutoff)

    def test_cover_branches_agree(self, monkeypatch):
        """cover_from_centers must build the identical cover through the
        batched and the per-center scalar branch."""
        import repro.core.cover as cover_mod
        from repro.core.cover import cover_from_centers
        from repro.graphs.components import component_labels

        g = geometric(300, seed=8, degree=7.0)
        # One center per component keeps the dominating-set invariant.
        labels = component_labels(g)
        centers = sorted(
            int(np.flatnonzero(labels == lab)[0])
            for lab in range(int(labels.max()) + 1)
        )
        radius = 1e9  # every vertex reachable from its component's center
        covers = []
        for forced in (True, False):
            monkeypatch.setattr(
                cover_mod, "prefer_batched_sources",
                lambda *a, forced=forced: forced,
            )
            covers.append(cover_from_centers(g, radius, centers))
        a, b = covers
        assert a.assignment == b.assignment
        assert a.center_distance == pytest.approx(b.center_distance)

    def test_cluster_graph_branches_agree(self, monkeypatch):
        import repro.core.cluster_graph as cg_mod
        from repro.core.cluster_graph import build_cluster_graph
        from repro.core.cover import build_cluster_cover

        g = geometric(300, seed=8, degree=7.0)
        cover = build_cluster_cover(g, 0.5)
        graphs = []
        for forced in (True, False):
            monkeypatch.setattr(
                cg_mod, "prefer_batched_sources",
                lambda *a, forced=forced: forced,
            )
            graphs.append(build_cluster_graph(g, cover, 1.0, 0.5))
        a, b = graphs
        assert a.graph == b.graph
        assert a.num_inter_edges == b.num_inter_edges
        assert a.num_intra_edges == b.num_intra_edges
