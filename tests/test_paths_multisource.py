"""Batched multi-source path primitives vs the dict-based references."""

import math

import numpy as np
import pytest
from oracles.cluster_graph import as_graph
from oracles.paths import bfs_hops

from repro.exceptions import GraphError
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra, multi_source_distances


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

    def test_cluster_graph_branches_agree(self, monkeypatch):
        import repro.graphs.paths as paths_mod
        from repro.core.cluster_graph import build_cluster_graph
        from repro.core.cover import build_cluster_cover

        g = geometric(300, seed=8, degree=7.0)
        cover = build_cluster_cover(g, 0.5)
        graphs = []
        for forced in (True, False):
            monkeypatch.setattr(
                paths_mod, "prefer_batched_sources",
                lambda *a, forced=forced: forced,
            )
            graphs.append(build_cluster_graph(g, cover, 1.0, 0.5))
        a, b = graphs
        assert as_graph(a) == as_graph(b)
        assert a.num_inter_edges == b.num_inter_edges
        assert a.num_intra_edges == b.num_intra_edges


class TestPairDistanceEntriesTargets:
    """Repeated targets used to give branch-dependent answers: the dense
    branch filled both columns, the sparse scatter only the last one."""

    SOURCES = np.array([0, 5, 9])
    TARGETS = np.array([3, 3, 7, 0])

    @pytest.mark.parametrize("forced", [True, False])
    def test_duplicate_targets_rejected(self, forced, monkeypatch):
        import repro.graphs.paths as paths_mod
        from repro.experiments.workloads import make_workload
        from repro.graphs.paths import pair_distance_entries

        g = make_workload("uniform", 400, seed=1).graph
        monkeypatch.setattr(
            paths_mod, "prefer_batched_sources",
            lambda *a, forced=forced: forced,
        )
        with pytest.raises(GraphError, match="vertex 3 is repeated"):
            pair_distance_entries(g, self.SOURCES, self.TARGETS, cutoff=3.0)
        row, col, dist = pair_distance_entries(
            g, self.SOURCES, self.TARGETS[1:], cutoff=3.0
        )
        at = (row == 1) & (col == 0)
        assert dist[at].tolist() == [dijkstra(g, 5, cutoff=3.0)[3]]

    @pytest.mark.parametrize("forced", [True, False])
    def test_cluster_graph_entries_reject_them(self, forced, monkeypatch):
        import repro.graphs.paths as paths_mod
        from repro.core.cluster_graph import build_cluster_graph
        from repro.core.cover import build_cluster_cover
        from repro.graphs.paths import pair_distance_entries

        g = geometric(300, seed=8, degree=7.0)
        h = build_cluster_graph(g, build_cluster_cover(g, 0.05), 0.5, 0.1)
        monkeypatch.setattr(
            paths_mod, "prefer_batched_sources",
            lambda *a, forced=forced: forced,
        )
        with pytest.raises(GraphError, match="vertex 7 is repeated"):
            pair_distance_entries(
                h, np.array([1, 2]), np.array([4, 7, 9, 7]), cutoff=1.0
            )
