"""Integration tests for the sequential relaxed greedy algorithm.

These are the executable versions of Theorems 10, 11 and 13 plus the
robustness matrix (alpha, dimension, workloads, adversaries).
"""

import hashlib

import pytest

from repro.core.relaxed_greedy import RelaxedGreedySpanner, build_spanner
from repro.exceptions import GraphError
from repro.experiments.workloads import make_workload
from repro.geometry.points import PointSet
from repro.geometry.sampling import clustered_points, corridor_points, uniform_points
from repro.graphs.analysis import lightness, measure_stretch
from repro.graphs.build import (
    BernoulliPolicy,
    DropAllPolicy,
    build_qubg,
    build_udg,
)
from repro.graphs.graph import Graph
from repro.params import SpannerParams
from test_dist_spanner import _edge_digest


class TestTheorems:
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_theorem10_stretch(self, eps, seed):
        points = uniform_points(100, seed=seed)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, eps)
        stretch = measure_stretch(graph, result.spanner).max_stretch
        assert stretch <= (1.0 + eps) * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_theorem11_degree(self, seed):
        points = uniform_points(150, seed=seed)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert result.spanner.max_degree() <= 10

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_theorem13_lightness(self, seed):
        points = uniform_points(150, seed=seed)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert lightness(graph, result.spanner) <= 4.0

    def test_spanner_is_subgraph(self, medium_build, medium_udg):
        assert medium_build.spanner.is_subgraph_of(medium_udg)

    def test_smaller_eps_more_edges(self):
        points = uniform_points(120, seed=9)
        graph = build_udg(points)
        tight = build_spanner(graph, points.distance, 0.25)
        loose = build_spanner(graph, points.distance, 2.0)
        assert tight.spanner.num_edges >= loose.spanner.num_edges


class TestRobustness:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_alpha_ubg_keepall(self, alpha):
        points = uniform_points(100, seed=6)
        graph = build_qubg(points, alpha)
        result = build_spanner(graph, points.distance, 0.5, alpha=alpha)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9

    def test_alpha_ubg_adversaries(self):
        points = uniform_points(100, seed=7)
        for policy in (BernoulliPolicy(0.5, seed=1), DropAllPolicy()):
            graph = build_qubg(points, 0.6, policy=policy)
            result = build_spanner(graph, points.distance, 0.5, alpha=0.6)
            assert (
                measure_stretch(graph, result.spanner).max_stretch
                <= 1.5 + 1e-9
            )

    def test_three_dimensions(self):
        points = uniform_points(100, seed=8, dim=3, expected_degree=10)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5, dim=3)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9

    def test_clustered_workload(self):
        points = clustered_points(150, seed=9, cluster_std=0.3)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9

    def test_corridor_workload(self):
        points = corridor_points(120, seed=10)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9

    def test_disconnected_graph(self):
        """Two far-apart islands: spanner respects both separately."""
        a = uniform_points(40, seed=11, side=3.0)
        import numpy as np

        coords = np.vstack([a.coords, a.coords + 100.0])
        points = PointSet(coords)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9

    def test_dense_blob(self):
        """Everything within alpha of everything: phase 0 handles a lot."""
        points = uniform_points(50, seed=12, side=0.8)
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert measure_stretch(graph, result.spanner).max_stretch <= 1.5 + 1e-9
        assert result.spanner.max_degree() <= 14


class TestEdgeCases:
    def test_empty_graph(self):
        result = build_spanner(Graph(0), lambda u, v: 0.0, 0.5)
        assert result.spanner.num_vertices == 0

    def test_single_vertex(self):
        points = PointSet([[0.0, 0.0]])
        result = build_spanner(Graph(1), points.distance, 0.5)
        assert result.spanner.num_edges == 0

    def test_single_edge(self):
        points = PointSet([[0.0, 0.0], [0.5, 0.0]])
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert result.spanner.has_edge(0, 1)

    def test_edgeless_graph(self):
        points = PointSet([[0.0, 0.0], [10.0, 0.0]])
        graph = build_udg(points)
        result = build_spanner(graph, points.distance, 0.5)
        assert result.spanner.num_edges == 0

    def test_rejects_overlong_edges(self):
        g = Graph(2)
        g.add_edge(0, 1, 1.5)
        with pytest.raises(GraphError, match="length <= 1"):
            build_spanner(g, lambda u, v: 1.5, 0.5)

    def test_deterministic(self):
        points = uniform_points(80, seed=13)
        graph = build_udg(points)
        a = build_spanner(graph, points.distance, 0.5)
        b = build_spanner(graph, points.distance, 0.5)
        assert a.spanner == b.spanner


class TestResultBookkeeping:
    def test_phase_reports_ordered(self, medium_build):
        indices = [p.index for p in medium_build.phases]
        assert indices == sorted(indices)

    def test_added_minus_removed_equals_edges(self, medium_build):
        phases = medium_build.phases
        added = sum(p.num_added for p in phases)
        removed = sum(p.num_removed for p in phases)
        assert added - removed == medium_build.spanner.num_edges

    def test_bin_edges_partition_input(self, medium_build, medium_udg):
        assert (
            sum(p.num_bin_edges for p in medium_build.phases)
            == medium_udg.num_edges
        )

    def test_covered_plus_candidates_equals_bin(self, medium_build):
        for p in medium_build.phases:
            if p.index >= 1:
                assert p.num_covered + p.num_candidates == p.num_bin_edges

    def test_queries_bounded_by_candidates(self, medium_build):
        for p in medium_build.phases:
            assert p.num_queries <= max(p.num_candidates, 0)
            assert p.num_added <= p.num_queries or p.index == 0

    def test_lemma4_constant_queries_per_cluster(self, medium_build):
        """Lemma 4's measured form: max queries per cluster is small."""
        worst = max(
            (p.max_queries_per_cluster for p in medium_build.phases),
            default=0,
        )
        assert worst <= 12

    def test_executed_at_most_bins_plus_one(self, medium_build):
        assert medium_build.executed_phases <= medium_build.num_bins + 1

    def test_reusable_builder(self, params_half):
        builder = RelaxedGreedySpanner(params_half)
        for seed in (20, 21):
            points = uniform_points(60, seed=seed)
            graph = build_udg(points)
            result = builder.build(graph, points.distance)
            assert (
                measure_stretch(graph, result.spanner).max_stretch
                <= params_half.t + 1e-9
            )


class TestStaticBuildPins:
    """Static builds against recorded values (epsilon 0.5, workload seed
    as listed).  Columns: scenario, n, seed, alpha, dim, edge digest,
    edge count, repr of the total weight, and a digest of the per-phase
    ``(index, num_clusters, num_queries, num_added, num_removed)``
    tuples."""

    @pytest.mark.parametrize(
        "scenario, n, seed, alpha, dim, digest, edges, weight, phases",
        [
            ("uniform", 400, 1, 1.0, 2, "50dfcea7cb28f660", 633,
             "333.66604462908236", "5173f4cca13bc18e"),
            ("clustered", 400, 2, 1.0, 2, "df8a4a48eeba2470", 682,
             "161.18444689055005", "8d7569becf5a9dd2"),
            ("uniform", 2000, 3, 1.0, 2, "a2bb2e9030e9445c", 3119,
             "1623.068641320653", "f0113ac9834eaab3"),
            ("uniform3d", 600, 4, 1.0, 3, "4103eec6aa86e2fc", 1241,
             "800.5709784355703", "79c0ed17a8f9b5dd"),
            ("uniform", 600, 5, 0.7, 2, "ae3f3d32974ccba6", 928,
             "482.42302572112857", "4653c52a2acdb27b"),
        ],
    )
    def test_static_build_matches_recorded_values(
        self, scenario, n, seed, alpha, dim, digest, edges, weight, phases
    ):
        workload = make_workload(scenario, n, seed=seed, alpha=alpha)
        params = SpannerParams.from_epsilon(0.5, alpha=alpha, dim=dim)
        build = RelaxedGreedySpanner(params).build(
            workload.graph, workload.points.distance
        )
        rows = [
            (p.index, p.num_clusters, p.num_queries, p.num_added, p.num_removed)
            for p in build.phases
        ]
        assert _edge_digest(build.spanner) == digest
        assert build.spanner.num_edges == edges
        assert repr(build.spanner.total_weight()) == weight
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == phases
