"""Tests for the doubling-metric extension (paper Section 4 future work)."""

import math

import pytest

from repro.extensions.doubling_metric import (
    build_metric_spanner,
    build_metric_ubg,
    lp_metric,
)
from repro.exceptions import GraphError
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import measure_stretch


@pytest.fixture(scope="module")
def coords():
    return uniform_points(60, seed=91, expected_degree=8.0).coords


class TestLpMetric:
    def test_l1(self, coords):
        dist = lp_metric(coords, 1.0)
        expected = abs(coords[0] - coords[1]).sum()
        assert dist(0, 1) == pytest.approx(float(expected))

    def test_linf(self, coords):
        dist = lp_metric(coords, float("inf"))
        expected = abs(coords[0] - coords[1]).max()
        assert dist(0, 1) == pytest.approx(float(expected))

    def test_l2_matches_euclidean(self, coords):
        import numpy as np

        dist = lp_metric(coords, 2.0)
        expected = float(np.linalg.norm(coords[0] - coords[1]))
        assert dist(0, 1) == pytest.approx(expected)

    def test_metric_axioms(self, coords):
        for p in (1.0, 2.0, float("inf")):
            dist = lp_metric(coords, p)
            for u, v, w in ((0, 1, 2), (3, 4, 5)):
                assert dist(u, u) == 0.0
                assert dist(u, v) == pytest.approx(dist(v, u))
                assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-9

    def test_rejects_bad_p(self, coords):
        with pytest.raises(GraphError):
            lp_metric(coords, 0.5)

    def test_rejects_1d_coords(self):
        with pytest.raises(GraphError):
            lp_metric([1.0, 2.0], 1.0)


class TestBuildMetricUbg:
    def test_threshold_semantics(self, coords):
        dist = lp_metric(coords, 1.0)
        graph = build_metric_ubg(len(coords), dist)
        for u in range(len(coords)):
            for v in range(u + 1, len(coords)):
                assert graph.has_edge(u, v) == (dist(u, v) <= 1.0)

    def test_gray_zone_policy(self, coords):
        dist = lp_metric(coords, 1.0)
        drop = build_metric_ubg(
            len(coords), dist, alpha=0.5,
            decide_gray=lambda u, v, d: False,
        )
        keep = build_metric_ubg(len(coords), dist, alpha=0.5)
        assert drop.num_edges <= keep.num_edges
        for u, v, w in drop.edges():
            assert w <= 0.5

    def test_rejects_bad_alpha(self, coords):
        with pytest.raises(GraphError):
            build_metric_ubg(3, lp_metric(coords, 1.0), alpha=0.0)

    def test_rejects_coincident_points(self):
        coords = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(GraphError):
            build_metric_ubg(2, lp_metric(coords, 1.0))


class TestBuildMetricSpanner:
    @pytest.mark.parametrize("p", [1.0, float("inf")])
    def test_stretch_certified_for_any_metric(self, coords, p):
        dist = lp_metric(coords, p)
        graph = build_metric_ubg(len(coords), dist)
        result = build_metric_spanner(graph, dist, 0.5)
        stretch = measure_stretch(graph, result.spanner).max_stretch
        assert stretch <= 1.5 * (1.0 + 1e-9)

    def test_degree_band_on_doubling_metric(self, coords):
        dist = lp_metric(coords, 1.0)
        graph = build_metric_ubg(len(coords), dist)
        result = build_metric_spanner(graph, dist, 0.5)
        assert result.spanner.max_degree() <= 14

    def test_sparser_than_input(self, coords):
        dist = lp_metric(coords, float("inf"))
        graph = build_metric_ubg(len(coords), dist)
        result = build_metric_spanner(graph, dist, 1.0)
        assert result.spanner.num_edges <= graph.num_edges


class TestAblationFlags:
    """The core builder's switches behave as documented."""

    def test_filter_off_still_spanner(self, medium_udg, medium_points, params_half):
        from repro.core.relaxed_greedy import RelaxedGreedySpanner

        builder = RelaxedGreedySpanner(params_half, use_covered_filter=False)
        result = builder.build(medium_udg, medium_points.distance)
        stretch = measure_stretch(medium_udg, result.spanner).max_stretch
        assert stretch <= params_half.t * (1 + 1e-9)

    def test_filter_off_reports_no_covered(self, small_udg, small_points, params_half):
        from repro.core.relaxed_greedy import RelaxedGreedySpanner

        builder = RelaxedGreedySpanner(params_half, use_covered_filter=False)
        result = builder.build(small_udg, small_points.distance)
        assert all(p.num_covered == 0 for p in result.phases)

    def test_removal_off_still_spanner(self, medium_udg, medium_points, params_half):
        from repro.core.relaxed_greedy import RelaxedGreedySpanner

        builder = RelaxedGreedySpanner(
            params_half, use_redundancy_removal=False
        )
        result = builder.build(medium_udg, medium_points.distance)
        stretch = measure_stretch(medium_udg, result.spanner).max_stretch
        assert stretch <= params_half.t * (1 + 1e-9)
        assert sum(p.num_removed for p in result.phases) == 0

    def test_removal_off_at_least_as_heavy(
        self, medium_udg, medium_points, params_half
    ):
        from repro.core.relaxed_greedy import RelaxedGreedySpanner

        on = RelaxedGreedySpanner(params_half).build(
            medium_udg, medium_points.distance
        )
        off = RelaxedGreedySpanner(
            params_half, use_redundancy_removal=False
        ).build(medium_udg, medium_points.distance)
        assert (
            off.spanner.total_weight() >= on.spanner.total_weight() - 1e-9
        )
