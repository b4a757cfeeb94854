"""Tests for the covered-edge predicate (Czumaj--Zhao filtering)."""

import math

import pytest
from oracles.covered import is_covered
from oracles.edges import batch

from repro.core.covered import split_covered
from repro.exceptions import GraphError
from repro.geometry.points import PointSet
from repro.graphs.graph import Graph
from repro.params import SpannerParams


@pytest.fixture()
def params():
    return SpannerParams.from_epsilon(0.5)


def witness_setup(theta: float, radius: float, alpha: float = 1.0):
    """u at origin, v at distance 1, z inside the theta-cone at
    ``radius`` from u; spanner edge {u, z} present."""
    z = (radius * math.cos(theta), radius * math.sin(theta))
    points = PointSet([[0.0, 0.0], [1.0, 0.0], list(z)])
    spanner = Graph(3)
    spanner.add_edge(0, 2, radius)
    return points, spanner


class TestIsCovered:
    def test_witness_in_cone_covers(self, params):
        points, spanner = witness_setup(params.theta * 0.5, 0.3)
        assert is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_witness_outside_cone_does_not_cover(self, params):
        points, spanner = witness_setup(params.theta * 3.0, 0.3)
        assert not is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_symmetric_orientation(self, params):
        """Witness adjacent to v (not u) also covers."""
        theta = params.theta * 0.5
        z = (1.0 - 0.3 * math.cos(theta), 0.3 * math.sin(theta))
        points = PointSet([[0.0, 0.0], [1.0, 0.0], list(z)])
        spanner = Graph(3)
        spanner.add_edge(1, 2, 0.3)
        assert is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_long_witness_rejected(self, params):
        """|uz| > |uv| violates Lemma 3's precondition: no cover."""
        points, spanner = witness_setup(params.theta * 0.5, 1.4)
        assert not is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_vz_beyond_alpha_rejected(self, params):
        """|vz| > alpha means {v,z} may not exist: no cover."""
        points, spanner = witness_setup(params.theta * 0.5, 0.3)
        assert not is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=0.5, theta=params.theta,  # |vz| ~ 0.71 > 0.5
        )

    def test_no_witness_no_cover(self, params):
        points = PointSet([[0.0, 0.0], [1.0, 0.0]])
        assert not is_covered(
            0, 1, 1.0, Graph(2), points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_other_endpoint_not_a_witness(self, params):
        """The edge's own endpoint must not count as a witness."""
        points = PointSet([[0.0, 0.0], [1.0, 0.0]])
        spanner = Graph(2)
        spanner.add_edge(0, 1, 1.0)
        assert not is_covered(
            0, 1, 1.0, spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )

    def test_rejects_nonpositive_length(self, params):
        points, spanner = witness_setup(0.01, 0.3)
        with pytest.raises(GraphError):
            is_covered(0, 1, 0.0, spanner, points.distance,
                       alpha=1.0, theta=params.theta)

    def test_covered_edge_has_t_path_through_witness(self, params):
        """The semantic content of Lemma 3: the witness route is short."""
        t, theta = params.t, params.theta
        points, spanner = witness_setup(theta, 0.3)
        uz = points.distance(0, 2)
        zv = points.distance(2, 1)
        assert uz + t * zv <= t * 1.0 + 1e-12


class TestSplitCovered:
    def test_partition(self, params):
        points, spanner = witness_setup(params.theta * 0.5, 0.3)
        edges = [(0, 1, 1.0)]
        covered = split_covered(
            batch(edges), spanner, points.distance,
            alpha=params.alpha, theta=params.theta,
        )
        assert covered.tolist() == [True]

    def test_all_candidates_when_spanner_empty(self, params):
        points = PointSet([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        edges = [(0, 1, 1.0), (0, 2, points.distance(0, 2))]
        covered = split_covered(
            batch(edges), Graph(3), points.distance,
            alpha=params.alpha, theta=params.theta,
        )
        assert covered.tolist() == [False, False]
