"""Tests for UDG / alpha-UBG builders and gray-zone policies."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.geometry.metrics import EnergyMetric
from repro.geometry.points import PointSet
from repro.graphs.build import (
    BernoulliPolicy,
    DecayPolicy,
    DropAllPolicy,
    KeepAllPolicy,
    ObstaclePolicy,
    build_qubg,
    build_udg,
)


@pytest.fixture()
def line_points():
    return PointSet([[0.0, 0.0], [0.4, 0.0], [1.1, 0.0], [1.5, 0.0]])


class TestBuildUdg:
    def test_edges_by_radius(self, line_points):
        g = build_udg(line_points)
        assert g.has_edge(0, 1)  # 0.4
        assert g.has_edge(1, 2)  # 0.7
        assert not g.has_edge(0, 2)  # 1.1
        assert g.has_edge(2, 3)  # 0.4

    def test_weights_are_distances(self, line_points):
        g = build_udg(line_points)
        assert g.weight(0, 1) == pytest.approx(0.4)

    def test_custom_radius(self, line_points):
        g = build_udg(line_points, radius=0.5)
        assert g.has_edge(0, 1) and not g.has_edge(1, 2)

    def test_rejects_bad_radius(self, line_points):
        with pytest.raises(GraphError):
            build_udg(line_points, radius=0.0)

    def test_energy_metric_weights(self, line_points):
        g = build_udg(line_points, metric=EnergyMetric(gamma=2.0))
        assert g.weight(0, 1) == pytest.approx(0.16)

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(11)
        ps = PointSet(rng.uniform(0, 4, size=(50, 2)))
        g = build_udg(ps)
        for u in range(50):
            for v in range(u + 1, 50):
                assert g.has_edge(u, v) == (ps.distance(u, v) <= 1.0)


class TestBuildQubg:
    def test_alpha_one_equals_udg(self, line_points):
        assert build_qubg(line_points, 1.0) == build_udg(line_points)

    def test_keepall_keeps_gray_zone(self, line_points):
        g = build_qubg(line_points, 0.5, policy=KeepAllPolicy())
        assert g.has_edge(1, 2)  # 0.7 in gray zone

    def test_dropall_drops_gray_zone(self, line_points):
        g = build_qubg(line_points, 0.5, policy=DropAllPolicy())
        assert not g.has_edge(1, 2)
        assert g.has_edge(0, 1)  # 0.4 <= alpha always kept

    def test_never_connects_beyond_one(self, line_points):
        g = build_qubg(line_points, 0.5)
        assert not g.has_edge(0, 2)  # distance 1.1 > 1

    def test_rejects_bad_alpha(self, line_points):
        with pytest.raises(GraphError):
            build_qubg(line_points, 0.0)
        with pytest.raises(GraphError):
            build_qubg(line_points, 1.2)

    def test_alpha_ubg_definition_holds_for_every_policy(self):
        """Defining property: d <= alpha => edge; d > 1 => no edge."""
        rng = np.random.default_rng(2)
        ps = PointSet(rng.uniform(0, 3, size=(40, 2)))
        alpha = 0.6
        for policy in (
            KeepAllPolicy(),
            DropAllPolicy(),
            BernoulliPolicy(0.5, seed=1),
            DecayPolicy(alpha, seed=1),
        ):
            g = build_qubg(ps, alpha, policy=policy)
            for u in range(40):
                for v in range(u + 1, 40):
                    d = ps.distance(u, v)
                    if d <= alpha:
                        assert g.has_edge(u, v)
                    elif d > 1.0:
                        assert not g.has_edge(u, v)


class TestPolicies:
    def test_bernoulli_deterministic(self):
        ps = PointSet([[0.0, 0.0], [0.8, 0.0]])
        p = BernoulliPolicy(0.5, seed=3)
        assert p.decide(ps, 0, 1, 0.8) == p.decide(ps, 1, 0, 0.8)

    def test_bernoulli_extremes(self):
        ps = PointSet([[0.0, 0.0], [0.8, 0.0]])
        assert BernoulliPolicy(1.0).decide(ps, 0, 1, 0.8)
        assert not BernoulliPolicy(0.0).decide(ps, 0, 1, 0.8)

    def test_bernoulli_rejects_bad_p(self):
        with pytest.raises(GraphError):
            BernoulliPolicy(1.5)

    def test_decay_keeps_near_alpha_drops_near_one(self):
        ps = PointSet([[0.0, 0.0], [0.55, 0.0], [0.999, 0.0]])
        policy = DecayPolicy(0.5, k=2.0, seed=0)
        keep_votes = sum(
            DecayPolicy(0.5, k=2.0, seed=s).decide(ps, 0, 1, 0.55)
            for s in range(30)
        )
        drop_votes = sum(
            DecayPolicy(0.5, k=2.0, seed=s).decide(ps, 0, 2, 0.999)
            for s in range(30)
        )
        assert keep_votes >= 22  # ~ (0.45/0.5)^2 = 0.81 keep probability
        assert drop_votes <= 2
        assert policy.decide(ps, 0, 1, 0.55) in (True, False)

    def test_decay_rejects_alpha_one(self):
        with pytest.raises(GraphError):
            DecayPolicy(1.0)

    def test_obstacle_blocks_crossing_link(self):
        ps = PointSet([[0.0, 0.0], [0.9, 0.0], [0.45, 0.4]])
        policy = ObstaclePolicy(obstacles=(((0.45, 0.0), 0.1),))
        g = build_qubg(ps, 0.3, policy=policy)
        assert not g.has_edge(0, 1)  # crosses the obstacle
        assert g.has_edge(0, 2) or ps.distance(0, 2) > 1.0

    def test_obstacle_never_blocks_short_links(self):
        ps = PointSet([[0.0, 0.0], [0.2, 0.0]])
        policy = ObstaclePolicy(obstacles=(((0.1, 0.0), 0.05),))
        g = build_qubg(ps, 0.3, policy=policy)
        assert g.has_edge(0, 1)  # d <= alpha: kept by definition

    def test_zero_distance_pair_rejected(self):
        ps = PointSet([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GraphError):
            build_udg(ps)

    def test_coincident_pair_named(self):
        ps = PointSet([[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        for build in (build_udg, lambda p: build_qubg(p, 0.5)):
            with pytest.raises(
                GraphError, match=r"points 1 and 2 coincide at \(0\.5, 0\.5\)"
            ):
                build(ps)
