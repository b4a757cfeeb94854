"""Vectorized-vs-reference equivalence for the batch construction pipeline.

The batch builders (grid -> policy -> bulk insert, all numpy arrays) must
produce *identical* graphs -- same edge sets, bit-identical weights -- to
a brute-force ``O(n^2)`` per-pair reference that only uses the scalar
APIs (``PointSet.distance``, ``GrayZonePolicy.decide``,
``EdgeMetric.weight_of_length``, ``Graph.add_edge``).  This pins the
determinism contract: the counter-based pair hash behind the stochastic
policies evaluates identically scalar-at-a-time and array-at-once, and
the array distance/weight math matches the scalar math to the last ulp.
"""

import math

import numpy as np
import pytest

from repro.baselines.proximity import (
    gabriel_graph,
    relative_neighborhood_graph,
)
from repro.baselines.yao import theta_graph, yao_graph
from repro.geometry.metrics import EnergyMetric, EuclideanMetric
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
from repro.graphs.graph import Graph

ALPHA = 0.6


def reference_udg(points, radius, metric):
    """Brute-force scalar-API UDG builder (the seed semantics)."""
    g = Graph(len(points))
    for u in range(len(points)):
        for v in range(u + 1, len(points)):
            d = points.distance(u, v)
            if d <= radius:
                g.add_edge(u, v, metric.weight_of_length(d))
    return g


def reference_qubg(points, alpha, policy, metric):
    """Brute-force scalar-API alpha-UBG builder (the seed semantics)."""
    g = Graph(len(points))
    for u in range(len(points)):
        for v in range(u + 1, len(points)):
            d = points.distance(u, v)
            if d <= alpha or (
                d <= 1.0 and policy.decide(points, u, v, d)
            ):
                g.add_edge(u, v, metric.weight_of_length(d))
    return g


def random_instance(seed, dim, n=55):
    rng = np.random.default_rng(seed)
    points = PointSet(rng.uniform(0.0, 3.0, size=(n, dim)))
    obstacles = tuple(
        (tuple(rng.uniform(0.0, 3.0, size=dim)), 0.15) for _ in range(4)
    )
    return points, obstacles


def policies_for(seed, obstacles):
    return [
        KeepAllPolicy(),
        DropAllPolicy(),
        BernoulliPolicy(0.5, seed=seed),
        DecayPolicy(ALPHA, seed=seed),
        ObstaclePolicy(obstacles=obstacles),
    ]


class TestBuilderEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_qubg_matches_bruteforce_all_policies(self, seed, dim):
        """Property: batch build_qubg == O(n^2) scalar reference, for
        every policy -- identical edge sets and bit-identical weights
        (Graph.__eq__ compares full adjacency maps)."""
        points, obstacles = random_instance(seed, dim)
        for policy in policies_for(seed, obstacles):
            for metric in (EuclideanMetric(), EnergyMetric(gamma=2.0)):
                ref = reference_qubg(points, ALPHA, policy, metric)
                got = build_qubg(points, ALPHA, policy=policy, metric=metric)
                assert got == ref, (policy, metric)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_udg_matches_bruteforce(self, seed, dim):
        points, _ = random_instance(seed, dim)
        for radius in (0.5, 1.0):
            ref = reference_udg(points, radius, EuclideanMetric())
            got = build_udg(points, radius=radius)
            assert got == ref

    def test_qubg_alpha_one_no_policy_calls(self):
        """alpha = 1 leaves no gray zone; every policy yields the UDG."""
        points, obstacles = random_instance(9, 2)
        udg = build_udg(points)
        for policy in policies_for(9, obstacles):
            assert build_qubg(points, 1.0, policy=policy) == udg


class TestScalarBatchAgreement:
    """Regression: per-pair ``decide`` must agree with ``decide_batch``."""

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_decide_matches_decide_batch(self, seed):
        points, obstacles = random_instance(seed, 2, n=40)
        rng = np.random.default_rng(seed + 100)
        m = 200
        u = rng.integers(0, 39, size=m)
        v = (u + 1 + rng.integers(0, 38, size=m)) % 40
        dist = rng.uniform(ALPHA + 1e-6, 1.0, size=m)
        for policy in policies_for(seed, obstacles):
            batch = policy.decide_batch(points, u, v, dist)
            assert batch.dtype == bool and batch.shape == (m,)
            scalar = [
                policy.decide(points, int(a), int(b), float(d))
                for a, b, d in zip(u, v, dist)
            ]
            assert batch.tolist() == scalar, policy

    def test_decide_symmetric_in_pair_order(self):
        points, _ = random_instance(2, 2, n=10)
        policy = BernoulliPolicy(0.5, seed=3)
        for u in range(10):
            for v in range(u + 1, 10):
                assert policy.decide(points, u, v, 0.8) == policy.decide(
                    points, v, u, 0.8
                )

    def test_bernoulli_empirical_rate(self):
        """The counter-based hash behaves like a fair Bernoulli(p)."""
        points = PointSet(np.zeros((2, 2)) + [[0.0, 0.0], [0.8, 0.0]])
        u = np.zeros(20000, dtype=np.int64)
        v = np.arange(1, 20001, dtype=np.int64)
        for p in (0.25, 0.5, 0.9):
            mask = BernoulliPolicy(p, seed=11).decide_batch(
                points, u, v, np.full(20000, 0.8)
            )
            assert abs(mask.mean() - p) < 0.02

    def test_negative_and_huge_seeds_are_clean(self):
        """Seed mixing wraps mod 2^64 in Python ints -- no numpy scalar
        overflow warnings for negative or > 64-bit seeds."""
        import warnings

        points = PointSet([[0.0, 0.0], [0.8, 0.0]])
        u = np.zeros(8, dtype=np.int64)
        v = np.arange(1, 9, dtype=np.int64)
        d = np.full(8, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (-1, -(2**40), 2**63, 2**70):
                policy = BernoulliPolicy(0.5, seed=seed)
                batch = policy.decide_batch(points, u, v, d)
                assert batch.tolist() == [
                    policy.decide(points, 0, int(b), 0.8) for b in v
                ]

    def test_different_seeds_decorrelate(self):
        points = PointSet([[0.0, 0.0], [0.8, 0.0]])
        u = np.zeros(5000, dtype=np.int64)
        v = np.arange(1, 5001, dtype=np.int64)
        d = np.full(5000, 0.8)
        a = BernoulliPolicy(0.5, seed=0).decide_batch(points, u, v, d)
        b = BernoulliPolicy(0.5, seed=1).decide_batch(points, u, v, d)
        agree = (a == b).mean()
        assert 0.4 < agree < 0.6  # independent coins agree ~half the time


class TestGridArrayPath:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pairs_within_arrays_matches_bruteforce(self, seed, dim):
        from repro.geometry.grid import GridIndex

        rng = np.random.default_rng(seed)
        points = PointSet(rng.uniform(0.0, 3.0, size=(45, dim)))
        for radius, width in ((1.0, 1.0), (0.7, 0.3), (1.4, 1.0)):
            index = GridIndex(points, cell_width=width)
            u, v, dist = index.pairs_within_arrays(radius)
            got = {
                (int(a), int(b)): float(d)
                for a, b, d in zip(u, v, dist)
            }
            expected = {}
            for a in range(45):
                for b in range(a + 1, 45):
                    d = points.distance(a, b)
                    if d <= radius:
                        expected[(a, b)] = d
            assert got == expected
            # Rows are sorted lexicographically and u < v throughout.
            assert all(a < b for a, b in zip(u, v))
            assert list(zip(u.tolist(), v.tolist())) == sorted(
                zip(u.tolist(), v.tolist())
            )


class TestBaselineEquivalence:
    """The vectorized cone/proximity baselines match scalar references."""

    @pytest.fixture(scope="class")
    def deployment(self):
        rng = np.random.default_rng(17)
        points = PointSet(rng.uniform(0.0, 4.0, size=(80, 2)))
        return points, build_udg(points)

    @staticmethod
    def _cone_index(dx, dy, k):
        angle = math.atan2(dy, dx) % (2.0 * math.pi)
        return min(int(angle / (2.0 * math.pi / k)), k - 1)

    def reference_yao(self, base, points, k):
        out = Graph(base.num_vertices)
        for u in base.vertices():
            best = {}
            ux, uy = points[u]
            for v, w in base.neighbor_items(u):
                vx, vy = points[v]
                cone = self._cone_index(vx - ux, vy - uy, k)
                entry = (w, v)
                if cone not in best or entry < best[cone]:
                    best[cone] = entry
            for w, v in best.values():
                if not out.has_edge(u, v):
                    out.add_edge(u, v, w)
        return out

    def reference_theta(self, base, points, k):
        out = Graph(base.num_vertices)
        cone_angle = 2.0 * math.pi / k
        for u in base.vertices():
            best = {}
            ux, uy = points[u]
            for v, w in base.neighbor_items(u):
                vx, vy = points[v]
                dx, dy = vx - ux, vy - uy
                cone = self._cone_index(dx, dy, k)
                bisector = (cone + 0.5) * cone_angle
                projection = dx * math.cos(bisector) + dy * math.sin(
                    bisector
                )
                entry = (projection, v, w)
                if cone not in best or entry < best[cone]:
                    best[cone] = entry
            for projection, v, w in best.values():
                if not out.has_edge(u, v):
                    out.add_edge(u, v, w)
        return out

    def reference_gabriel(self, base, points):
        out = Graph(base.num_vertices)
        for u, v, w in base.edges():
            mid = (points[u] + points[v]) / 2.0
            radius_sq = w * w / 4.0
            if not any(
                z != v
                and float((points[z] - mid) @ (points[z] - mid))
                < radius_sq - 1e-15
                for z in base.neighbors(u)
            ):
                out.add_edge(u, v, w)
        return out

    def reference_rng(self, base, points):
        out = Graph(base.num_vertices)
        for u, v, w in base.edges():
            if not any(
                z != v
                and points.distance(u, z) < w
                and points.distance(v, z) < w
                for z in base.neighbors(u)
            ):
                out.add_edge(u, v, w)
        return out

    @pytest.mark.parametrize("k", [6, 8])
    def test_yao(self, deployment, k):
        points, base = deployment
        assert yao_graph(base, points, k) == self.reference_yao(
            base, points, k
        )

    @pytest.mark.parametrize("k", [6, 8])
    def test_theta(self, deployment, k):
        points, base = deployment
        assert theta_graph(base, points, k) == self.reference_theta(
            base, points, k
        )

    def test_gabriel(self, deployment):
        points, base = deployment
        assert gabriel_graph(base, points) == self.reference_gabriel(
            base, points
        )

    def test_rng(self, deployment):
        points, base = deployment
        assert relative_neighborhood_graph(
            base, points
        ) == self.reference_rng(base, points)
