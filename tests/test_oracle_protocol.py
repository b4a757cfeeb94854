"""Batched DistanceOracle protocol: scalar == pairs, bit for bit.

Every shipped oracle (PointSet Euclidean, l_p metrics, energy cost,
fault-masked) must answer its batched ``pairs`` query with exactly the
floats its scalar call produces, and the covered-edge filter must
partition identically through either path -- that is what lets the
extensions ride the flattened CSR witness scan of ``split_covered``.
"""

import numpy as np
import pytest
from oracles.covered import is_covered, split_covered_reference
from oracles.edges import batch, tuples

from repro.core.covered import split_covered
from repro.core.oracle import BoundMethodOracle, ScalarOracleAdapter, as_oracle
from repro.extensions.doubling_metric import LpMetricOracle, lp_metric
from repro.extensions.energy import build_energy_spanner, energy_cost_oracle
from repro.extensions.fault_tolerance import (
    EdgeFaultMaskedOracle,
    FaultMaskedOracle,
)
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.params import SpannerParams


def random_points(n=60, seed=3, dim=2) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, 1.0, (n, dim)))


def random_pairs(n, k=400, seed=5):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, k)
    v = rng.integers(0, n, k)
    return u.astype(np.int64), v.astype(np.int64)


def oracles_under_test(points: PointSet):
    euclid = as_oracle(points.distance)
    return {
        "euclidean": euclid,
        "lp1": lp_metric(points.coords, 1.0),
        "lp2": lp_metric(points.coords, 2.0),
        "lpinf": lp_metric(points.coords, float("inf")),
        "energy": energy_cost_oracle(points.distance, gamma=2.0, c=1.5),
        "fault": FaultMaskedOracle(points.distance, faults=(1, 7, 13)),
        "edge-fault": EdgeFaultMaskedOracle(
            points.distance, failed_edges=((2, 9), (14, 3), (0, 21))
        ),
        "edge-fault-energy": energy_cost_oracle(
            EdgeFaultMaskedOracle(
                points.distance, failed_edges=((2, 9), (14, 3), (0, 21))
            ),
            gamma=2.0,
            c=1.5,
        ),
    }


class TestAsOracle:
    def test_pointset_bound_method_is_upgraded(self):
        points = random_points()
        oracle = as_oracle(points.distance)
        assert isinstance(oracle, BoundMethodOracle)

    def test_pointset_oracle_accessor(self):
        points = random_points()
        oracle = points.oracle()
        u, v = random_pairs(len(points))
        assert np.array_equal(
            oracle.pairs(u, v), points.distances_between(u, v)
        )

    def test_protocol_objects_pass_through(self):
        oracle = lp_metric(random_points().coords, 2.0)
        assert as_oracle(oracle) is oracle

    def test_bare_callable_wrapped_as_scalar_adapter(self):
        points = random_points()
        fn = lambda u, v: points.distance(u, v)  # noqa: E731
        oracle = as_oracle(fn)
        assert isinstance(oracle, ScalarOracleAdapter)
        u, v = random_pairs(len(points), k=50)
        expect = np.asarray([fn(a, b) for a, b in zip(u, v)])
        assert np.array_equal(oracle.pairs(u, v), expect)

    def test_lp_metric_validates(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            lp_metric([1.0, 2.0], 2.0)  # 1-D coords
        with pytest.raises(GraphError):
            lp_metric(random_points().coords, 0.5)  # p < 1


class TestScalarBatchBitEquality:
    @pytest.mark.parametrize(
        "name",
        ["euclidean", "lp1", "lp2", "lpinf", "energy", "fault",
         "edge-fault", "edge-fault-energy"]
    )
    def test_pairs_equal_scalar_bitwise(self, name):
        points = random_points(n=80, seed=11, dim=3)
        oracle = oracles_under_test(points)[name]
        u, v = random_pairs(len(points), k=500, seed=7)
        batch = oracle.pairs(u, v)
        scalar = np.asarray(
            [oracle(int(a), int(b)) for a, b in zip(u, v)], dtype=np.float64
        )
        assert np.array_equal(batch, scalar)  # exact, incl. inf

    def test_fault_masking(self):
        points = random_points()
        oracle = FaultMaskedOracle(points.distance, faults=(2, 5))
        assert oracle(2, 9) == float("inf")
        assert oracle(9, 5) == float("inf")
        assert oracle(3, 9) == points.distance(3, 9)
        assert oracle.faults == frozenset({2, 5})
        got = oracle.pairs(np.array([2, 9, 3]), np.array([9, 5, 9]))
        assert np.isinf(got[0]) and np.isinf(got[1])
        assert got[2] == points.distance(3, 9)

    def test_edge_fault_masking(self):
        points = random_points()
        oracle = EdgeFaultMaskedOracle(
            points.distance, failed_edges=((7, 3), (11, 20))
        )
        assert oracle.failed_edges == frozenset({(3, 7), (11, 20)})
        # Both argument orders hit the mask; other pairs on the same
        # vertices do not (the vertex-fault oracle would kill those too).
        assert oracle(3, 7) == float("inf")
        assert oracle(7, 3) == float("inf")
        assert oracle(3, 8) == points.distance(3, 8)
        assert oracle(7, 11) == points.distance(7, 11)
        got = oracle.pairs(np.array([7, 20, 7]), np.array([3, 11, 11]))
        assert np.isinf(got[0]) and np.isinf(got[1])
        assert got[2] == points.distance(7, 11)

    def test_edge_fault_composes_under_energy(self):
        points = random_points()
        inner = EdgeFaultMaskedOracle(points.distance, failed_edges=((4, 9),))
        composed = energy_cost_oracle(inner, gamma=2.0, c=1.5)
        assert composed(4, 9) == float("inf")
        assert composed(9, 4) == float("inf")
        assert composed(4, 8) == 1.5 * points.distance(4, 8) ** 2.0
        got = composed.pairs(np.array([9, 4]), np.array([4, 8]))
        assert np.isinf(got[0])
        assert got[1] == composed(4, 8)


def _filter_inputs(points: PointSet, oracle, seed=0):
    """A partial spanner + bin edges measured by ``oracle``."""
    rng = np.random.default_rng(seed)
    n = len(points)
    spanner = Graph(n)
    edges = []
    seen = set()
    while len(seen) < 240:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b or (min(a, b), max(a, b)) in seen:
            continue
        seen.add((min(a, b), max(a, b)))
        d = oracle(a, b)
        if not np.isfinite(d) or d <= 0.0:
            continue
        if rng.random() < 0.5 and d <= 0.4:
            spanner.add_edge(a, b, d)
        else:
            edges.append((a, b, d))
    return spanner, edges


def _partition(edges, spanner, oracle, params):
    """``split_covered``'s mask as the reference's ``(candidates,
    covered)`` lists."""
    edges = batch(edges)
    covered = split_covered(
        edges, spanner, oracle, alpha=params.alpha, theta=params.theta
    )
    return tuples(edges.take(~covered)), tuples(edges.take(covered))


class TestSplitCoveredEquivalence:
    @pytest.mark.parametrize(
        "name",
        ["euclidean", "lp1", "lp2", "lpinf", "energy", "fault",
         "edge-fault", "edge-fault-energy"]
    )
    def test_batch_kernel_matches_scalar_reference(self, name):
        points = random_points(n=70, seed=23)
        oracle = oracles_under_test(points)[name]
        spanner, edges = _filter_inputs(points, oracle, seed=int(
            sum(ord(c) for c in name)
        ))
        params = SpannerParams.from_epsilon(0.5)
        got = _partition(edges, spanner, oracle, params)
        scalar = split_covered_reference(
            edges, spanner, as_oracle(oracle),
            alpha=params.alpha, theta=params.theta,
        )
        assert got == scalar
        # Verdicts agree with the per-edge predicate too.
        candidates, covered = got
        for u, v, w in covered:
            assert is_covered(
                u, v, w, spanner, oracle,
                alpha=params.alpha, theta=params.theta,
            )
        for u, v, w in candidates[:50]:
            assert not is_covered(
                u, v, w, spanner, oracle,
                alpha=params.alpha, theta=params.theta,
            )

    def test_array_scan_asks_only_pairs(self):
        points = random_points(n=50, seed=2)
        oracle = lp_metric(points.coords, 2.0)
        spanner, edges = _filter_inputs(points, oracle, seed=9)
        params = SpannerParams.from_epsilon(0.5)
        got = _partition(edges, spanner, _PairsOnly(oracle), params)
        reference = split_covered_reference(
            edges, spanner, as_oracle(oracle),
            alpha=params.alpha, theta=params.theta,
        )
        assert got == reference
        assert got[0] and got[1]


class _PairsOnly:
    """A protocol oracle whose scalar query fails: only ``pairs`` may be
    asked."""

    def __init__(self, oracle):
        self.pairs = oracle.pairs

    def __call__(self, u, v):
        raise AssertionError(f"scalar query ({u}, {v})")


class _OpaqueScalar:
    """A callable the oracle upgrade cannot see through (no pairs, not a
    bound PointSet.distance) -- measured one pair at a time."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, u, v):
        return self._fn(u, v)


class TestEndToEndEnergyExtension:
    def test_energy_spanner_identical_under_scalar_and_batched_oracle(self):
        points = uniform_points(90, seed=31, expected_degree=8.0)
        graph = build_udg(points)
        batched = build_energy_spanner(
            graph, points.distance, 0.5, gamma=2.0
        )
        scalar = build_energy_spanner(
            graph, _OpaqueScalar(points.distance), 0.5, gamma=2.0
        )
        assert sorted(batched.energy_spanner.edges()) == sorted(
            scalar.energy_spanner.edges()
        )
        assert sorted(batched.length_result.spanner.edges()) == sorted(
            scalar.length_result.spanner.edges()
        )
