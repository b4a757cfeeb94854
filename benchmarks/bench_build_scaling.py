"""Scaling benchmarks for the batch graph-construction pipeline.

Tracks ``build_udg`` / ``build_qubg`` wall time at n in {1000, 5000}
across representative gray-zone policies (deterministic keep-all,
hash-driven Bernoulli, geometric obstacle tests), so BENCH_*.json
snapshots record the construction trajectory as the pipeline evolves.
Constant density (fixed expected degree) keeps the edge count linear in
``n``; the array pipeline should scale near-linearly too.
"""

from __future__ import annotations

import pytest

from repro.geometry.sampling import uniform_points
from repro.graphs.build import (
    BernoulliPolicy,
    KeepAllPolicy,
    ObstaclePolicy,
    build_qubg,
    build_udg,
)

SIZES = (1000, 5000)
ALPHA = 0.6


def _points(n: int):
    return uniform_points(n, seed=1234 + n, expected_degree=8.0)


def _obstacle_policy(points) -> ObstaclePolicy:
    lower, upper = points.coords.min(axis=0), points.coords.max(axis=0)
    span = upper - lower
    obstacles = tuple(
        (
            tuple(lower + span * frac),
            0.12,
        )
        for frac in (0.25, 0.5, 0.75)
    )
    return ObstaclePolicy(obstacles=obstacles)


@pytest.mark.parametrize("n", SIZES)
def test_build_udg_scaling(benchmark, n):
    points = _points(n)
    graph = benchmark(build_udg, points)
    assert graph.num_edges > 0


@pytest.mark.parametrize("n", SIZES)
def test_build_qubg_keepall_scaling(benchmark, n):
    points = _points(n)
    graph = benchmark(
        build_qubg, points, ALPHA, policy=KeepAllPolicy()
    )
    assert graph.num_edges > 0


@pytest.mark.parametrize("n", SIZES)
def test_build_qubg_bernoulli_scaling(benchmark, n):
    points = _points(n)
    policy = BernoulliPolicy(0.5, seed=7)
    graph = benchmark(build_qubg, points, ALPHA, policy=policy)
    assert graph.num_edges > 0


@pytest.mark.parametrize("n", SIZES)
def test_build_qubg_obstacle_scaling(benchmark, n):
    points = _points(n)
    policy = _obstacle_policy(points)
    graph = benchmark(build_qubg, points, ALPHA, policy=policy)
    assert graph.num_edges > 0
