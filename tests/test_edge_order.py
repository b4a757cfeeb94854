"""A build does not depend on the order of the base graph's edges.

The phases read the base graph only through its edge batch,
``graph.edges_arrays()``, whose rows come in insertion-log order.  Two
graphs with the same edges inserted in different orders, each edge
named either way round, must give the same static and distributed
builds: the same edges with the same float weights and the same phase
reports.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.relaxed_greedy import RelaxedGreedySpanner
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.experiments.workloads import make_workload
from repro.geometry.points import PointSet
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.params import SpannerParams

PARAMS = SpannerParams.from_epsilon(0.5)


def shuffled_copy(graph: Graph, seed: int) -> Graph:
    """``graph``'s edges re-inserted one by one in a random order, each
    with a random orientation."""
    rng = np.random.default_rng(seed)
    us, vs, ws = graph.edges_arrays()
    order = rng.permutation(us.size)
    flip = rng.random(us.size) < 0.5
    xs, ys = np.where(flip, vs, us)[order], np.where(flip, us, vs)[order]
    copy = Graph(graph.num_vertices)
    for x, y, w in zip(xs.tolist(), ys.tolist(), ws[order].tolist()):
        copy.add_edge(x, y, w)
    return copy


def short_edge_instance() -> PointSet:
    """200 points: four groups of five inside ``W_0 = alpha / n``, whose
    40 pairs are phase 0's short edges, among 180 uniform points."""
    rng = np.random.default_rng(7)
    side = float(np.sqrt(200 * np.pi / 8.0))  # mean degree about 8
    rest = rng.uniform(0.0, side, size=(180, 2))
    groups = [
        center + rng.uniform(-0.0017, 0.0017, size=(5, 2))
        for center in rng.uniform(1.0, side - 1.0, size=(4, 2))
    ]
    return PointSet(np.vstack(groups + [rest]))


def _summary(build):
    edges = sorted(
        (min(u, v), max(u, v), float(w).hex())
        for u, v, w in build.spanner.edges()
    )
    return edges, [dataclasses.astuple(p) for p in build.phases]


@pytest.fixture(params=["uniform", "short-edges"], scope="module")
def instance(request):
    if request.param == "uniform":
        wl = make_workload("uniform", 400, seed=1)
        points, graph = wl.points, wl.graph
    else:
        points = short_edge_instance()
        graph = build_udg(points)
    copy = shuffled_copy(graph, seed=11)
    assert sorted(copy.edges()) == sorted(graph.edges())
    assert not np.array_equal(copy.edges_arrays().u, graph.edges_arrays().u)
    return points, graph, copy


def test_short_edge_instance_has_short_edges():
    points = short_edge_instance()
    build = RelaxedGreedySpanner(PARAMS).build(
        build_udg(points), points.distance
    )
    phase0 = build.phases[0]
    assert phase0.index == 0 and phase0.num_bin_edges == 40
    assert 0 < phase0.num_added < 40


def test_static_build_ignores_edge_order(instance):
    points, graph, copy = instance
    builder = RelaxedGreedySpanner(PARAMS)
    assert _summary(builder.build(copy, points.distance)) == _summary(
        builder.build(graph, points.distance)
    )


def test_distributed_build_ignores_edge_order(instance):
    points, graph, copy = instance
    builds = [
        DistributedRelaxedGreedy(PARAMS, seed=3).build(g, points.distance)
        for g in (graph, copy)
    ]
    assert _summary(builds[1]) == _summary(builds[0])
    assert builds[1].total_rounds == builds[0].total_rounds
    assert builds[1].ledger.total_messages == builds[0].ledger.total_messages
