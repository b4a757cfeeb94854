"""Micro-benchmarks of the substrate primitives.

These are conventional pytest-benchmark measurements (many rounds) of the
hot inner operations the spanner algorithms are built from; they catch
performance regressions in the substrate independent of the experiment
tables.
"""

from __future__ import annotations

import pytest

from repro.core.bins import EdgeBinning
from repro.core.cover import build_cluster_cover
from repro.core.seq_greedy import seq_greedy
from repro.distributed.mis import run_luby_mis_arrays
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.mst import kruskal_mst
from repro.graphs.paths import dijkstra


@pytest.fixture(scope="module")
def deployment():
    points = uniform_points(300, seed=999)
    return points, build_udg(points)


def test_udg_construction(benchmark):
    points = uniform_points(300, seed=999)
    graph = benchmark(lambda: build_udg(points))
    assert graph.num_edges > 0


def test_dijkstra_full(benchmark, deployment):
    _, graph = deployment
    dist = benchmark(lambda: dijkstra(graph, 0))
    assert len(dist) >= 1


def test_dijkstra_cutoff(benchmark, deployment):
    _, graph = deployment
    dist = benchmark(lambda: dijkstra(graph, 0, cutoff=1.0))
    assert 0 in dist


def test_kruskal_mst(benchmark, deployment):
    _, graph = deployment
    mst = benchmark(lambda: kruskal_mst(graph))
    assert mst.num_edges <= graph.num_vertices - 1


def test_cluster_cover(benchmark, deployment):
    _, graph = deployment
    cover = benchmark(lambda: build_cluster_cover(graph, 0.5))
    assert cover.num_clusters >= 1


def test_edge_binning(benchmark, deployment):
    _, graph = deployment
    binning = EdgeBinning(1.05, 1.0, graph.num_vertices)
    edges = graph.edges_arrays()
    bins = benchmark(lambda: binning.assign(edges))
    assert sum(v.w.size for v in bins.values()) == edges.w.size


def test_seq_greedy_small(benchmark):
    points = uniform_points(120, seed=998)
    graph = build_udg(points)
    spanner = benchmark.pedantic(
        lambda: seq_greedy(graph, 1.5), rounds=3, iterations=1
    )
    assert spanner.num_edges > 0


def test_luby_mis_protocol(benchmark):
    import numpy as np

    rng = np.random.default_rng(12)
    adj: dict[int, set[int]] = {i: set() for i in range(150)}
    for _ in range(600):
        a, b = int(rng.integers(150)), int(rng.integers(150))
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    indptr = np.cumsum([0] + [len(adj[u]) for u in range(150)])
    indices = np.asarray(
        [v for u in range(150) for v in sorted(adj[u])], dtype=np.int64
    )
    run = benchmark.pedantic(
        lambda: run_luby_mis_arrays(indptr, indices, seed=4),
        rounds=3,
        iterations=1,
    )
    assert run.chosen.any()
