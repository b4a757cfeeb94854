"""Tests for topology-control baselines."""

import math

import pytest

from repro.baselines import (
    baseline_registry,
    gabriel_graph,
    relative_neighborhood_graph,
    theta_graph,
    xtc_graph,
    yao_gabriel_graph,
    yao_graph,
)
from repro.exceptions import GraphError
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import measure_stretch
from repro.graphs.build import build_udg
from repro.graphs.components import connected_components


@pytest.fixture(scope="module")
def deployment():
    points = uniform_points(90, seed=55)
    return points, build_udg(points)


class TestYao:
    def test_out_degree_bounded_per_cone(self, deployment):
        points, graph = deployment
        k = 8
        yao = yao_graph(graph, points, k)
        # Total degree can exceed k (in-edges), but the construction
        # keeps at most one out-edge per cone per node: edges <= n*k.
        assert yao.num_edges <= graph.num_vertices * k

    def test_preserves_connectivity(self, deployment):
        points, graph = deployment
        yao = yao_graph(graph, points, 8)
        assert len(connected_components(yao)) == len(
            connected_components(graph)
        )

    def test_nearest_neighbor_always_kept(self, deployment):
        points, graph = deployment
        yao = yao_graph(graph, points, 6)
        for u in graph.vertices():
            items = list(graph.neighbor_items(u))
            if not items:
                continue
            nearest = min(items, key=lambda vw: (vw[1], vw[0]))[0]
            assert yao.has_edge(u, nearest)

    def test_subgraph_of_base(self, deployment):
        points, graph = deployment
        assert yao_graph(graph, points, 8).is_subgraph_of(graph)

    def test_rejects_3d(self):
        points = uniform_points(10, dim=3, seed=0)
        graph = build_udg(points)
        with pytest.raises(GraphError):
            yao_graph(graph, points, 8)

    def test_rejects_one_cone(self, deployment):
        points, graph = deployment
        with pytest.raises(GraphError):
            yao_graph(graph, points, 1)


class TestTheta:
    def test_subgraph_and_connectivity(self, deployment):
        points, graph = deployment
        theta = theta_graph(graph, points, 8)
        assert theta.is_subgraph_of(graph)
        assert len(connected_components(theta)) == len(
            connected_components(graph)
        )

    def test_differs_from_yao_in_general(self, deployment):
        points, graph = deployment
        yao = yao_graph(graph, points, 8)
        theta = theta_graph(graph, points, 8)
        # Same cardinality scale but not necessarily identical edges.
        assert abs(yao.num_edges - theta.num_edges) <= graph.num_vertices


class TestGabriel:
    def test_known_square(self):
        """Unit square: diagonals are blocked (midpoint disk contains
        the other corners), sides survive."""
        points = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        g = build_udg(points.scaled(0.9))
        gg = gabriel_graph(g, points.scaled(0.9))
        assert gg.has_edge(0, 1) and gg.has_edge(1, 2)
        assert not gg.has_edge(0, 2) and not gg.has_edge(1, 3)

    def test_empty_disk_characterization(self, deployment):
        points, graph = deployment
        gg = gabriel_graph(graph, points)
        for u, v, w in gg.edges():
            mid = (points[u] + points[v]) / 2.0
            for z in graph.vertices():
                if z in (u, v):
                    continue
                d = float(((points[z] - mid) ** 2).sum()) ** 0.5
                assert d >= w / 2.0 - 1e-9

    def test_connectivity_preserved(self, deployment):
        points, graph = deployment
        gg = gabriel_graph(graph, points)
        assert len(connected_components(gg)) == len(
            connected_components(graph)
        )


class TestRng:
    def test_rng_subgraph_of_gabriel(self, deployment):
        """Classic inclusion: RNG is a subgraph of GG."""
        points, graph = deployment
        rng = relative_neighborhood_graph(graph, points)
        gg = gabriel_graph(graph, points)
        assert rng.is_subgraph_of(gg)

    def test_lune_characterization(self, deployment):
        points, graph = deployment
        rng = relative_neighborhood_graph(graph, points)
        for u, v, w in rng.edges():
            for z in graph.neighbors(u):
                if z == v:
                    continue
                assert not (
                    points.distance(u, z) < w - 1e-12
                    and points.distance(v, z) < w - 1e-12
                )

    def test_connectivity_preserved(self, deployment):
        points, graph = deployment
        rng = relative_neighborhood_graph(graph, points)
        assert len(connected_components(rng)) == len(
            connected_components(graph)
        )


class TestXtc:
    def test_subgraph_of_rng(self, deployment):
        """Wattenhofer-Zollinger: XTC output (with distance order) is a
        subgraph of the RNG."""
        points, graph = deployment
        xtc = xtc_graph(graph)
        rng = relative_neighborhood_graph(graph, points)
        assert xtc.is_subgraph_of(rng)

    def test_degree_at_most_six(self, deployment):
        """On UDGs with generic positions XTC degree is at most 6."""
        _, graph = deployment
        assert xtc_graph(graph).max_degree() <= 6

    def test_connectivity_preserved(self, deployment):
        _, graph = deployment
        assert len(connected_components(xtc_graph(graph))) == len(
            connected_components(graph)
        )


class TestYaoGG:
    def test_planar_base(self, deployment):
        points, graph = deployment
        ygg = yao_gabriel_graph(graph, points, 9)
        gg = gabriel_graph(graph, points)
        assert ygg.is_subgraph_of(gg)

    def test_connectivity_preserved(self, deployment):
        points, graph = deployment
        ygg = yao_gabriel_graph(graph, points, 9)
        assert len(connected_components(ygg)) == len(
            connected_components(graph)
        )


class TestRegistry:
    def test_all_entries_runnable_and_spanning(self, deployment):
        points, graph = deployment
        for name, fn in baseline_registry().items():
            topo = fn(graph, points)
            assert topo.num_vertices == graph.num_vertices, name
            report = measure_stretch(graph, topo)
            assert report.max_stretch < math.inf, name

    def test_input_entry_is_copy(self, deployment):
        points, graph = deployment
        topo = baseline_registry()["UDG (input)"](graph, points)
        assert topo == graph and topo is not graph
