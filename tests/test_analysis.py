"""Tests for spanner quality measurement."""

import math

import pytest

from repro.exceptions import GraphError
from repro.graphs.analysis import (
    assess,
    hop_diameter,
    lightness,
    measure_stretch,
    power_cost,
)
from repro.graphs.graph import Graph


def square() -> Graph:
    """Unit square with one diagonal missing from the spanner tests."""
    g = Graph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(2, 3, 1.0)
    g.add_edge(3, 0, 1.0)
    g.add_edge(0, 2, math.sqrt(2.0))
    return g


class TestMeasureStretch:
    def test_identity_spanner(self):
        g = square()
        report = measure_stretch(g, g)
        assert report.max_stretch == pytest.approx(1.0)
        assert report.num_edges_checked == 5

    def test_detour_stretch(self):
        g = square()
        spanner = g.copy()
        spanner.remove_edge(0, 2)
        report = measure_stretch(g, spanner)
        assert report.max_stretch == pytest.approx(2.0 / math.sqrt(2.0))
        assert report.worst_edge == (0, 2)

    def test_disconnected_gives_inf(self):
        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        assert measure_stretch(g, Graph(2)).max_stretch == float("inf")

    def test_empty_base(self):
        report = measure_stretch(Graph(3), Graph(3))
        assert report.max_stretch == 1.0 and report.worst_edge is None

    def test_size_mismatch(self):
        with pytest.raises(GraphError):
            measure_stretch(Graph(2), Graph(3))

    def test_mean_at_most_max(self):
        g = square()
        spanner = g.copy()
        spanner.remove_edge(0, 2)
        report = measure_stretch(g, spanner)
        assert 1.0 <= report.mean_stretch <= report.max_stretch


class TestLightness:
    def test_mst_is_one(self):
        from repro.graphs.mst import kruskal_mst

        g = square()
        assert lightness(g, kruskal_mst(g)) == pytest.approx(1.0)

    def test_full_graph_heavier(self):
        g = square()
        assert lightness(g, g) > 1.0

    def test_empty_graphs(self):
        assert lightness(Graph(3), Graph(3)) == 1.0


class TestPowerCost:
    def test_sum_of_max_incident(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        # power: node0=1, node1=2, node2=2
        assert power_cost(g) == pytest.approx(5.0)

    def test_isolated_free(self):
        assert power_cost(Graph(4)) == 0.0


class TestHopDiameter:
    def test_path(self):
        g = Graph(4)
        for i in range(3):
            g.add_edge(i, i + 1, 5.0)
        assert hop_diameter(g) == 3

    def test_disconnected_takes_max_component(self):
        g = Graph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(3, 4, 1.0)
        assert hop_diameter(g) == 2

    def test_empty(self):
        assert hop_diameter(Graph(3)) == 0


class TestAssess:
    def test_fields_consistent(self):
        g = square()
        spanner = g.copy()
        spanner.remove_edge(0, 2)
        q = assess(g, spanner)
        assert q.edges == 4
        assert q.max_degree == 2
        assert q.avg_degree == pytest.approx(2.0)
        assert q.stretch == pytest.approx(math.sqrt(2.0))
        assert q.power_cost_ratio <= 1.0

    def test_as_row_keys(self):
        q = assess(square(), square())
        row = q.as_row()
        assert set(row) == {
            "stretch", "mean_stretch", "max_degree", "avg_degree",
            "lightness", "weight", "edges", "power_cost_ratio",
        }
