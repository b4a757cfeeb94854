"""Tests for the Section 1.6 extensions."""

import math

import pytest

from repro.extensions.energy import build_energy_spanner, reweight_graph
from repro.extensions.fault_tolerance import (
    fault_injection_report,
    is_k_vertex_fault_tolerant,
    multipass_fault_tolerant_spanner,
)
from repro.extensions.power_cost import (
    power_assignment,
    power_cost_report,
    total_power,
)
from repro.exceptions import GraphError, ParameterError
from repro.geometry.metrics import EnergyMetric
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import measure_stretch
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def deployment():
    points = uniform_points(70, seed=66)
    return points, build_udg(points)


class TestEnergySpanner:
    @pytest.mark.parametrize("gamma", [2.0, 3.0, 4.0])
    def test_energy_stretch_bound(self, deployment, gamma):
        points, graph = deployment
        result = build_energy_spanner(
            graph, points.distance, 0.5, gamma=gamma
        )
        stretch = measure_stretch(
            result.energy_base, result.energy_spanner
        ).max_stretch
        assert stretch <= 1.5 * (1.0 + 1e-9)

    def test_length_target_formula(self, deployment):
        points, graph = deployment
        result = build_energy_spanner(graph, points.distance, 0.5, gamma=2.0)
        assert result.length_t == pytest.approx(math.sqrt(1.5))

    def test_topologies_match(self, deployment):
        points, graph = deployment
        result = build_energy_spanner(graph, points.distance, 0.5)
        assert (
            result.energy_spanner.edge_set()
            == result.length_result.spanner.edge_set()
        )

    def test_rejects_bad_epsilon(self, deployment):
        points, graph = deployment
        with pytest.raises(ParameterError):
            build_energy_spanner(graph, points.distance, 0.0)

    def test_reweight_graph(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        rw = reweight_graph(g, EnergyMetric(gamma=2.0, c=2.0))
        assert rw.weight(0, 1) == pytest.approx(0.5)


class TestFaultTolerance:
    def test_multipass_k0_is_plain_spanner(self, deployment):
        points, graph = deployment
        union = multipass_fault_tolerant_spanner(
            graph, points.distance, 0.5, 0
        )
        assert (
            measure_stretch(graph, union).max_stretch <= 1.5 * (1 + 1e-9)
        )

    def test_multipass_k1_survives_injection(self, deployment):
        points, graph = deployment
        union = multipass_fault_tolerant_spanner(
            graph, points.distance, 0.5, 1
        )
        report = fault_injection_report(
            graph, union, 1.5, 1, trials=25, seed=0
        )
        assert report.tolerant, report

    def test_multipass_monotone_in_k(self, deployment):
        points, graph = deployment
        e1 = multipass_fault_tolerant_spanner(
            graph, points.distance, 0.5, 1
        ).num_edges
        e2 = multipass_fault_tolerant_spanner(
            graph, points.distance, 0.5, 2
        ).num_edges
        assert e2 >= e1

    def test_multipass_rejects_negative_k(self, deployment):
        points, graph = deployment
        with pytest.raises(GraphError):
            multipass_fault_tolerant_spanner(graph, points.distance, 0.5, -1)

    def test_injection_report_zero_faults(self, deployment):
        points, graph = deployment
        from repro.core.relaxed_greedy import build_spanner

        plain = build_spanner(graph, points.distance, 0.5).spanner
        report = fault_injection_report(graph, plain, 1.5, 0, trials=3)
        assert report.tolerant and report.worst_stretch <= 1.5 * (1 + 1e-9)

    def test_exhaustive_guard_on_large_instances(self, deployment):
        points, graph = deployment
        with pytest.raises(GraphError, match="max_sets"):
            is_k_vertex_fault_tolerant(graph, graph, 1.5, 3, max_sets=10)

    def test_exhaustive_detects_fragile_spanner(self):
        """A path is NOT 1-fault-tolerant for its own cycle graph."""
        g = Graph(4)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4, 1.0)
        path = Graph(4)
        for i in range(3):
            path.add_edge(i, i + 1, 1.0)
        assert not is_k_vertex_fault_tolerant(g, path, 1.5, 1)


class TestPowerCost:
    def test_assignment_is_max_incident(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.4)
        g.add_edge(1, 2, 0.9)
        pa = power_assignment(g)
        assert pa == {0: 0.4, 1: 0.9, 2: 0.9}

    def test_energy_metric_assignment(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        pa = power_assignment(g, EnergyMetric(gamma=2.0))
        assert pa[0] == pytest.approx(0.25)

    def test_total_power(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        assert total_power(g) == pytest.approx(1.0)

    def test_report_ratios(self, deployment):
        points, graph = deployment
        from repro.core.relaxed_greedy import build_spanner

        spanner = build_spanner(graph, points.distance, 0.5).spanner
        report = power_cost_report(graph, spanner)
        assert report.ratio_vs_input <= 1.0 + 1e-9
        assert 1.0 <= report.ratio_vs_mst <= 3.0

    def test_report_handles_empty(self):
        report = power_cost_report(Graph(3), Graph(3))
        assert report.ratio_vs_input == 1.0
        assert report.ratio_vs_mst == 1.0
