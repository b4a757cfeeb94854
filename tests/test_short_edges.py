"""Tests for phase 0 (PROCESS-SHORT-EDGES, Lemma 1, Theorem 2)."""

import pytest
from oracles.edges import batch, tuples

from repro.core.short_edges import process_short_edges
from repro.exceptions import GraphError
from repro.geometry.points import PointSet
from repro.graphs.analysis import measure_stretch
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph


@pytest.fixture()
def blob():
    """A tight blob (mutual distances < alpha) plus one far node."""
    points = PointSet(
        [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [0.015, 0.01], [5.0, 5.0]]
    )
    graph = build_udg(points)
    return points, graph


def short_edges_of(graph, w0):
    return batch((u, v, w) for u, v, w in graph.edges() if w <= w0)


class TestProcessShortEdges:
    def test_components_are_cliques(self, blob):
        points, graph = blob
        short = short_edges_of(graph, 0.02)
        outcome = process_short_edges(graph, short, points.distance, 1.5)
        assert len(outcome.components) == 1
        assert set(outcome.components[0]) == {0, 1, 2, 3}

    def test_output_spans_short_edges(self, blob):
        """Theorem 2(i): every E_0 edge has a t-path in G'_0."""
        points, graph = blob
        short = short_edges_of(graph, 0.02)
        outcome = process_short_edges(graph, short, points.distance, 1.5)
        base = Graph(graph.num_vertices)
        for u, v, w in tuples(short):
            base.add_edge(u, v, w)
        assert measure_stretch(base, outcome.spanner).max_stretch <= 1.5 + 1e-9

    def test_far_node_untouched(self, blob):
        points, graph = blob
        short = short_edges_of(graph, 0.02)
        outcome = process_short_edges(graph, short, points.distance, 1.5)
        assert outcome.spanner.degree(4) == 0

    def test_no_short_edges(self, blob):
        points, graph = blob
        outcome = process_short_edges(graph, batch([]), points.distance, 1.5)
        assert outcome.spanner.num_edges == 0
        assert outcome.components == ()

    def test_lemma1_violation_detected(self):
        """A 'short-edge' chain whose endpoints are NOT adjacent in G
        must be rejected: the input was not a valid alpha-UBG."""
        points = PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        graph = build_udg(points)  # 0-1, 1-2 but not 0-2 (distance 1.0 is edge!)
        # Craft a graph where 0-2 is genuinely missing:
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.5)
        with pytest.raises(GraphError, match="Lemma 1"):
            process_short_edges(
                g, batch([(0, 1, 0.5), (1, 2, 0.5)]), points.distance, 1.5
            )

    def test_check_clique_disabled_skips_validation(self):
        points = PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.5)
        outcome = process_short_edges(
            g, batch([(0, 1, 0.5), (1, 2, 0.5)]), points.distance, 1.5,
            check_clique=False,
        )
        assert outcome.spanner.num_edges >= 2

    def test_rejects_bad_t(self, blob):
        points, graph = blob
        with pytest.raises(GraphError):
            process_short_edges(graph, batch([]), points.distance, 0.9)

    def test_multiple_components(self):
        """Two separate blobs produce two clique spanners."""
        coords = [[0.0, 0.0], [0.01, 0.0], [0.3, 0.3], [0.31, 0.3]]
        points = PointSet(coords)
        graph = build_udg(points)
        short = short_edges_of(graph, 0.02)
        outcome = process_short_edges(graph, short, points.distance, 1.5)
        assert len(outcome.components) == 2
        assert outcome.spanner.has_edge(0, 1)
        assert outcome.spanner.has_edge(2, 3)
        assert not outcome.spanner.has_edge(1, 2)

    def test_stats_accumulated(self, blob):
        points, graph = blob
        short = short_edges_of(graph, 0.02)
        outcome = process_short_edges(graph, short, points.distance, 1.5)
        assert outcome.stats.num_edges_examined > 0
        assert outcome.num_short_edges == short.w.size
