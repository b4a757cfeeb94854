"""Lemma 20: the conflict-graph metric d_J is a metric of small doubling
dimension (the F20 claim, exercised as unit tests).

``d_J(a, b)`` for conflict-graph nodes ``a = {u_a, v_a}`` and
``b = {u_b, v_b}`` is the minimum over the two endpoint pairings of the
summed ``sp_H`` distances.  The lemma's proof needs (1) d_J is a metric,
(2) the space it induces has constant doubling dimension; both are
verified here on real phase data from a spanner build.
"""

import itertools

import numpy as np
import pytest
from oracles.cluster_graph import as_graph

from repro.core.bins import EdgeBinning
from repro.core.cluster_graph import build_cluster_graph
from repro.core.cover import build_cluster_cover
from repro.geometry.doubling import estimate_doubling_dimension
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra


@pytest.fixture(scope="module")
def dj_setup(medium_build, medium_udg):
    """Reconstruct a late phase and compute d_J over that bin's edges."""
    params = medium_build.params
    binning = EdgeBinning.for_params(params, medium_udg.num_vertices)
    # Pick the executed phase with the most bin edges (>= 4) so the
    # conflict-node population is non-trivial.
    phases = [p for p in medium_build.phases if p.index >= 1]
    phase = max(phases, key=lambda p: p.num_bin_edges)
    partial = Graph(medium_udg.num_vertices)
    for u, v, w in medium_build.spanner.edges():
        if binning.bin_of(w) < phase.index:
            partial.add_edge(u, v, w)
    w_prev = binning.boundary(phase.index - 1)
    cover = build_cluster_cover(partial, params.delta * w_prev)
    h = build_cluster_graph(partial, cover, w_prev, params.delta)

    bin_edges = [
        (u, v, w)
        for u, v, w in medium_udg.edges()
        if binning.bin_of(w) == phase.index
    ][:14]
    assert len(bin_edges) >= 4

    endpoints = sorted({p for u, v, _ in bin_edges for p in (u, v)})
    hg = as_graph(h)
    rows = {p: dijkstra(hg, p) for p in endpoints}

    def sp(a: int, b: int) -> float:
        if a == b:
            return 0.0
        return rows[a].get(b, float("inf"))

    def d_j(e1, e2) -> float:
        (ua, va, _), (ub, vb, _) = e1, e2
        return min(
            sp(ua, ub) + sp(va, vb),
            sp(ua, vb) + sp(va, ub),
        )

    return bin_edges, d_j


class TestDJMetricAxioms:
    def test_identity(self, dj_setup):
        edges, d_j = dj_setup
        for e in edges:
            assert d_j(e, e) == 0.0

    def test_symmetry(self, dj_setup):
        edges, d_j = dj_setup
        for e1, e2 in itertools.combinations(edges, 2):
            assert d_j(e1, e2) == pytest.approx(d_j(e2, e1))

    def test_triangle_inequality(self, dj_setup):
        """The crux of Lemma 20's metric argument (Figure 5)."""
        edges, d_j = dj_setup
        finite = 0
        for a, b, c in itertools.permutations(edges, 3):
            ab, bc, ac = d_j(a, b), d_j(b, c), d_j(a, c)
            if ab == float("inf") or bc == float("inf"):
                continue
            assert ac <= ab + bc + 1e-9
            finite += 1
        assert finite > 0

    def test_nonnegative(self, dj_setup):
        edges, d_j = dj_setup
        for e1, e2 in itertools.combinations(edges, 2):
            assert d_j(e1, e2) >= 0.0


class TestDJDoublingDimension:
    def test_constant_doubling_dimension(self, dj_setup):
        """Lemma 20's second half: the d_J space is doubling."""
        edges, d_j = dj_setup
        size = len(edges)
        matrix = np.zeros((size, size))
        for i, e1 in enumerate(edges):
            for j, e2 in enumerate(edges):
                matrix[i, j] = d_j(e1, e2) if i != j else 0.0
        report = estimate_doubling_dimension(matrix, seed=0)
        assert report.dimension <= 6.0
