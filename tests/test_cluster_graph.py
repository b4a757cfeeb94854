"""Tests for the Das--Narasimhan cluster graph H (Section 2.2.3)."""

import math

import numpy as np
import pytest
from oracles.cluster_graph import as_graph

from repro.core.bins import EdgeBinning
from repro.core.cluster_graph import build_cluster_graph
from repro.core.cover import build_cluster_cover
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra, dijkstra_distance
from repro.params import SpannerParams


def path_graph(n: int, w: float) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, w)
    return g


class TestBuildClusterGraph:
    def test_intra_edges_weighted_by_center_distance(self):
        g = path_graph(6, 0.1)
        cover = build_cluster_cover(g, 0.2)  # clusters of 3 consecutive
        h = as_graph(build_cluster_graph(g, cover, w_prev=1.0, delta=0.2))
        for v in np.flatnonzero(cover.center >= 0).tolist():
            center = int(cover.center[v])
            if v != center:
                assert h.weight(center, v) == pytest.approx(cover.dist[v])

    def test_inter_edge_condition_i(self):
        """Centers within W_prev in G' are joined."""
        g = path_graph(4, 0.3)
        cover = build_cluster_cover(g, 0.0)  # all singleton clusters
        h = as_graph(build_cluster_graph(g, cover, w_prev=0.35, delta=0.1))
        assert h.has_edge(0, 1)  # sp = 0.3 <= 0.35
        assert not h.has_edge(0, 2)  # sp = 0.6 > 0.35, no crossing...

    def test_inter_edge_condition_ii_crossing(self):
        """A spanner edge crossing two clusters joins their centers even
        when the centers are farther than W_prev."""
        # Two 3-chains of tiny edges joined by one 0.5 edge.
        g = Graph(6)
        for i in (0, 1):
            g.add_edge(i, i + 1, 0.05)
        for i in (3, 4):
            g.add_edge(i, i + 1, 0.05)
        g.add_edge(2, 3, 0.5)
        cover = build_cluster_cover(g, 0.1)
        a, b = cover.center_of(2), cover.center_of(3)
        assert a != b
        h = as_graph(build_cluster_graph(g, cover, w_prev=0.2, delta=0.5))
        assert h.has_edge(a, b)
        # weight is the true sp between centers
        expected = dijkstra(g, a, targets={b})[b]
        assert h.weight(a, b) == pytest.approx(expected)

    def test_rejects_bad_w_prev(self):
        g = path_graph(3, 0.1)
        cover = build_cluster_cover(g, 0.2)
        with pytest.raises(GraphError):
            build_cluster_graph(g, cover, w_prev=0.0, delta=0.1)

    def test_rejects_bad_delta(self):
        g = path_graph(3, 0.1)
        cover = build_cluster_cover(g, 0.2)
        with pytest.raises(GraphError):
            build_cluster_graph(g, cover, w_prev=1.0, delta=0.0)

    def test_counts_reported(self):
        g = path_graph(6, 0.1)
        cover = build_cluster_cover(g, 0.2)
        h = build_cluster_graph(g, cover, w_prev=1.0, delta=0.2)
        assert h.num_intra_edges == 6 - cover.num_clusters
        assert h.num_inter_edges >= 1

    def test_distance_queries(self):
        g = path_graph(6, 0.1)
        cover = build_cluster_cover(g, 0.2)
        h = build_cluster_graph(g, cover, w_prev=1.0, delta=0.2)
        x, y = np.array([0, 0]), np.array([0, 5])
        assert h.distance_pairs(x, y)[0] == 0.0
        assert h.distance_pairs(x, y)[1] < float("inf")
        assert h.distance_pairs(x, y, cutoff=0.01)[1] == float("inf")


class TestLemmaInvariants:
    """Lemmas 5, 7 verified on real phase snapshots."""

    @pytest.fixture(scope="class")
    def phase_setup(self, medium_build, medium_udg):
        params = medium_build.params
        binning = EdgeBinning.for_params(params, medium_udg.num_vertices)
        executed = [p.index for p in medium_build.phases if p.index >= 1]
        phase = executed[2 * len(executed) // 3]
        partial = Graph(medium_udg.num_vertices)
        for u, v, w in medium_build.spanner.edges():
            if binning.bin_of(w) < phase:
                partial.add_edge(u, v, w)
        w_prev = binning.boundary(phase - 1)
        cover = build_cluster_cover(partial, params.delta * w_prev)
        h = build_cluster_graph(partial, cover, w_prev, params.delta)
        return params, partial, cover, h, w_prev

    def test_lemma5_inter_edge_weights(self, phase_setup):
        """Inter-cluster edges between phase-1+ material satisfy
        sp <= (2*delta + 1) * W_prev."""
        params, partial, cover, h, w_prev = phase_setup
        centers = set(cover.centers)
        bound = (2.0 * params.delta + 1.0) * w_prev
        long_phase0 = partial.max_edge_weight() > w_prev
        for u, v, w in as_graph(h).edges():
            if u in centers and v in centers:
                if not long_phase0:
                    assert w <= bound + 1e-12

    def test_h_never_underestimates(self, phase_setup):
        """sp_H(x,y) >= sp_G'(x,y): H paths are detours, never shortcuts."""
        params, partial, cover, h, w_prev = phase_setup
        hg = as_graph(h)
        rng = np.random.default_rng(1)
        verts = list(partial.vertices())
        for _ in range(15):
            x = int(rng.choice(verts))
            row_h = dijkstra(hg, x, cutoff=3 * w_prev)
            row_g = dijkstra(partial, x)
            for y, dh in row_h.items():
                assert dh >= row_g.get(y, float("inf")) - 1e-9

    def test_lemma7_upper_ratio(self, phase_setup):
        """sp_H <= (1+6d)/(1-2d) * sp_G' for pairs H can see."""
        params, partial, cover, h, w_prev = phase_setup
        ratio = (1.0 + 6.0 * params.delta) / (1.0 - 2.0 * params.delta)
        hg = as_graph(h)
        rng = np.random.default_rng(2)
        verts = list(partial.vertices())
        checked = 0
        for _ in range(20):
            x = int(rng.choice(verts))
            row_g = dijkstra(partial, x, cutoff=2 * w_prev)
            for y, dg in row_g.items():
                if y == x or dg == 0:
                    continue
                dh = dijkstra_distance(hg, x, y, cutoff=ratio * dg * 1.001)
                if not math.isinf(dh):
                    assert dh <= ratio * dg + 1e-9
                    checked += 1
        assert checked > 0

    def test_lemma8_hop_bound(self, phase_setup):
        """Relevant H-paths have O(1) hops: 2 + ceil(t*r/delta)."""
        params, partial, cover, h, w_prev = phase_setup
        from repro.graphs.paths import bfs_hops

        hop_bound = 2 + math.ceil(params.t * params.r / params.delta)
        # Check via weighted/hop joint search: any path of weight
        # <= t*r*W_prev uses at most hop_bound hops.  We verify the
        # necessary condition: every H-edge on such a path has weight
        # > delta*W_prev unless intra (then it is one of <= 2 hops).
        centers = set(cover.centers)
        for u, v, w in as_graph(h).edges():
            if u in centers and v in centers:
                assert w > params.delta * w_prev - 1e-12
