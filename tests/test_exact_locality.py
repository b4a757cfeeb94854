"""Exact locality of steps i and iii, against the full computations.

Step i searches only from the vertices touching an edge no longer than
the cover radius; step iii builds ``H`` only over the ``G'``-ball around
a phase's query endpoints.  Both reductions must reproduce the full
computation's outputs bit for bit, and keep its errors.  Every instance
has at least 256 vertices, the size from which the array kernels and
their dense/sparse probes run.
"""

import numpy as np
import pytest
from oracles.cluster_graph import as_graph, build_cluster_graph_reference
from oracles.edges import batch

import repro.distributed.dist_spanner as dist_spanner_mod
import repro.graphs.paths as paths_mod
from repro.core.cluster_graph import answer_spanner_queries, build_cluster_graph
from repro.core.cover import (
    ClusterCover,
    build_cluster_cover,
    build_cluster_cover_reference,
    cover_from_centers,
    short_edge_mask,
)
from repro.core.redundancy import find_redundant_pairs
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.exceptions import GraphError
from repro.experiments.workloads import make_workload
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    dijkstra,
    multi_source_ball_lists,
    pair_distance_entries,
)
from repro.params import SpannerParams

PARAMS = SpannerParams.from_epsilon(0.5)
# A cover radius factor large enough for real clusters, so H has intra
# edges and crossing pairs that are not center-to-center edges.
DELTA = 0.2


def assert_covers_equal(a, b):
    assert a.centers == b.centers
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.dist, b.dist)


def force_probe(monkeypatch, forced, *modules):
    for mod in modules:
        monkeypatch.setattr(
            mod, "prefer_batched_sources", lambda g, s, c, _f=forced: _f
        )


def _phase(seed):
    """A mid-build phase on a 400-vertex uniform instance: ``G'`` holds
    the edges up to the 35% length quantile, its cover has radius
    ``DELTA * W_{i-1}``, and the queries are the edges of the next length
    band with both ends near vertex 0, where some are mutually
    redundant.  Returns the inputs and the region radius."""
    wl = make_workload("uniform", 400, seed=seed)
    us, vs, ws = wl.graph.edges_arrays()
    w_prev = float(np.quantile(ws, 0.35))
    w_cur = 1.5 * w_prev
    spanner = Graph(400)
    short = ws <= w_prev
    spanner.add_weighted_edges_arrays(us[short], vs[short], ws[short])
    near = dijkstra(spanner, 0, cutoff=6.0 * w_prev)
    queries = batch(
        (int(u), int(v), float(w))
        for u, v, w in zip(us, vs, ws)
        if w_prev < w <= w_cur and int(u) in near and int(v) in near
    )
    cover = build_cluster_cover(spanner, DELTA * w_prev)
    radius = max(PARAMS.t * float(queries.w.max()), PARAMS.t1 * w_cur)
    return spanner, cover, w_prev, w_cur, queries, radius


def _region(spanner, queries, radius):
    """``U``: every vertex within ``radius`` of a query endpoint, found
    with the dict Dijkstra and the builder's relative slack."""
    region = set()
    for s in np.unique(np.concatenate([queries.u, queries.v])).tolist():
        region.update(dijkstra(spanner, s, cutoff=radius * (1.0 + 1e-9)))
    return region


def _edge_map(graph):
    return {(min(u, v), max(u, v)): w for u, v, w in graph.edges()}


class TestRegionClusterGraph:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_region_h_is_the_full_h_on_the_region(self, seed):
        spanner, cover, w_prev, _, queries, radius = _phase(seed)
        full = build_cluster_graph(spanner, cover, w_prev, DELTA)
        local = build_cluster_graph(
            spanner, cover, w_prev, DELTA, queries=queries, radius=radius
        )
        region = _region(spanner, queries, radius)
        assert 0 < len(region) < spanner.num_vertices  # a real reduction
        full_edges = _edge_map(as_graph(full))
        local_edges = _edge_map(as_graph(local))
        # A subgraph of H, with H's float weights ...
        assert all(full_edges.get(k) == w for k, w in local_edges.items())
        # ... holding every H-edge with both ends in U.
        for (u, v), w in full_edges.items():
            if u in region and v in region:
                assert local_edges[(u, v)] == w
        assert local.num_inter_edges < full.num_inter_edges

    @pytest.mark.parametrize("forced", [True, False])
    def test_verdicts_pairs_and_distances_match_full_h(
        self, forced, monkeypatch
    ):
        force_probe(monkeypatch, forced, paths_mod)
        spanner, cover, w_prev, w_cur, queries, radius = _phase(4)
        full = build_cluster_graph(spanner, cover, w_prev, DELTA)
        local = build_cluster_graph(
            spanner, cover, w_prev, DELTA, queries=queries, radius=radius
        )
        assert as_graph(local).num_edges < as_graph(full).num_edges
        verdicts = answer_spanner_queries(full, queries, PARAMS.t)
        np.testing.assert_array_equal(
            answer_spanner_queries(local, queries, PARAMS.t), verdicts
        )
        assert verdicts.any() and not verdicts.all()
        pairs = find_redundant_pairs(queries, full, PARAMS.t1, w_cur=w_cur)
        assert pairs[0].size  # the check below compares something
        for got, want in zip(
            find_redundant_pairs(queries, local, PARAMS.t1, w_cur=w_cur),
            pairs,
        ):
            np.testing.assert_array_equal(got, want)
        # Every distance within the region radius, bit for bit.
        ends = np.unique(np.concatenate([queries.u, queries.v]))
        for got, want in zip(
            pair_distance_entries(local, ends, ends, cutoff=radius),
            pair_distance_entries(full, ends, ends, cutoff=radius),
        ):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("forced", [True, False])
    def test_matrix_is_the_reference_graph_csr(self, forced, monkeypatch):
        """``H``'s matrix is, bit for bit, the ``Graph.csr()`` of the
        scalar reference ``H`` (restricted to ``U`` for the region
        ``H``): the rows steps iv and v read are a ``Graph``'s rows."""
        force_probe(monkeypatch, forced, paths_mod)
        spanner, cover, w_prev, _, queries, radius = _phase(4)
        ref = as_graph(
            build_cluster_graph_reference(spanner, cover, w_prev, DELTA)
        )
        region = _region(spanner, queries, radius)
        for kwargs, want in (
            ({}, ref.csr()),
            (
                {"queries": queries, "radius": radius},
                ref.subgraph(region).csr(),
            ),
        ):
            got = build_cluster_graph(
                spanner, cover, w_prev, DELTA, **kwargs
            ).csr()
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_no_queries_leaves_h_empty(self):
        spanner, cover, w_prev, _, _, radius = _phase(3)
        local = build_cluster_graph(
            spanner, cover, w_prev, DELTA, queries=batch([]), radius=radius
        )
        assert as_graph(local).num_edges == 0
        assert local.inter_center_degree() == 0

    def test_lemma6_degree_recorded_equals_counted(self):
        spanner, cover, w_prev, _, queries, radius = _phase(4)
        for kwargs in ({}, {"queries": queries, "radius": radius}):
            h = build_cluster_graph(spanner, cover, w_prev, DELTA, **kwargs)
            recorded = h.inter_center_degree()
            h._cache.clear()  # recount from H's edge arrays
            assert h.inter_center_degree() == recorded > 0


class TestLemma5CheckOutsideRegion:
    """The defensive check covers every crossing pair, not only U's."""

    @staticmethod
    def _inconsistent():
        # A 300-vertex path with unit edges.  Vertex 295 claims center
        # 280, 15 hops away, so the crossing edges (294, 295) and
        # (295, 296) ask for inter-cluster edges (280, 294) and
        # (280, 296), far beyond the Lemma 5 reach.
        n = 300
        g = Graph(n)
        g.add_weighted_edges_arrays(
            np.arange(n - 1), np.arange(1, n), np.ones(n - 1)
        )
        center = np.arange(n)
        dist = np.zeros(n)
        center[295], dist[295] = 280, 0.1
        centers = tuple(v for v in range(n) if v != 295)
        return g, ClusterCover(0.1, centers, center, dist)

    @pytest.mark.parametrize("forced", [True, False])
    def test_bad_pair_outside_region_raises(self, forced, monkeypatch):
        force_probe(monkeypatch, forced, paths_mod)
        g, cover = self._inconsistent()
        queries = batch([(0, 1, 1.0)])
        assert 280 not in _region(g, queries, 2.0)
        with pytest.raises(GraphError, match=r"\(280, 294\).*Lemma 5"):
            build_cluster_graph(
                g, cover, 1.0, 0.1, queries=queries, radius=2.0
            )
        with pytest.raises(GraphError, match=r"\(280, 294\).*Lemma 5"):
            build_cluster_graph(g, cover, 1.0, 0.1)


class TestReducedCover:
    @pytest.mark.parametrize("radius", [0.03, 0.06, 0.12])
    def test_mixed_short_and_long_edges(self, radius):
        wl = make_workload("uniform", 300, seed=4)
        grows = short_edge_mask(wl.graph, radius)
        assert 0 < grows.sum() < wl.graph.num_vertices
        assert_covers_equal(
            build_cluster_cover(wl.graph, radius),
            build_cluster_cover_reference(wl.graph, radius),
        )

    def test_reversed_order(self):
        wl = make_workload("clustered", 300, seed=6)
        order = list(range(299, -1, -1))
        for radius in (0.02, 0.08):
            got = build_cluster_cover(wl.graph, radius, order=order)
            ref = build_cluster_cover_reference(wl.graph, radius, order=order)
            assert_covers_equal(got, ref)
            assert got.centers[0] == 299

    def test_sub_universe(self):
        # Balls grow through the vertices left out of the universe.
        wl = make_workload("uniform", 300, seed=7)
        universe = [v for v in range(300) if v % 3]
        for radius in (0.05, 0.15):
            assert_covers_equal(
                build_cluster_cover(wl.graph, radius, vertices=universe),
                build_cluster_cover_reference(
                    wl.graph, radius, vertices=universe
                ),
            )

    def test_order_outside_universe_names_the_same_vertex(self):
        wl = make_workload("uniform", 300, seed=2)
        radius = 0.05
        grows = short_edge_mask(wl.graph, radius)
        alone = np.flatnonzero(~grows)[:2].tolist()  # searched from nowhere
        universe = [v for v in range(300) if v != alone[1]]
        order = [int(np.flatnonzero(grows)[0]), alone[0], alone[1], 7]
        for build in (build_cluster_cover, build_cluster_cover_reference):
            with pytest.raises(
                GraphError, match=f"vertex {alone[1]} outside the universe"
            ):
                build(wl.graph, radius, vertices=universe, order=order)

    def test_order_missing_a_vertex_still_raises(self):
        wl = make_workload("uniform", 300, seed=2)
        for build in (build_cluster_cover, build_cluster_cover_reference):
            with pytest.raises(GraphError, match="never covered"):
                build(wl.graph, 0.05, order=list(range(299)))


class TestReducedProximityGraph:
    @staticmethod
    def _j_from_all_sources(spanner, radius):
        n = spanner.num_vertices
        starts, ball_v, _ = multi_source_ball_lists(
            spanner, np.arange(n), radius
        )
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(starts))
        keep = src != ball_v
        us, vs = src[keep], ball_v[keep]
        keys = np.unique(np.concatenate([us * n + vs, vs * n + us]))
        return np.searchsorted(keys, np.arange(n + 1) * n), keys % n

    @pytest.mark.parametrize("forced", [True, False])
    def test_matches_search_from_all_sources(self, forced, monkeypatch):
        wl = make_workload("uniform", 300, seed=9)
        builder = DistributedRelaxedGreedy(PARAMS, seed=0)
        spanner = builder.build(wl.graph, wl.points.distance).spanner
        force_probe(monkeypatch, forced, dist_spanner_mod)
        for radius in (0.0, 0.05, 0.12, 0.3):
            indptr, indices = builder._proximity_graph(spanner, radius)
            want_indptr, want_indices = self._j_from_all_sources(
                spanner, radius
            )
            np.testing.assert_array_equal(indptr, want_indptr)
            np.testing.assert_array_equal(indices, want_indices)

    @pytest.mark.parametrize("radius", [0.04, 0.1])
    def test_cover_from_centers_matches_all_center_search(self, radius):
        wl = make_workload("uniform", 300, seed=10)
        centers = sorted(build_cluster_cover(wl.graph, radius).centers)
        assert 0 < short_edge_mask(wl.graph, radius)[centers].sum() < len(
            centers
        )
        got = cover_from_centers(wl.graph, radius, centers)
        center, dist = np.full(300, -1), np.full(300, np.inf)
        for c in centers:  # ascending: higher ids overwrite
            for v, d in dijkstra(wl.graph, c, cutoff=radius).items():
                center[v], dist[v] = c, d
        center[centers], dist[centers] = centers, 0.0
        assert np.array_equal(got.center, center)
        assert np.array_equal(got.dist, dist)
