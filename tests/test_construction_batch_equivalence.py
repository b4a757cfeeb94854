"""Batched construction kernels vs their scalar references, bit for bit.

Every array port of the construction core -- ball-growing cover,
center-based cover, cluster-graph assembly, redundancy pair detection,
query answering, covered-edge filtering, edge binning -- is pinned here
against the retained scalar reference on randomized workloads: equal
centers, assignments, distances (exact float equality), graphs, pair
lists and verdicts.
"""

import numpy as np
import pytest
from oracles.cluster_graph import as_graph, build_cluster_graph_reference
from oracles.covered import split_covered_reference
from oracles.edges import batch, tuples
from oracles.redundancy import find_redundant_pairs_reference

import repro.graphs.paths as paths_mod
from repro.core.bins import EdgeBinning
from repro.core.cluster_graph import (
    ClusterGraph,
    answer_spanner_queries,
    build_cluster_graph,
)
from repro.core.cover import (
    build_cluster_cover,
    build_cluster_cover_reference,
    cover_from_centers,
)
from repro.core.covered import split_covered
from repro.core.redundancy import find_redundant_pairs
from repro.core.relaxed_greedy import build_spanner
from repro.exceptions import GraphError
from repro.experiments.workloads import make_workload
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    dijkstra,
    dijkstra_distance,
    multi_source_ball_lists,
)


def assert_covers_equal(a, b):
    assert a.centers == b.centers
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.dist, b.dist)


RADII = (0.0, 0.03, 0.1, 0.3, 1.0, 4.0)


class TestSparseBallKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ball_lists_match_dict_dijkstra(self, seed):
        wl = make_workload("clustered", 150, seed=seed)
        g = wl.graph
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(g.num_vertices, 25, replace=False))
        for cutoff in (0.0, 0.08, 0.4, 2.0):
            starts, verts, dists = multi_source_ball_lists(
                g, sources, cutoff
            )
            for i, s in enumerate(sources.tolist()):
                got = dict(
                    zip(
                        verts[starts[i] : starts[i + 1]].tolist(),
                        dists[starts[i] : starts[i + 1]].tolist(),
                    )
                )
                assert got == dijkstra(g, s, cutoff=cutoff)


class TestClusterCoverEquivalence:
    @pytest.mark.parametrize("scenario,n", [("uniform", 300), ("corridor", 280)])
    def test_reduced_cover_matches_reference(self, scenario, n):
        wl = make_workload(scenario, n, seed=5)
        # At least 256 vertices, like every pin of the reduced kernels.
        assert wl.graph.num_vertices >= 256
        for radius in RADII:
            batched = build_cluster_cover(wl.graph, radius)
            scalar = build_cluster_cover_reference(wl.graph, radius)
            assert_covers_equal(batched, scalar)

    def test_explicit_order_and_universe(self):
        wl = make_workload("uniform", 300, seed=9)
        rng = np.random.default_rng(9)
        order = rng.permutation(300).tolist()
        universe = sorted(rng.choice(300, 220, replace=False).tolist())
        order_u = [u for u in order if u in set(universe)]
        assert wl.graph.num_vertices >= 256
        for radius in (0.05, 0.4):
            batched = build_cluster_cover(
                wl.graph, radius, vertices=universe, order=order_u
            )
            scalar = build_cluster_cover_reference(
                wl.graph, radius, vertices=universe, order=order_u
            )
            assert_covers_equal(batched, scalar)

    def test_order_outside_universe_raises_like_reference(self):
        wl = make_workload("uniform", 300, seed=2)
        universe = list(range(200))
        from repro.exceptions import GraphError

        assert wl.graph.num_vertices >= 256
        with pytest.raises(GraphError, match="outside the universe"):
            build_cluster_cover(
                wl.graph, 0.2, vertices=universe, order=[0, 250]
            )
        with pytest.raises(GraphError, match="outside the universe"):
            build_cluster_cover_reference(
                wl.graph, 0.2, vertices=universe, order=[0, 250]
            )

    def test_auto_kernel_matches_reference(self):
        wl = make_workload("uniform", 400, seed=3)
        for radius in RADII:
            assert_covers_equal(
                build_cluster_cover(wl.graph, radius),
                build_cluster_cover_reference(wl.graph, radius),
            )


class TestCoverFromCentersEquivalence:
    def test_matches_handwritten_scalar_reference(self):
        wl = make_workload("uniform", 280, seed=13)
        radius = 0.35
        centers = sorted(build_cluster_cover(wl.graph, radius).centers)
        got = cover_from_centers(wl.graph, radius, centers)
        center = np.full(wl.graph.num_vertices, -1)
        dist = np.full(wl.graph.num_vertices, np.inf)
        for c in centers:  # ascending: higher ids overwrite
            for v, d in dijkstra(wl.graph, c, cutoff=radius).items():
                center[v], dist[v] = c, d
        center[centers], dist[centers] = centers, 0.0
        assert np.array_equal(got.center, center)
        assert np.array_equal(got.dist, dist)


def _phase_inputs(scenario, n, seed, radius_scale):
    """A realistic mid-phase state: partial spanner + cover + binning."""
    wl = make_workload(scenario, n, seed=seed)
    g = wl.graph
    us, vs, ws = g.edges_arrays()
    w_prev = float(np.quantile(ws, 0.3)) if ws.size else 0.1
    keep = ws <= w_prev
    spanner_edges = list(
        zip(us[keep].tolist(), vs[keep].tolist(), ws[keep].tolist())
    )
    from repro.graphs.graph import Graph

    spanner = Graph(n)
    for u, v, w in spanner_edges:
        spanner.add_edge(u, v, w)
    delta = 0.25 * radius_scale
    cover = build_cluster_cover(spanner, delta * w_prev)
    return wl, spanner, cover, w_prev, delta


class TestClusterGraphEquivalence:
    @pytest.mark.parametrize(
        "scenario,n,scale", [("uniform", 300, 1.0), ("clustered", 260, 2.0)]
    )
    def test_matches_reference(self, scenario, n, scale):
        _, spanner, cover, w_prev, delta = _phase_inputs(
            scenario, n, 7, scale
        )
        got = build_cluster_graph(spanner, cover, w_prev, delta)
        ref = build_cluster_graph_reference(spanner, cover, w_prev, delta)
        assert as_graph(got) == as_graph(ref)
        assert got.num_intra_edges == ref.num_intra_edges
        assert got.num_inter_edges == ref.num_inter_edges
        assert got.inter_center_degree() == ref.inter_center_degree()

    def test_both_probe_branches_match_reference(self, monkeypatch):
        _, spanner, cover, w_prev, delta = _phase_inputs("uniform", 300, 8, 1.0)
        ref = build_cluster_graph_reference(spanner, cover, w_prev, delta)
        for forced in (True, False):
            monkeypatch.setattr(
                paths_mod,
                "prefer_batched_sources",
                lambda g, s, c, _f=forced: _f,
            )
            got = build_cluster_graph(spanner, cover, w_prev, delta)
            assert as_graph(got) == as_graph(ref)
            assert got.num_inter_edges == ref.num_inter_edges


def redundant_pairs(added, h, t1, *, w_cur):
    """``find_redundant_pairs`` on a tuple list, its index pairs read
    back as the reference's ``(edge, edge)`` pairs."""
    i, j = find_redundant_pairs(batch(added), h, t1, w_cur=w_cur)
    return [(added[a], added[b]) for a, b in zip(i.tolist(), j.tolist())]


class TestRedundancyEquivalence:
    def _added_edges(self, seed, k=18):
        _, spanner, cover, w_prev, delta = _phase_inputs("uniform", 300, seed, 1.0)
        h = build_cluster_graph(spanner, cover, w_prev, delta)
        rng = np.random.default_rng(seed)
        added = []
        seen = set()
        while len(added) < k:
            u, v = int(rng.integers(300)), int(rng.integers(300))
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                added.append((u, v, float(rng.uniform(w_prev, 2 * w_prev))))
        return added, h, w_prev

    @pytest.mark.parametrize("seed", [0, 4])
    def test_pairs_match_reference(self, seed):
        added, h, w_prev = self._added_edges(seed)
        for t1 in (1.2, 2.0, 4.0):
            got = redundant_pairs(added, h, t1, w_cur=2 * w_prev)
            ref = find_redundant_pairs_reference(
                added, h, t1, w_cur=2 * w_prev
            )
            assert got == ref

    def test_both_probe_branches_match(self, monkeypatch):
        # The dense/sparse pick now lives in paths.pair_distances (the
        # shared graph-metric pairs kernel); force it both ways there.
        added, h, w_prev = self._added_edges(1)
        ref = find_redundant_pairs_reference(added, h, 2.5, w_cur=2 * w_prev)
        for forced in (True, False):
            monkeypatch.setattr(
                paths_mod,
                "prefer_batched_sources",
                lambda g, s, c, _f=forced: _f,
            )
            assert redundant_pairs(added, h, 2.5, w_cur=2 * w_prev) == ref


def _hand_h(n, edges):
    """A hand-built ``H`` over ``n`` vertices (cover content is not read
    by the pair search)."""
    g = Graph(n)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return ClusterGraph(
        matrix=g.csr(),
        cover=build_cluster_cover(g, 0.0),
        w_prev=1.0,
        num_intra_edges=0,
        num_inter_edges=0,
    )


class TestSparsePairSearch:
    """Step v reads only the finite endpoint distances; on hand-built
    inputs it must list the reference's pairs, in the reference's order,
    through both branches of the entries kernel."""

    @pytest.fixture(params=[True, False], ids=["dense", "sparse"])
    def branch(self, request, monkeypatch):
        monkeypatch.setattr(
            paths_mod,
            "prefer_batched_sources",
            lambda g, s, c, _f=request.param: _f,
        )

    @staticmethod
    def _both(added, h, t1, w_cur):
        got = redundant_pairs(added, h, t1, w_cur=w_cur)
        assert got == find_redundant_pairs_reference(
            added, h, t1, w_cur=w_cur
        )
        return got

    def test_endpoint_shared_by_many_edges(self, branch):
        # Vertex 0 is the first endpoint of four edges and the second
        # endpoint of a fifth; their far ends sit close together in H.
        h = _hand_h(
            8,
            [(1, 2, 0.02), (2, 3, 0.02), (3, 4, 0.02), (4, 5, 0.02),
             (6, 7, 0.5)],
        )
        added = [
            (0, 1, 1.0), (0, 2, 1.0), (5, 0, 1.0), (0, 3, 1.01),
            (0, 4, 0.99), (6, 7, 1.0),
        ]
        got = self._both(added, h, 1.2, 1.0)
        shared = [e for e in added if 0 in e[:2]]
        assert len(shared) >= 3
        assert len(got) == len(shared) * (len(shared) - 1) // 2

    def test_pair_only_the_second_pairing_makes_redundant(self, branch):
        # sp(u_i, v_j) = sp(0, 2) and sp(v_i, u_j) = sp(1, 3) are tiny;
        # the first pairing's sp(0, 3) and sp(1, 2) are beyond the cutoff.
        h = _hand_h(4, [(0, 2, 0.01), (1, 3, 0.01)])
        added = [(0, 1, 1.0), (3, 2, 1.0)]
        assert self._both(added, h, 1.2, 1.0) == [(added[0], added[1])]
        # Orienting the second edge the other way makes the first pairing
        # the redundant one: the same pair either way.
        flipped = [(0, 1, 1.0), (2, 3, 1.0)]
        assert self._both(flipped, h, 1.2, 1.0) == [(flipped[0], flipped[1])]

    def test_many_pairs_keep_the_reference_order(self, branch):
        # Twelve parallel unit edges (2i, 2i + 1) over two short H-chains:
        # every pair is redundant.  Shuffled order and mixed orientation
        # make the list order a real check.
        k = 12
        chain = [(2 * i, 2 * i + 2, 0.01) for i in range(k - 1)]
        chain += [(2 * i + 1, 2 * i + 3, 0.01) for i in range(k - 1)]
        h = _hand_h(2 * k, chain)
        rng = np.random.default_rng(5)
        added = []
        for i in rng.permutation(k).tolist():
            u, v = 2 * i, 2 * i + 1
            added.append((v, u, 1.0) if i % 3 == 0 else (u, v, 1.0))
        got = self._both(added, h, 1.5, 1.0)
        assert len(got) >= 50
        index = {e: i for i, e in enumerate(added)}
        order = [(index[a], index[b]) for a, b in got]
        assert order == sorted(order) and all(i < j for i, j in order)

    def test_distance_read_from_the_first_edges_row(self, branch):
        # On the H-path 0 - 1 - 2 - 3 with weights 0.1, 0.2, 0.3 the
        # float sums differ by direction: sp(0, 3) = 0.6000000000000001
        # from 0's row, sp(3, 0) = 0.6 from 3's row.  The threshold sits
        # between them, so the verdict depends on which row is read.
        h = _hand_h(5, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)])
        assert 0.1 + 0.2 + 0.3 > 0.3 + 0.2 + 0.1
        added = [(3, 4, 0.25), (0, 4, 0.25)]
        t1 = 4.0 * (0.6 + 0.25)
        assert self._both(added, h, t1, 0.25) == [(added[0], added[1])]
        assert self._both(added[::-1], h, t1, 0.25) == []

    @pytest.mark.parametrize("t1", [1.0, 0.5])
    def test_t1_at_most_one_raises(self, branch, t1):
        h = _hand_h(4, [(0, 2, 0.01), (1, 3, 0.01)])
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        for search in (redundant_pairs, find_redundant_pairs_reference):
            with pytest.raises(GraphError, match="t1 must be > 1"):
                search(added, h, t1, w_cur=1.0)


class TestQueryAnswering:
    def test_verdicts_match_scalar_distance(self, monkeypatch):
        _, spanner, cover, w_prev, delta = _phase_inputs("uniform", 300, 6, 1.0)
        h = build_cluster_graph(spanner, cover, w_prev, delta)
        rng = np.random.default_rng(6)
        queries = [
            (int(rng.integers(300)), int(rng.integers(299)), float(rng.uniform(0.01, 0.5)))
            for _ in range(40)
        ]
        queries = [(x, y if y < x else y + 1, w) for x, y, w in queries]
        t = 1.5
        hg = as_graph(h)
        expected = [
            dijkstra_distance(hg, x, y, cutoff=t * w) > t * w
            for x, y, w in queries
        ]
        for forced in (True, False):
            monkeypatch.setattr(
                paths_mod,
                "prefer_batched_sources",
                lambda g, s, c, _f=forced: _f,
            )
            got = answer_spanner_queries(h, batch(queries), t)
            assert got.tolist() == expected


class TestCoveredFilterEquivalence:
    @pytest.mark.parametrize("scenario", ["uniform", "clustered"])
    def test_batch_oracle_matches_scalar_oracle(self, scenario):
        wl, spanner, _, w_prev, _ = _phase_inputs(scenario, 280, 12, 1.0)
        us, vs, ws = wl.graph.edges_arrays()
        sel = ws > w_prev
        bin_edges = list(
            zip(us[sel].tolist(), vs[sel].tolist(), ws[sel].tolist())
        )[:300]
        edges = batch(bin_edges)
        got = split_covered(
            edges, spanner, wl.points.distance, alpha=1.0, theta=0.5
        )
        scalar_oracle = lambda u, v: wl.points.distance(u, v)  # noqa: E731
        scalar = split_covered(
            edges, spanner, scalar_oracle, alpha=1.0, theta=0.5
        )
        assert np.array_equal(got, scalar)
        # A bare callable rides the same array scan, one oracle call per
        # pair; it must partition exactly like the per-edge reference.
        assert len(bin_edges) >= 256
        partition = (tuples(edges.take(~scalar)), tuples(edges.take(scalar)))
        assert partition == split_covered_reference(
            bin_edges, spanner, scalar_oracle, alpha=1.0, theta=0.5
        )
        assert partition[0] and partition[1]


class TestBinningEquivalence:
    def test_bins_of_matches_bin_of(self):
        binning = EdgeBinning(1.3, 0.8, 500)
        rng = np.random.default_rng(3)
        lengths = np.concatenate(
            [
                rng.uniform(1e-6, 1.0, 400),
                binning._boundaries(),  # exact boundary hits
                [0.8 / 500],
            ]
        )
        assert binning.bins_of(lengths).tolist() == [
            binning.bin_of(float(w)) for w in lengths
        ]

    def test_assign_matches_scalar_walk(self):
        binning = EdgeBinning(1.4, 1.0, 300)
        rng = np.random.default_rng(4)
        edges = [
            (int(rng.integers(300)), int(rng.integers(300)), float(w))
            for w in rng.uniform(1e-5, 1.0, 500)
        ]
        got = binning.assign(batch(edges))
        ref: dict = {}
        for u, v, w in edges:
            ref.setdefault(binning.bin_of(w), []).append((u, v, w))
        assert {i: tuples(e) for i, e in got.items()} == ref
        assert list(got) == sorted(ref)  # ascending keys

    def test_assign_error_matches_scalar_walk(self):
        from repro.exceptions import GraphError

        binning = EdgeBinning(1.5, 1.0, 100)
        with pytest.raises(GraphError, match="must be positive"):
            binning.assign(batch([(0, 1, 0.5), (1, 2, -1.0), (2, 3, 99.0)]))
        with pytest.raises(GraphError, match="exceeds top bin"):
            binning.assign(batch([(0, 1, 0.5), (1, 2, 99.0), (2, 3, -1.0)]))


class TestEndToEndPinning:
    def test_spanner_identical_under_forced_probe(self, monkeypatch):
        wl = make_workload("uniform", 350, seed=21)
        baseline = build_spanner(wl.graph, wl.points.distance, 0.5)
        base_edges = sorted(baseline.spanner.edges())
        base_phases = [
            (p.index, p.num_clusters, p.num_queries, p.num_added, p.num_removed)
            for p in baseline.phases
        ]
        for forced in (True, False):
            # Steps iii-v consult the probe only through the pair
            # kernels of paths_mod, so patching it there covers them.
            monkeypatch.setattr(
                paths_mod,
                "prefer_batched_sources",
                lambda g, s, c, _f=forced: _f,
            )
            result = build_spanner(wl.graph, wl.points.distance, 0.5)
            assert sorted(result.spanner.edges()) == base_edges
            assert [
                (p.index, p.num_clusters, p.num_queries, p.num_added, p.num_removed)
                for p in result.phases
            ] == base_phases
