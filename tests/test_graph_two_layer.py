"""Two-layer (base + tail) CSR snapshot: equivalence and heuristics.

The snapshot must be observationally identical to a from-scratch CSR
rebuild through every consumer -- the sparse frontier kernel relaxes
tail edges natively, so its distances are pinned bit-for-bit against a
rebuilt single-layer graph across randomized add/delete bursts -- while
append-burst refreshes stay tail-sized and the tail folds into the base
once it outgrows its fraction of the log.
"""

import numpy as np
import pytest

import repro.graphs.paths as paths_mod
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    multi_source_ball_lists,
    multi_source_distances,
    prefer_batched_sources,
)


def rebuild_reference(g: Graph) -> Graph:
    out = Graph(g.num_vertices)
    for u, v, w in g.edges():
        out.add_edge(u, v, w)
    return out


def random_mutation_burst(g: Graph, rng, adds=30, deletes=8):
    for _ in range(adds):
        a, b = int(rng.integers(g.num_vertices)), int(
            rng.integers(g.num_vertices)
        )
        if a != b:
            g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
    edges = list(g.edges())
    rng.shuffle(edges)
    for u, v, _ in edges[:deletes]:
        g.remove_edge(u, v)


@pytest.fixture()
def native_tail(monkeypatch):
    """Force the sparse kernel onto the native two-layer path even for
    small graphs (production only engages it past the nnz crossover)."""
    monkeypatch.setattr(paths_mod, "_TAIL_NATIVE_MIN_NNZ", 0)


class TestSnapshotDistanceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_bursts_match_rebuild(self, seed, native_tail):
        rng = np.random.default_rng(seed)
        g = Graph(70)
        for step in range(6):
            random_mutation_burst(g, rng)
            g.csr_snapshot()  # warm: later appends extend the tail
            for _ in range(20):
                a, b = int(rng.integers(70)), int(rng.integers(70))
                if a != b and not g.has_edge(a, b):
                    g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
            ref = rebuild_reference(g)
            sources = rng.choice(70, size=6, replace=False)
            cutoff = float(rng.uniform(0.3, 1.5))
            got = multi_source_ball_lists(g, sources, cutoff)
            want = multi_source_ball_lists(ref, sources, cutoff)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)  # bit-for-bit
            rows_got = multi_source_distances(g, sources, cutoff=cutoff)
            rows_want = multi_source_distances(ref, sources, cutoff=cutoff)
            assert np.array_equal(rows_got, rows_want)

    def test_tail_layer_actually_used(self, native_tail):
        g = Graph(40)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = int(rng.integers(40)), int(rng.integers(40))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        g.csr_snapshot()
        fresh = [v for v in range(20, 40) if not g.has_edge(0, v)][:5]
        assert fresh, "need at least one fresh edge for the tail"
        for v in fresh:  # small burst: stays in the tail
            g.add_edge(0, v, 0.05)
        snap = g.csr_snapshot()
        assert snap.has_tail and snap.num_tail_edges == len(fresh)
        ref = rebuild_reference(g)
        got = multi_source_ball_lists(g, [0], 0.2)
        want = multi_source_ball_lists(ref, [0], 0.2)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        # The tail-ignorant base alone would miss the new neighbors.
        assert snap.base[0, fresh[0]] == 0.0
        assert g.csr()[0, fresh[0]] == 0.05


class TestSnapshotLifecycle:
    def test_append_keeps_base_and_builds_tail(self):
        g = Graph(30)
        rng = np.random.default_rng(4)
        for _ in range(120):
            a, b = int(rng.integers(30)), int(rng.integers(30))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        base_before = g.csr_snapshot().base
        fresh = [v for v in range(1, 30) if not g.has_edge(0, v)][:3]
        for v in fresh:
            g.add_edge(0, v, 0.5)
        assert fresh, "need fresh edges to land in the tail"
        snap = g.csr_snapshot()
        assert snap.base is base_before  # base untouched by appends
        assert snap.has_tail
        # Tail slots are sorted by (src, dst) with both orientations.
        assert snap.tail_src.size == 2 * snap.num_tail_edges
        keys = snap.tail_src * g.num_vertices + snap.tail_dst
        assert (np.diff(keys) > 0).all()

    def test_append_bursts_alone_never_fold(self):
        g = Graph(50)
        rng = np.random.default_rng(5)
        for _ in range(60):
            a, b = int(rng.integers(50)), int(rng.integers(50))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        base = g.csr_snapshot().base
        # Append far more than the log itself (the old fixed-fraction
        # rule would fold many times over): with no tail consumer the
        # adaptive policy keeps every refresh tail-sized.
        m_before = g.num_edges
        added = 0
        while added <= 2 * m_before:
            a, b = int(rng.integers(50)), int(rng.integers(50))
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b, 0.3)
                added += 1
        snap = g.csr_snapshot()
        assert snap.has_tail and snap.num_tail_edges == added
        assert snap.base is base  # untouched: appends never fold

    def test_scan_work_folds_tail_into_base(self):
        g = Graph(50)
        rng = np.random.default_rng(5)
        for _ in range(60):
            a, b = int(rng.integers(50)), int(rng.integers(50))
            if a != b:
                g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
        g.csr_snapshot()
        fresh = [v for v in range(1, 50) if not g.has_edge(0, v)][:6]
        for v in fresh:
            g.add_edge(0, v, 0.3)
        snap = g.csr_snapshot()
        assert snap.has_tail
        # Hammer the tail until the accumulated scan work exceeds one
        # base rebuild (~2m directed entries); then the next refresh --
        # triggered by a single further append -- must compact.
        verts = np.arange(50, dtype=np.int64)
        budget = 2 * g.num_edges
        charged = 0
        while charged < budget:
            counts, _, _ = snap.tail_neighbors(verts)
            charged += verts.size + int(counts.sum())
        a, b = next(
            (a, b)
            for a in range(1, 50)
            for b in range(a + 1, 50)
            if not g.has_edge(a, b)
        )
        g.add_edge(a, b, 0.4)
        folded = g.csr_snapshot()
        assert not folded.has_tail
        assert folded.matrix() is folded.base

    def test_matrix_merge_charges_the_fold_accumulator(self):
        g = Graph(30)
        for i in range(29):
            g.add_edge(i, i + 1, 0.5)
        g.csr_snapshot()
        g.add_edge(0, 15, 0.5)
        g.csr()  # pays one base + tail merge -> next refresh folds
        g.add_edge(0, 20, 0.5)
        assert not g.csr_snapshot().has_tail

    def test_delete_and_overwrite_rebuild_base(self):
        g = Graph(10)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.csr_snapshot()
        g.remove_edge(0, 1)
        snap = g.csr_snapshot()
        assert not snap.has_tail and snap.matrix()[0, 1] == 0.0
        g.add_edge(1, 2, 5.0)  # weight overwrite
        assert g.csr()[1, 2] == 5.0

    def test_merge_pending_tracks_matrix_state(self):
        g = Graph(20)
        for i in range(10):
            g.add_edge(i, i + 1, 1.0)
        g.csr()
        assert not g.csr_merge_pending()
        g.add_edge(0, 15, 1.0)
        assert g.csr_merge_pending()
        g.csr()  # merges (or folds) and caches
        assert not g.csr_merge_pending()


class TestProbeHeuristics:
    def _graph_with_ball(self, n=2048, ball=170, seed=6):
        """A hub cluster of `ball` mutually-close vertices (so the probe
        ball crosses n/64) plus a sparse far-flung remainder."""
        rng = np.random.default_rng(seed)
        g = Graph(n)
        hub_u = []
        hub_v = []
        for i in range(1, ball):
            hub_u.append(0)
            hub_v.append(i)
        g.add_weighted_edges_arrays(
            np.asarray(hub_u), np.asarray(hub_v),
            np.full(len(hub_u), 0.01),
        )
        a = rng.integers(ball, n, 4 * n)
        b = rng.integers(ball, n, 4 * n)
        keep = a != b
        g.add_weighted_edges_arrays(
            a[keep], b[keep], np.full(int(keep.sum()), 10.0)
        )
        return g

    def test_crossover_flips_with_pending_tail(self, monkeypatch):
        monkeypatch.setattr(paths_mod, "_TAIL_NATIVE_MIN_NNZ", 0)
        g = self._graph_with_ball()
        g.csr()  # matrix materialized: dense is free
        sources = [0, 1, 2]
        cutoff = 0.5  # probe ball = the hub: > n/64 vertices
        assert prefer_batched_sources(g, sources, cutoff)
        # A tiny append stales the matrix; k * ball << m, so the dense
        # merge no longer amortizes and the probe flips to sparse.
        g.add_edge(0, g.num_vertices - 1, 0.7)
        assert g.csr_merge_pending()
        assert not prefer_batched_sources(g, sources, cutoff)
        # Once someone pays the merge, dense wins again.
        g.csr()
        assert prefer_batched_sources(g, sources, cutoff)

    def test_small_graphs_ignore_tail_rule(self):
        # Below the nnz crossover the merge is trivial: the pending
        # tail must not bias the probe (production threshold applies).
        g = self._graph_with_ball(n=2048)
        g.csr()
        g.add_edge(0, g.num_vertices - 1, 0.7)
        assert 2 * g.num_edges < paths_mod._TAIL_NATIVE_MIN_NNZ
        assert prefer_batched_sources(g, [0, 1, 2], 0.5)

    def test_tiny_ball_still_prefers_sparse(self):
        g = self._graph_with_ball()
        g.csr()
        # From a periphery vertex the probe ball is tiny -> sparse.
        assert not prefer_batched_sources(g, [2000, 2001], 0.5)
