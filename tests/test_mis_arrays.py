"""CSR-native MIS pipeline: dict-free Luby runs and their validation.

The distributed build keeps the proximity graph ``J`` as ``(indptr,
indices)`` arrays end-to-end; these tests pin the array path against the
dict path and against a full-topology engine run -- identical
accounting and identical chosen sets for every seed, although the array
runner hands only the nodes with a neighbour to the engine -- and the
engine's CSR-topology validation, labeled triples included.
"""

import numpy as np
import pytest
from oracles.mis import run_luby_mis

import repro.distributed.mis as mis_mod
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.distributed.engine import SynchronousNetwork
from repro.distributed.mis import (
    induced_csr,
    run_luby_mis_arrays,
    verify_mis_arrays,
)
from repro.distributed.protocols.luby import LubyMIS
from repro.exceptions import ProtocolError
from repro.experiments.workloads import make_workload
from repro.params import SpannerParams


def random_adjacency(n, p, seed):
    rng = np.random.default_rng(seed)
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def to_csr(adj):
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    rows = []
    for u in range(n):
        nbrs = sorted(adj[u])
        indptr[u + 1] = indptr[u] + len(nbrs)
        rows.extend(nbrs)
    return indptr, np.asarray(rows, dtype=np.int64)


def partly_isolated(n, linked, seed):
    """CSR graph on ``n`` nodes in which exactly ``linked`` random nodes
    have a neighbour: a random path through them plus random chords."""
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)[:linked].tolist()
    adj = {u: set() for u in range(n)}
    chords = list(zip(nodes, nodes[1:]))
    chords += [tuple(rng.choice(nodes, 2, replace=False)) for _ in range(linked)]
    for u, v in chords:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return to_csr(adj)


class TestLubyCsrEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_arrays_match_dict_runner(self, seed, p):
        adj = random_adjacency(60, p, seed)
        indptr, indices = to_csr(adj)
        dict_run = run_luby_mis(adj, seed=seed)
        csr_run = run_luby_mis_arrays(indptr, indices, seed=seed)
        chosen = frozenset(np.flatnonzero(csr_run.chosen).tolist())
        assert chosen == dict_run.independent_set
        assert csr_run.engine_rounds == dict_run.engine_rounds
        assert csr_run.messages == dict_run.messages

    @pytest.mark.parametrize("seed", [2, 5])
    def test_scalar_engine_matches_batch_on_csr_topology(self, seed):
        """The CSR-native batch run bills exactly what the per-node
        scalar reference bills on the same array topology."""
        indptr, indices = to_csr(random_adjacency(40, 0.2, seed))
        runs = {}
        for engine in ("scalar", "batch"):
            net = SynchronousNetwork((indptr, indices))
            runs[engine] = net.run(LubyMIS(seed=seed), engine=engine)
        assert runs["scalar"].rounds == runs["batch"].rounds
        assert runs["scalar"].messages == runs["batch"].messages
        assert runs["scalar"].words == runs["batch"].words
        assert list(runs["scalar"].outputs.items()) == list(
            runs["batch"].outputs.items()
        )

    def test_empty_and_isolated(self):
        for n in (0, 1, 3, 7):
            indptr = np.zeros(n + 1, dtype=np.int64)
            indices = np.empty(0, dtype=np.int64)
            full = SynchronousNetwork((indptr, indices)).run(LubyMIS(seed=4))
            run = run_luby_mis_arrays(indptr, indices, seed=4)
            assert run.chosen.tolist() == [True] * n
            assert list(full.outputs.values()) == [True] * n
            assert run.engine_rounds == full.rounds == 0
            assert run.messages == full.messages == 0


class TestNeighbourOnlyRuns:
    """The array runner chooses every degree-0 node itself and hands the
    engine only the nodes with a neighbour, under their own ids; the
    result must equal a Luby run over the full topology."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("linked", [120, 60, 3, 0])
    def test_matches_full_topology_run(self, seed, linked):
        indptr, indices = partly_isolated(120, linked, seed)
        full = SynchronousNetwork((indptr, indices)).run(LubyMIS(seed=seed))
        run = run_luby_mis_arrays(indptr, indices, seed=seed)
        assert run.chosen.tolist() == list(full.outputs.values())
        assert run.engine_rounds == full.rounds
        assert run.messages == full.messages
        assert not run.chosen.flags.writeable

    def test_engine_sees_only_nodes_with_a_neighbour(self, monkeypatch):
        seen = []

        class Recording(SynchronousNetwork):
            def run(self, protocol, *, engine="auto"):
                seen.append(self.nodes)
                return super().run(protocol, engine=engine)

        monkeypatch.setattr(mis_mod, "SynchronousNetwork", Recording)
        indptr, indices = partly_isolated(50, 4, seed=2)
        linked = np.flatnonzero(np.diff(indptr) > 0).tolist()
        run_luby_mis_arrays(indptr, indices, seed=2)
        assert seen == [linked]
        run_luby_mis_arrays(np.zeros(6, dtype=np.int64), np.empty(0, np.int64))
        assert seen == [linked]  # all isolated: no engine run at all

    @pytest.mark.parametrize(
        "indptr, indices, kwargs, match",
        [
            # Node 0 lists node 1, whose row is empty.
            ([0, 1, 1], [1], {}, "not symmetric"),
            ([0, 1, 2], [0, 0], {}, "self-loop"),
            ([0, 2, 3, 4], [2, 1, 0, 0], {}, "ascending"),
            ([0, 1, 2], [1, 5], {}, "out of range"),
            ([1, 1], [], {}, "span"),
            ([0, 0, 0, 0], [], {"max_rounds": 0}, "max_rounds"),
            ([0, 1, 2, 2], [1, 0], {"max_rounds": 0}, "max_rounds"),
        ],
    )
    def test_bad_input_still_rejected(self, indptr, indices, kwargs, match):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        with pytest.raises(ProtocolError, match=match):
            run_luby_mis_arrays(indptr, indices, **kwargs)


class TestLabeledTopology:
    """``(indptr, indices, labels)``: compact CSR rows, original ids."""

    @staticmethod
    def labeled(seed):
        indptr, indices = to_csr(random_adjacency(60, 0.1, seed))
        keep = np.random.default_rng(seed).random(60) < 0.5
        return induced_csr(indptr, indices, keep)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_scalar_and_batch_tiers_agree(self, seed):
        topology = self.labeled(seed)
        labels = topology[2]
        assert (np.diff(labels) > 1).any()  # non-contiguous ids
        runs = {
            engine: SynchronousNetwork(topology).run(
                LubyMIS(seed=seed), engine=engine
            )
            for engine in ("scalar", "batch")
        }
        scalar, batch = runs["scalar"], runs["batch"]
        assert scalar.rounds == batch.rounds
        assert scalar.messages == batch.messages
        assert scalar.words == batch.words
        assert list(scalar.outputs.items()) == list(batch.outputs.items())
        assert list(batch.outputs) == labels.tolist()

    def test_nodes_and_scalar_adjacency_use_labels(self):
        indptr, indices = to_csr({0: {1}, 1: {0, 2}, 2: {1}})
        net = SynchronousNetwork((indptr, indices, np.array([3, 8, 20])))
        assert net.nodes == [3, 8, 20]
        assert net._scalar_adj() == {3: (8,), 8: (3, 20), 20: (8,)}

    @pytest.mark.parametrize(
        "labels, match",
        [
            ([3, 3, 20], "strictly ascending"),
            ([8, 3, 20], "strictly ascending"),
            ([3, 8], "each of the 3 nodes"),
            ([[3, 8, 20]], "each of the 3 nodes"),
        ],
    )
    def test_rejects_bad_labels(self, labels, match):
        indptr, indices = to_csr({0: {1}, 1: {0, 2}, 2: {1}})
        with pytest.raises(ProtocolError, match=match):
            SynchronousNetwork((indptr, indices, np.asarray(labels)))

    def test_rejects_other_tuple_lengths(self):
        indptr, indices = to_csr({0: {1}, 1: {0}})
        with pytest.raises(ProtocolError, match="4-tuple"):
            SynchronousNetwork((indptr, indices, np.arange(2), None))


class TestVerifyMisArrays:
    def test_accepts_valid(self):
        indptr, indices = to_csr({0: {1}, 1: {0, 2}, 2: {1}})
        verify_mis_arrays(indptr, indices, np.array([True, False, True]))

    def test_rejects_dependent(self):
        indptr, indices = to_csr({0: {1}, 1: {0}})
        with pytest.raises(ProtocolError, match="independent"):
            verify_mis_arrays(indptr, indices, np.array([True, True]))

    def test_rejects_non_maximal(self):
        indptr, indices = to_csr({0: {1}, 1: {0}, 2: set()})
        with pytest.raises(ProtocolError, match="maximal"):
            verify_mis_arrays(
                indptr, indices, np.array([True, False, False])
            )


class TestEngineCsrTopology:
    def test_rejects_self_loop(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 0], dtype=np.int64)
        with pytest.raises(ProtocolError, match="self-loop"):
            SynchronousNetwork((indptr, indices))

    def test_rejects_asymmetric(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        with pytest.raises(ProtocolError, match="symmetric"):
            SynchronousNetwork((indptr, indices))

    def test_rejects_unsorted_rows(self):
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([2, 1, 0, 0], dtype=np.int64)
        with pytest.raises(ProtocolError, match="ascending"):
            SynchronousNetwork((indptr, indices))

    def test_nodes_and_scalar_adjacency(self):
        indptr, indices = to_csr({0: {1}, 1: {0, 2}, 2: {1}})
        net = SynchronousNetwork((indptr, indices))
        assert net.nodes == [0, 1, 2]
        assert net._scalar_adj()[1] == (0, 2)


class TestProximityGraphCsr:
    def test_build_matches_dict_reference(self):
        """The CSR proximity graph equals the dict-of-sets reference
        derived from the same pairwise distances."""
        wl = make_workload("uniform", 120, seed=9)
        params = SpannerParams.from_epsilon(0.5)
        builder = DistributedRelaxedGreedy(params, seed=0)
        spanner = builder.build(wl.graph, wl.points.distance).spanner
        from repro.graphs.paths import dijkstra

        for radius in (0.05, 0.15):
            indptr, indices = builder._proximity_graph(spanner, radius)
            n = spanner.num_vertices
            assert indptr.size == n + 1
            reference = {
                u: {
                    v
                    for v, d in dijkstra(spanner, u, cutoff=radius).items()
                    if v != u
                }
                for u in range(n)
            }
            for u in range(n):
                row = indices[indptr[u] : indptr[u + 1]]
                assert (np.diff(row) > 0).all() or row.size <= 1
                assert set(row.tolist()) == reference[u]
