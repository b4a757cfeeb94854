"""Batch-tier engine tests: edge cases + scalar-vs-batch equivalence.

The batch tier's contract is *exact* equivalence with the scalar
reference tier -- same rounds, same message and word totals, same
outputs in the same insertion order -- on every topology, including the
awkward ones (disconnected, isolated nodes, gapped labels, zero-message
protocols, budget exhaustion mid-run).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.mis import run_luby_mis

from repro.distributed.engine import (
    BatchContext,
    BatchProtocol,
    Protocol,
    SynchronousNetwork,
)
from repro.distributed.mis import verify_mis
from repro.distributed.protocols.bfs import BFSTree
from repro.distributed.protocols.flooding import KHopGather
from repro.distributed.protocols.leader import LeaderElection
from repro.distributed.protocols.luby import LubyMIS
from repro.exceptions import ProtocolError, SimulationLimitError
from repro.graphs.graph import Graph


def random_adjacency(n: int, m: int, seed: int) -> dict[int, set[int]]:
    rng = np.random.default_rng(seed)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for _ in range(m):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def two_components() -> Graph:
    """A path 0-1-2 plus a disjoint triangle 3-4-5 plus isolated 6."""
    g = Graph(7)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 5, 1.0)
    g.add_edge(3, 5, 1.0)
    return g


def assert_equal_runs(net: SynchronousNetwork, protocol) -> None:
    scalar = net.run(protocol, engine="scalar")
    batch = net.run(protocol, engine="batch")
    assert scalar.rounds == batch.rounds
    assert scalar.messages == batch.messages
    assert scalar.words == batch.words
    assert scalar.outputs == batch.outputs
    # Insertion order is part of the contract (ascending node id).
    assert list(scalar.outputs) == list(batch.outputs)


class SilentBatchHalt(BatchProtocol):
    """Zero-message batch protocol: everyone halts in the first round."""

    name = "silent-batch"

    def on_start(self, ctx):
        return None

    def on_round(self, ctx, inbox):
        ctx.halt()
        return None

    def on_start_batch(self, net: BatchContext) -> None:
        pass

    def on_round_batch(self, net: BatchContext) -> None:
        net.halt(np.ones(net.num_nodes, dtype=bool))

    def outputs_batch(self, net: BatchContext):
        return {int(u): None for u in net.labels}


class ChattyBatch(BatchProtocol):
    """Never halts: must trip the round limit mid-batch."""

    name = "chatty-batch"

    def on_start_batch(self, net: BatchContext) -> None:
        net.post(net.num_slots, net.num_slots)

    def on_round_batch(self, net: BatchContext) -> None:
        net.post(net.num_slots, net.num_slots)


class TestEngineSelection:
    def test_auto_picks_batch_for_capable_protocols(self):
        assert getattr(LubyMIS(), "supports_batch", False)

    def test_bad_engine_name_rejected(self):
        net = SynchronousNetwork(two_components())
        with pytest.raises(ProtocolError, match="engine"):
            net.run(LubyMIS(), engine="turbo")

    def test_batch_requires_batch_protocol(self):
        class ScalarOnly(Protocol):
            name = "scalar-only"

            def on_round(self, ctx, inbox):
                ctx.halt()
                return None

        net = SynchronousNetwork(two_components())
        with pytest.raises(ProtocolError, match="batch"):
            net.run(ScalarOnly(), engine="batch")
        # auto falls back to the scalar tier without complaint.
        assert net.run(ScalarOnly(), engine="auto").rounds == 1

    def test_graph_self_loop_rejected(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g._adj[2][2] = 1.0  # bypass add_edge's own validation
        with pytest.raises(ProtocolError, match="self-loop"):
            SynchronousNetwork(g)

    def test_mapping_self_loop_rejected(self):
        with pytest.raises(ProtocolError, match="self-loop"):
            SynchronousNetwork({1: {1}})


class TestBatchEdgeCases:
    def test_zero_message_protocol(self):
        net = SynchronousNetwork(two_components())
        assert_equal_runs(net, SilentBatchHalt())
        result = net.run(SilentBatchHalt(), engine="batch")
        assert result.rounds == 1  # one silent compute round
        assert result.messages == 0
        assert result.words == 0

    def test_zero_hop_gather_is_zero_rounds(self):
        net = SynchronousNetwork(two_components())
        assert_equal_runs(net, KHopGather({0: {"x"}}, 0))
        result = net.run(KHopGather({0: {"x"}}, 0), engine="batch")
        assert result.rounds == 0

    def test_max_rounds_exhaustion_mid_batch(self):
        net = SynchronousNetwork(two_components(), max_rounds=5)
        with pytest.raises(SimulationLimitError, match="exceeded 5"):
            net.run(ChattyBatch(), engine="batch")

    def test_max_rounds_same_boundary_both_tiers(self):
        """BFS patience exceeding the budget trips the limit identically."""
        g = two_components()
        for engine in ("scalar", "batch"):
            net = SynchronousNetwork(g, max_rounds=6)
            with pytest.raises(SimulationLimitError):
                net.run(BFSTree(0, patience=50), engine=engine)

    def test_disconnected_bfs(self):
        net = SynchronousNetwork(two_components())
        protocol = BFSTree(0, patience=10)
        assert_equal_runs(net, protocol)
        outputs = net.run(protocol, engine="batch").outputs
        assert outputs[0] == (0, 0)
        assert outputs[2] == (2, 1)
        assert outputs[4] == (None, None)  # other component
        assert outputs[6] == (None, None)  # isolated

    def test_disconnected_luby(self):
        net = SynchronousNetwork(two_components())
        assert_equal_runs(net, LubyMIS(seed=3))
        outputs = net.run(LubyMIS(seed=3), engine="batch").outputs
        assert outputs[6] is True  # isolated nodes always join
        adj = {u: set(two_components().neighbors(u)) for u in range(7)}
        verify_mis(adj, {u for u, f in outputs.items() if f})

    def test_disconnected_flooding_respects_components(self):
        net = SynchronousNetwork(two_components())
        facts = {u: {("f", u)} for u in range(7)}
        protocol = KHopGather(facts, 3)
        assert_equal_runs(net, protocol)
        outputs = net.run(protocol, engine="batch").outputs
        assert outputs[0] == {("f", 0), ("f", 1), ("f", 2)}
        assert outputs[3] == {("f", 3), ("f", 4), ("f", 5)}
        assert outputs[6] == {("f", 6)}

    def test_gapped_mapping_labels(self):
        topology = {100: {7}, 7: {100, 55}, 55: set(), 9: set()}
        net = SynchronousNetwork(topology)
        for protocol in (
            LubyMIS(seed=1),
            KHopGather({100: {"a"}, 9: {"b"}}, 2),
            BFSTree(7, patience=4),
            LeaderElection(rounds=3),
        ):
            assert_equal_runs(net, protocol)

    def test_empty_topology(self):
        net = SynchronousNetwork({})
        result = net.run(LubyMIS(), engine="batch")
        assert result.rounds == 0
        assert result.outputs == {}

    def test_bfs_root_absent(self):
        net = SynchronousNetwork({1: {2}, 2: {1}})
        assert_equal_runs(net, BFSTree(99, patience=3))

    def test_bfs_patience_truncates_wave_identically(self):
        """patience < distance cuts the wave; tiers must agree exactly."""
        g = Graph(6)
        for i in range(5):
            g.add_edge(i, i + 1, 1.0)
        net = SynchronousNetwork(g)
        assert_equal_runs(net, BFSTree(0, patience=3))
        outputs = net.run(BFSTree(0, patience=3), engine="batch").outputs
        assert outputs[3] == (3, 2)
        assert outputs[4] == (None, None)  # gave up one round too early


class TestScalarBatchEquivalence:
    """Seeded protocol runs must match between tiers, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 30),
        st.integers(0, 90),
        st.integers(0, 10_000),
    )
    def test_luby_equivalence_random(self, n, m, seed):
        adj = random_adjacency(n, m, seed)
        net = SynchronousNetwork(adj)
        assert_equal_runs(net, LubyMIS(seed=seed))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 60), st.integers(0, 1000))
    def test_bfs_equivalence_random(self, n, m, seed):
        adj = random_adjacency(n, m, seed)
        net = SynchronousNetwork(adj)
        assert_equal_runs(net, BFSTree(seed % n, patience=40))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 60), st.integers(0, 1000))
    def test_flooding_equivalence_random(self, n, m, seed):
        adj = random_adjacency(n, m, seed)
        facts = {u: {("fact", u)} for u in range(0, n, 2)}
        net = SynchronousNetwork(adj)
        assert_equal_runs(net, KHopGather(facts, k=seed % 4))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 60), st.integers(0, 1000))
    def test_leader_equivalence_random(self, n, m, seed):
        adj = random_adjacency(n, m, seed)
        net = SynchronousNetwork(adj)
        assert_equal_runs(net, LeaderElection(rounds=max(1, n // 2)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mis_runner_engine_tiers_agree(self, seed):
        adj = random_adjacency(40, 120, seed)
        scalar = run_luby_mis(adj, seed=seed, engine="scalar")
        batch = run_luby_mis(adj, seed=seed, engine="batch")
        auto = run_luby_mis(adj, seed=seed)
        assert scalar.independent_set == batch.independent_set
        assert scalar.engine_rounds == batch.engine_rounds == auto.engine_rounds
        assert scalar.messages == batch.messages == auto.messages

    def test_luby_protocol_object_reusable_across_runs(self):
        protocol = LubyMIS(seed=5)
        net = SynchronousNetwork(random_adjacency(15, 30, 5))
        first = net.run(protocol, engine="batch")
        second = net.run(protocol, engine="batch")
        assert first.outputs == second.outputs
        assert first.rounds == second.rounds
        assert_equal_runs(net, protocol)
