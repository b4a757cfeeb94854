"""Tests for flooding, Luby MIS and convergecast protocols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.mis import run_luby_mis
from oracles.paths import k_hop_neighborhood

from repro.distributed.engine import SynchronousNetwork
from repro.distributed.mis import verify_mis
from repro.distributed.protocols.aggregate import ConvergecastSum
from repro.distributed.protocols.flooding import KHopGather
from repro.exceptions import ProtocolError
from repro.graphs.graph import Graph


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


def random_adjacency(n: int, m: int, seed: int) -> dict[int, set[int]]:
    rng = np.random.default_rng(seed)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for _ in range(m):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


class TestKHopGather:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_facts_equal_khop_ball(self, k):
        """The engine-level proof of the gather primitive: after k rounds
        a node knows exactly the facts originating within k hops."""
        g = path_graph(8)
        facts = {u: {f"fact-{u}"} for u in g.vertices()}
        result = SynchronousNetwork(g).run(KHopGather(facts, k))
        for u in g.vertices():
            expected = {
                f"fact-{v}" for v in k_hop_neighborhood(g, u, k)
            }
            assert result.outputs[u] == expected

    def test_round_cost_is_k_plus_delivery(self):
        g = path_graph(6)
        facts = {u: {u} for u in g.vertices()}
        result = SynchronousNetwork(g).run(KHopGather(facts, 3))
        assert result.rounds == 4  # k send-rounds + final digest

    def test_rejects_negative_k(self):
        with pytest.raises(ProtocolError):
            KHopGather({}, -1)

    def test_nodes_without_facts(self):
        g = path_graph(3)
        result = SynchronousNetwork(g).run(KHopGather({0: {"x"}}, 2))
        assert result.outputs[2] == {"x"}


class TestLubyMIS:
    def test_empty(self):
        run = run_luby_mis({})
        assert run.independent_set == frozenset()

    def test_single_node(self):
        run = run_luby_mis({0: set()})
        assert run.independent_set == {0}

    def test_edge_picks_one(self):
        run = run_luby_mis({0: {1}, 1: {0}})
        assert len(run.independent_set) == 1

    def test_star_center_or_all_leaves(self):
        adj = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        run = run_luby_mis(adj, seed=5)
        verify_mis(adj, set(run.independent_set))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 120), st.integers(0, 10_000))
    def test_valid_mis_on_random_graphs(self, n, m, seed):
        """Property: protocol output is always independent AND maximal."""
        adj = random_adjacency(n, m, seed)
        run = run_luby_mis(adj, seed=seed)
        verify_mis(adj, set(run.independent_set))  # raises on violation

    def test_hashable_node_labels(self):
        adj = {("a", 1): {("b", 2)}, ("b", 2): {("a", 1)}}
        run = run_luby_mis(adj)
        assert len(run.independent_set) == 1

    def test_rounds_grow_slowly(self):
        """Luby is O(log n) w.h.p.: dense instances finish in few rounds."""
        adj = random_adjacency(200, 2000, seed=3)
        run = run_luby_mis(adj, seed=3)
        assert run.engine_rounds <= 40

    def test_verify_mis_rejects_dependent(self):
        with pytest.raises(ProtocolError, match="independent"):
            verify_mis({0: {1}, 1: {0}}, {0, 1})

    def test_verify_mis_rejects_non_maximal(self):
        with pytest.raises(ProtocolError, match="maximal"):
            verify_mis({0: {1}, 1: {0}, 2: set()}, {0})


class TestConvergecast:
    def test_sum_on_path(self):
        n = 6
        g = path_graph(n)
        parents = {i: max(0, i - 1) for i in range(n)}
        values = {i: i for i in range(n)}
        result = SynchronousNetwork(g).run(ConvergecastSum(parents, values))
        assert result.outputs[0] == sum(range(n))
        assert result.outputs[3] is None

    def test_rounds_proportional_to_depth(self):
        n = 10
        g = path_graph(n)
        parents = {i: max(0, i - 1) for i in range(n)}
        result = SynchronousNetwork(g).run(
            ConvergecastSum(parents, {i: 1 for i in range(n)})
        )
        assert result.outputs[0] == n
        assert n - 2 <= result.rounds <= n + 1

    def test_custom_combiner(self):
        g = path_graph(4)
        parents = {i: max(0, i - 1) for i in range(4)}
        result = SynchronousNetwork(g).run(
            ConvergecastSum(parents, {i: i for i in range(4)}, max)
        )
        assert result.outputs[0] == 3

    def test_star_two_rounds(self):
        g = Graph(5)
        for i in range(1, 5):
            g.add_edge(0, i, 1.0)
        parents = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
        result = SynchronousNetwork(g).run(
            ConvergecastSum(parents, {i: 1 for i in range(5)})
        )
        assert result.outputs[0] == 5
        assert result.rounds <= 3

    def test_bad_parent_rejected(self):
        g = path_graph(4)
        with pytest.raises(ProtocolError):
            SynchronousNetwork(g).run(ConvergecastSum({3: 0, 0: 0}, {}))
