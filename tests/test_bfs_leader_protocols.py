"""Tests for the BFS-tree and leader-election protocols."""

import numpy as np
import pytest
from oracles.paths import bfs_hops

from repro.distributed.engine import SynchronousNetwork
from repro.distributed.protocols.bfs import BFSTree
from repro.distributed.protocols.leader import LeaderElection
from repro.exceptions import ProtocolError
from repro.graphs.graph import Graph


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


def random_geometric(n: int, seed: int) -> Graph:
    from repro.geometry.sampling import uniform_points
    from repro.graphs.build import build_udg

    return build_udg(uniform_points(n, seed=seed, expected_degree=7.0))


class TestBFSTree:
    def test_levels_match_hops_on_path(self):
        g = path_graph(7)
        result = SynchronousNetwork(g).run(BFSTree(0))
        for v in g.vertices():
            level, parent = result.outputs[v]
            assert level == v  # path: hop distance == index
            if v > 0:
                assert parent == v - 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_levels_match_hops_random(self, seed):
        g = random_geometric(50, seed)
        root = 0
        hops = bfs_hops(g, root)
        result = SynchronousNetwork(g).run(BFSTree(root, patience=200))
        for v in g.vertices():
            level, parent = result.outputs[v]
            if v in hops:
                assert level == hops[v]
                if v != root:
                    assert hops[parent] == level - 1
                    assert g.has_edge(v, parent)
            else:
                assert level is None and parent is None

    def test_root_is_own_parent(self):
        g = path_graph(3)
        result = SynchronousNetwork(g).run(BFSTree(0))
        assert result.outputs[0] == (0, 0)

    def test_unreachable_nodes_give_up(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)  # component {0,1}; {2,3} isolated-ish
        g.add_edge(2, 3, 1.0)
        result = SynchronousNetwork(g).run(BFSTree(0, patience=5))
        assert result.outputs[2] == (None, None)
        assert result.outputs[3] == (None, None)

    def test_rounds_track_eccentricity(self):
        g = path_graph(12)
        result = SynchronousNetwork(g).run(BFSTree(0, patience=50))
        # Wave takes 11 rounds to reach the far end (+1 engine tick).
        assert 11 <= result.rounds <= 13

    def test_tree_feeds_convergecast(self):
        from repro.distributed.protocols.aggregate import ConvergecastSum

        g = random_geometric(40, seed=4)
        result = SynchronousNetwork(g).run(BFSTree(0, patience=100))
        parents = {
            v: par for v, (lvl, par) in result.outputs.items()
            if lvl is not None
        }
        reachable = set(parents)
        agg = SynchronousNetwork(g).run(
            ConvergecastSum(parents, {v: 1 for v in reachable})
        )
        assert agg.outputs[0] == len(reachable)

    def test_rejects_bad_patience(self):
        with pytest.raises(ProtocolError):
            BFSTree(0, patience=0)


class TestLeaderElection:
    def test_max_id_wins_on_path(self):
        g = path_graph(9)
        result = SynchronousNetwork(g).run(LeaderElection(rounds=9))
        assert all(result.outputs[v] == 8 for v in g.vertices())

    def test_adversarial_id_placement(self):
        """The case quiet-counting heuristics get wrong: descending ids
        with the max hidden at the far end."""
        # path: 8 - 7 - 6 - 0 - 9 (ids are vertex labels; edges below)
        g = Graph(10)
        chain = [8, 7, 6, 0, 9]
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a, b, 1.0)
        # isolated leftovers elect themselves
        result = SynchronousNetwork(g).run(LeaderElection(rounds=9))
        for v in chain:
            assert result.outputs[v] == 9
        assert result.outputs[1] == 1  # isolated

    @pytest.mark.parametrize("seed", [5, 6])
    def test_per_component_maximum(self, seed):
        from repro.graphs.components import connected_components

        g = random_geometric(45, seed)
        result = SynchronousNetwork(g).run(
            LeaderElection(rounds=g.num_vertices)
        )
        for comp in connected_components(g):
            leader = max(comp)
            for v in comp:
                assert result.outputs[v] == leader

    def test_insufficient_rounds_miss_far_leader(self):
        g = path_graph(10)
        result = SynchronousNetwork(g).run(LeaderElection(rounds=3))
        # Node 0 is 9 hops from node 9: cannot have heard it.
        assert result.outputs[0] < 9

    def test_rejects_bad_rounds(self):
        with pytest.raises(ProtocolError):
            LeaderElection(rounds=0)
