"""Scalar-vs-batch RunResult equality for the convergecast port.

ConvergecastSum completes the batch tier's protocol coverage; like the
other protocol suites, equality is exact -- rounds, messages,
words, outputs and output insertion order -- across random topologies,
random BFS forests, integer and float payloads.  The scalar side runs
the same protocol behind :class:`oracles.engine.PerNode`, which hides
its batch hooks.
"""

import operator
from collections import deque

import numpy as np
import pytest
from oracles.engine import PerNode

from repro.distributed.engine import SynchronousNetwork
from repro.distributed.protocols.aggregate import ConvergecastSum
from repro.distributed.protocols.bfs import BFSTree
from repro.distributed.protocols.flooding import KHopGather
from repro.distributed.protocols.leader import LeaderElection
from repro.distributed.protocols.luby import LubyMIS
from repro.exceptions import ProtocolError
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for _ in range(m):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            g.add_edge(a, b, float(rng.uniform(0.1, 1.0)))
    return g


def bfs_forest(g: Graph) -> dict[int, int]:
    parents: dict[int, int] = {}
    seen: set[int] = set()
    for root in g.vertices():
        if root in seen:
            continue
        seen.add(root)
        parents[root] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    parents[v] = u
                    queue.append(v)
    return parents


def assert_equal_runs(net: SynchronousNetwork, protocol) -> None:
    assert protocol.supports_batch
    scalar = net.run(PerNode(protocol))
    batch = net.run(protocol)
    assert scalar.rounds == batch.rounds
    assert scalar.messages == batch.messages
    assert scalar.words == batch.words
    assert scalar.outputs == batch.outputs
    assert list(scalar.outputs) == list(batch.outputs)


class TestConvergecastBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_forests_int_values(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        g = random_graph(n, 3 * n, seed)
        net = SynchronousNetwork(g, max_rounds=400)
        parents = bfs_forest(g)
        values = {u: int(rng.integers(-100, 100)) for u in range(n)}
        proto = ConvergecastSum(parents, values)
        assert proto.supports_batch
        assert_equal_runs(net, proto)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forests_float_values_bit_exact(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 40))
        g = random_graph(n, 2 * n, seed)
        net = SynchronousNetwork(g, max_rounds=400)
        parents = bfs_forest(g)
        values = {u: float(rng.uniform(-1, 1)) for u in range(n)}
        proto = ConvergecastSum(parents, values)
        assert proto.supports_batch
        scalar = net.run(PerNode(proto))
        batch = net.run(proto)
        assert scalar.outputs.keys() == batch.outputs.keys()
        for u, value in scalar.outputs.items():
            if isinstance(value, float):
                # Float fold order matches exactly, so sums are bitwise
                # identical, not merely close.
                assert value.hex() == batch.outputs[u].hex()
            else:
                assert batch.outputs[u] == value
        assert (scalar.rounds, scalar.messages, scalar.words) == (
            batch.rounds, batch.messages, batch.words,
        )

    def test_huge_int_sums_stay_scalar(self):
        # float64 cannot hold the aggregate exactly, so the batch tier
        # must decline and auto dispatch must produce the exact sum.
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        big = 2**53 - 1
        proto = ConvergecastSum({0: 0, 1: 0, 2: 0}, {u: big for u in range(3)})
        assert not proto.supports_batch
        run = SynchronousNetwork(g).run(proto)
        assert run.outputs[0] == 3 * big

    def test_bool_values_keep_integer_output_on_batch_tier(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        proto = ConvergecastSum({0: 0, 1: 0, 2: 0}, {u: True for u in range(3)})
        assert proto.supports_batch
        net = SynchronousNetwork(g)
        batch = net.run(proto)
        assert batch.outputs[0] == 3 and isinstance(batch.outputs[0], int)
        assert batch.outputs == net.run(PerNode(proto)).outputs

    def test_custom_combiner_stays_scalar(self):
        g = random_graph(8, 16, 0)
        proto = ConvergecastSum(
            bfs_forest(g), {u: u for u in range(8)}, combine=max
        )
        assert not proto.supports_batch
        SynchronousNetwork(g).run(proto)  # steps per node

    @pytest.mark.parametrize("seed", range(3))
    def test_explicit_add_combiner_matches_batch_tier(self, seed):
        """``combine=operator.add`` runs per node, the default ``+`` on
        the batch tier; the two runs are the same."""
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 40))
        g = random_graph(n, 2 * n, seed)
        parents = bfs_forest(g)
        values = {u: int(rng.integers(-50, 50)) for u in range(n)}
        explicit = ConvergecastSum(parents, values, combine=operator.add)
        default = ConvergecastSum(parents, values)
        assert not explicit.supports_batch and default.supports_batch
        net = SynchronousNetwork(g, max_rounds=400)
        per_node, batch = net.run(explicit), net.run(default)
        assert per_node == batch
        assert list(per_node.outputs) == list(batch.outputs)

    @staticmethod
    def _assert_same_error_both_tiers(edges, parents):
        g = Graph(len(parents))
        for u, v in edges:
            g.add_edge(u, v, 1.0)
        messages = []
        proto = ConvergecastSum(parents, {u: 1 for u in parents})
        for tier in (PerNode(proto), proto):
            with pytest.raises(ProtocolError) as err:
                SynchronousNetwork(g).run(tier)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_bad_parent_raises_same_error_both_tiers(self):
        # 2's parent is not a neighbor.
        self._assert_same_error_both_tiers(
            [(0, 1), (2, 3)], {0: 0, 1: 0, 2: 0, 3: 2}
        )

    def test_isolated_node_raises_same_error_both_tiers(self):
        # 2 is isolated, so it has no slot toward its parent at all.
        self._assert_same_error_both_tiers([(0, 1)], {0: 0, 1: 0, 2: 0})


def all_protocols(g: Graph) -> dict:
    """Factories for every batch-capable protocol, set up on ``g``."""
    n = g.num_vertices
    facts = {u: {("tok", u)} for u in range(0, n, 5)}
    parents = bfs_forest(g)
    values = {u: 0.5 * u - 3.0 for u in range(n)}
    return {
        "luby": lambda: LubyMIS(seed=11),
        "bfs": lambda: BFSTree(root=3),
        "leader": lambda: LeaderElection(rounds=6),
        "khop": lambda: KHopGather(facts, k=3),
        "convergecast": lambda: ConvergecastSum(parents, values),
    }


@pytest.fixture(scope="module")
def dense_udg() -> Graph:
    return build_udg(uniform_points(240, seed=17, side=4.0))


class TestAllProtocolsOnUdg:
    """Every batch-capable protocol against the scalar tier on unit disk
    graphs, the deployment topology, rather than random edge lists."""

    @pytest.mark.parametrize(
        "name",
        ["luby", "bfs", "leader", "khop", "convergecast"],
    )
    def test_tiers_agree_on_dense_udg(self, dense_udg, name):
        make = all_protocols(dense_udg)[name]
        protocol = make()
        assert protocol.supports_batch
        assert_equal_runs(SynchronousNetwork(dense_udg), protocol)

    def test_tiers_agree_on_sparse_udg_with_many_components(self):
        g = build_udg(uniform_points(90, seed=23, side=9.0))
        roots = [u for u, p in bfs_forest(g).items() if u == p]
        assert len(roots) > 10
        net = SynchronousNetwork(g)
        for make in all_protocols(g).values():
            assert_equal_runs(net, make())
