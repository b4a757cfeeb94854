"""The batch event engine's bit-equality contract with the heap loop.

The one-pop-at-a-time heap loop (:class:`oracles.event_engine.
HeapEventNetwork`) is the pinned semantic reference; the engine
(timer-wheel runs, epoch gathers, deferred vectorized fault draws) must
reproduce its ``RunResult`` *exactly* -- rounds, messages, words,
retransmissions, control messages, drops, recovery rounds, crash set,
outputs and output insertion order -- across the whole named
failure-scenario family.  These tests are the license for the engine
running the batch path for every protocol.
"""

import pytest
from oracles.event_engine import HeapEventNetwork

from repro.distributed import (
    BFSTree,
    EventNetwork,
    FaultPlan,
    LubyMIS,
    SynchronousNetwork,
)
from repro.distributed.protocols.reliable import harden
from repro.experiments.failures import FAULT_REGISTRY
from repro.experiments.workloads import make_workload

SCENARIOS = list(FAULT_REGISTRY)


def workload_graph(n=90, seed=2):
    return make_workload("uniform", n, seed=seed).graph


def _run(graph, protocol_factory, plan, network=EventNetwork):
    net = network(graph, plan=plan, max_time=20_000.0)
    return net.run(harden(protocol_factory())), net.final_time


def _assert_identical(a, b):
    """Full RunResult equality plus output *insertion order*."""
    assert a == b
    assert list(a.outputs.items()) == list(b.outputs.items())


class TestScenarioFamilyEquality:
    """Scalar == batch for hardened Luby MIS and BFS on every scenario."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_hardened_luby(self, name):
        graph = workload_graph()
        plan = FAULT_REGISTRY[name].plan(seed=901)
        scalar, ft_s = _run(
            graph, lambda: LubyMIS(seed=5), plan, HeapEventNetwork
        )
        batch, ft_b = _run(graph, lambda: LubyMIS(seed=5), plan)
        _assert_identical(scalar, batch)
        assert ft_s == ft_b

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_hardened_bfs(self, name):
        graph = workload_graph(n=70, seed=4)
        plan = FAULT_REGISTRY[name].plan(seed=902)
        scalar, ft_s = _run(
            graph, lambda: BFSTree(0, patience=48), plan, HeapEventNetwork
        )
        batch, ft_b = _run(graph, lambda: BFSTree(0, patience=48), plan)
        _assert_identical(scalar, batch)
        assert ft_s == ft_b


class TestBatchDeterminism:
    """Same seed, same plan -> bitwise-identical batch runs (satellite 1)."""

    @pytest.mark.parametrize("name", ["chaos", "bursty", "jittery"])
    def test_same_seed_batch_runs_identical(self, name):
        graph = workload_graph(n=60, seed=8)
        plan = FAULT_REGISTRY[name].plan(seed=77)
        first, ft1 = _run(graph, lambda: LubyMIS(seed=3), plan)
        second, ft2 = _run(graph, lambda: LubyMIS(seed=3), plan)
        _assert_identical(first, second)
        assert ft1 == ft2


class TestSyncFastPath:
    """Zero-fault + unit latency + batch protocol: run_sync routes to the
    synchronous batch tier directly.  Result AND final_time must match
    the tick adapter on the heap loop."""

    @pytest.mark.parametrize("proto", ["luby", "bfs"])
    @pytest.mark.parametrize("t0", [0.0, 50.0])
    def test_matches_scalar_tick_path(self, proto, t0):
        graph = workload_graph(n=80, seed=6)
        make = (
            (lambda: LubyMIS(seed=9))
            if proto == "luby"
            else (lambda: BFSTree(0))
        )
        nets = [
            network(graph, plan=FaultPlan.reliable(), t0=t0)
            for network in (HeapEventNetwork, EventNetwork)
        ]
        scalar = nets[0].run_sync(make())
        fast = nets[1].run_sync(make())
        _assert_identical(scalar, fast)
        assert nets[0].final_time == nets[1].final_time

    def test_fast_path_matches_synchronous_tier(self):
        graph = workload_graph(n=80, seed=6)
        sync = SynchronousNetwork(graph).run(LubyMIS(seed=9))
        event = EventNetwork(graph, plan=FaultPlan.reliable()).run_sync(
            LubyMIS(seed=9)
        )
        assert event == sync


class TestEngineSelection:
    def test_scalar_engine_forces_heap_path(self):
        # The heap reference's run_sync bypasses the fast path and the
        # batch wheel -- still equal, by the anchor contract.
        graph = workload_graph(n=40, seed=1)
        a = HeapEventNetwork(graph, plan=FaultPlan.reliable()).run_sync(
            LubyMIS(seed=2)
        )
        b = EventNetwork(graph, plan=FaultPlan.reliable()).run_sync(
            LubyMIS(seed=2)
        )
        _assert_identical(a, b)
