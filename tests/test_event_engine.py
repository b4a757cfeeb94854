"""The discrete-event execution tier: anchoring and mechanics.

The load-bearing contract is the *anchor*: under a zero-fault plan with
unit latency, the event tier reproduces the synchronous scalar tier's
``RunResult`` exactly -- same rounds, messages, words, outputs -- for
every shipped synchronous protocol.  That equality is what licenses
comparing degraded (faulty) runs against synchronous baselines in E11.
The remaining tests pin the engine's mechanics: timer semantics, wrapper
accounting (Ctl/Resend/Multi), simulation limits, and bitwise
determinism of whole runs.
"""

import math

import pytest
from oracles.engine import PerNode
from oracles.faults import clock_rate, crash_schedule, dead_at

from repro.distributed import (
    BFSTree,
    Ctl,
    EventNetwork,
    EventProtocol,
    FaultPlan,
    LubyMIS,
    Multi,
    Resend,
    SynchronousNetwork,
    run_bfs_event,
    run_luby_mis_event,
)
from repro.distributed.event_engine import _P_CRASH, _P_RECOVER
from repro.exceptions import ProtocolError, SimulationLimitError
from repro.experiments.workloads import make_workload
from repro.graphs.graph import Graph


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


def workload_graph(n=40, seed=0, scenario="uniform") -> Graph:
    return make_workload(scenario, n, seed=seed).graph


class TestZeroFaultAnchor:
    """Event tier under FaultPlan.reliable() == synchronous scalar tier."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_luby_runresult_equality(self, seed):
        graph = workload_graph(n=40, seed=seed)
        sync = SynchronousNetwork(graph).run(PerNode(LubyMIS(seed=seed)))
        event = EventNetwork(graph, plan=FaultPlan.reliable()).run_sync(
            LubyMIS(seed=seed)
        )
        assert event == sync

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bfs_runresult_equality(self, seed):
        graph = workload_graph(n=36, seed=seed + 11)
        sync = SynchronousNetwork(graph).run(PerNode(BFSTree(0, patience=64)))
        event = EventNetwork(graph).run_sync(BFSTree(0, patience=64))
        assert event == sync

    def test_luby_runner_matches_scalar_tier(self):
        graph = workload_graph(n=44, seed=5)
        sync = SynchronousNetwork(graph).run(PerNode(LubyMIS(seed=5)))
        run = run_luby_mis_event(graph, seed=5)
        assert run.result == sync
        assert run.independent_set == frozenset(
            u for u, flag in sync.outputs.items() if flag
        )
        assert run.alive == tuple(sorted(graph.vertices()))

    def test_bfs_runner_matches_scalar_tier(self):
        graph = workload_graph(n=36, seed=9)
        sync = SynchronousNetwork(graph).run(PerNode(BFSTree(0, patience=64)))
        run = run_bfs_event(graph, 0, patience=64)
        assert run.result == sync
        assert run.tree == {
            u: out if out is not None else (None, None)
            for u, out in sync.outputs.items()
        }

    def test_zero_fault_has_no_overhead(self):
        run = run_luby_mis_event(workload_graph(n=30, seed=2), seed=2)
        assert run.result.retransmissions == 0
        assert run.result.control_messages == 0
        assert run.result.dropped == 0
        assert run.result.crashed == ()


class _TimerChain(EventProtocol):
    """Node 0 schedules three timers; order of keys is recorded."""

    name = "timer-chain"

    def on_start(self, ctx):
        ctx.state["fired"] = []
        if ctx.node == 0:
            ctx.set_timer(3.0, "c")
            ctx.set_timer(1.0, "a")
            ctx.set_timer(2.0, "b")
        return None

    def on_timer(self, ctx, now, key):
        ctx.state["fired"].append((now, key))
        if len(ctx.state["fired"]) == 3:
            ctx.halt()
        return None

    def output(self, ctx):
        return list(ctx.state["fired"])


class _Accounting(EventProtocol):
    """Node 0 sends one data, one Ctl, one Resend, and a Multi bundle."""

    name = "accounting"

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.set_timer(1.0, None)
            return {1: Multi(["x", Ctl("ack"), Resend("x")])}
        return None

    def on_timer(self, ctx, now, key):
        ctx.halt()
        return None

    def on_deliver(self, ctx, inbox, now):
        ctx.state.setdefault("got", []).extend(
            p for items in inbox.values() for p in items
        )
        ctx.halt()
        return None

    def output(self, ctx):
        return ctx.state.get("got")


class TestEventMechanics:
    def test_timers_fire_in_time_order(self):
        net = EventNetwork(path_graph(2))
        result = net.run(_TimerChain())
        assert result.outputs[0] == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert net.final_time == 3.0

    def test_wrapper_accounting(self):
        result = EventNetwork(path_graph(2)).run(_Accounting())
        assert result.messages == 1  # only the bare payload is data
        assert result.control_messages == 1
        assert result.retransmissions == 1
        assert result.outputs[1] == ["x", "ack", "x"]

    def test_non_positive_timer_rejected(self):
        class Bad(EventProtocol):
            def on_start(self, ctx):
                ctx.set_timer(0.0, None)

        with pytest.raises(ProtocolError, match="timer delay"):
            EventNetwork(path_graph(2)).run(Bad())

    def test_non_neighbor_send_rejected(self):
        class Bad(EventProtocol):
            def on_start(self, ctx):
                return {99: "boo"}

        with pytest.raises(ProtocolError, match="non-neighbor"):
            EventNetwork(path_graph(2)).run(Bad())

    def test_max_time_enforced(self):
        class Forever(EventProtocol):
            def on_start(self, ctx):
                ctx.set_timer(1.0, None)

            def on_timer(self, ctx, now, key):
                ctx.set_timer(1.0, None)

        with pytest.raises(SimulationLimitError, match="max_time"):
            EventNetwork(path_graph(2), max_time=10.0).run(Forever())

    def test_max_events_enforced(self):
        class Forever(EventProtocol):
            def on_start(self, ctx):
                ctx.set_timer(1.0, None)

            def on_timer(self, ctx, now, key):
                ctx.set_timer(1.0, None)

        with pytest.raises(SimulationLimitError, match="max_events"):
            EventNetwork(path_graph(2), max_events=5).run(Forever())

    def test_bad_budgets_rejected(self):
        with pytest.raises(ProtocolError):
            EventNetwork(path_graph(2), max_time=0.0)
        with pytest.raises(ProtocolError):
            EventNetwork(path_graph(2), max_events=0)

    def test_drift_scales_timer_periods(self):
        # With drift, node clock rates differ from 1, so a unit timer
        # fires at a plan-determined (but reproducible) non-unit time.
        plan = FaultPlan(seed=4, drift=0.2)
        net = EventNetwork(path_graph(2), plan=plan)
        net.run(_TimerChain())
        rate = clock_rate(plan, 0)
        assert rate != 1.0
        assert net.final_time == pytest.approx(3.0 / rate)


class TestNonFiniteInputs:
    """A NaN event time never equals itself, so the epoch loop would pop
    nothing and spin past both budgets: every non-finite time is refused
    up front, by an error that names the field."""

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("drift", {"drift": math.nan}),
            ("jitter", {"jitter": math.nan}),
            ("latency", {"latency": math.nan}),
            ("burst_window", {"burst_rate": 0.5, "burst_window": math.nan}),
            ("flap_period", {"flap_rate": 0.5, "flap_period": math.nan}),
            (
                "crash_window",
                {"crash_rate": 0.5, "crash_window": (0.0, math.nan)},
            ),
            (
                "crash_window",
                {"crash_rate": 0.5, "crash_window": (-math.inf, 5.0)},
            ),
            ("recover_after", {"crash_rate": 0.5, "recover_after": math.nan}),
        ],
        ids=[
            "drift", "jitter", "latency", "burst_window", "flap_period",
            "crash_window_nan", "crash_window_neg_inf", "recover_after",
        ],
    )
    def test_fault_plan_field(self, field, kwargs):
        with pytest.raises(ProtocolError, match=rf"FaultPlan\.{field} "):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize("field", ["t0", "max_time"])
    def test_event_network_field(self, field):
        with pytest.raises(ProtocolError, match=rf"EventNetwork\.{field} "):
            EventNetwork(path_graph(2), **{field: math.nan})

    def test_timer_delay(self):
        class NanTimer(EventProtocol):
            def on_start(self, ctx):
                ctx.set_timer(math.nan)

        with pytest.raises(ProtocolError, match="timer delay"):
            EventNetwork(path_graph(2), max_events=1000).run(NanTimer())


class TestCrashSemantics:
    def test_crashed_nodes_match_plan_timeline(self):
        plan = FaultPlan(seed=1, crash_rate=0.3, crash_window=(0.0, 8.0))
        graph = workload_graph(n=30, seed=4)
        run = run_luby_mis_event(graph, seed=4, plan=plan)
        expected_dead = {u for u in range(30) if dead_at(plan, u, run.t_end)}
        assert set(run.result.crashed) == expected_dead
        assert set(run.alive) == set(range(30)) - expected_dead
        assert run.independent_set <= set(run.alive)

    def test_fail_stop_crash_excludes_node(self):
        # Pin one node dead from the start via the crash timeline.
        plan = FaultPlan(
            seed=3, crash_rate=1.0, crash_window=(0.0, 0.0001),
            recover_after=None,
        )
        run = run_luby_mis_event(path_graph(4), seed=0, plan=plan)
        assert run.alive == ()
        assert run.independent_set == frozenset()

    def test_dead_at_matches_crash_schedule(self):
        plan = FaultPlan(seed=2, crash_rate=0.5, recover_after=10.0)
        for node in range(50):
            sched = crash_schedule(plan, node)
            if sched is None:
                assert not dead_at(plan, node, 100.0)
                continue
            crash, back = sched
            assert not dead_at(plan, node, crash - 1e-9)
            assert dead_at(plan, node, crash)
            assert back == crash + 10.0
            assert dead_at(plan, node, back - 1e-9)
            assert not dead_at(plan, node, back)

    @pytest.mark.parametrize("recover_after", [25.0, None])
    @pytest.mark.parametrize("t0", [0.0, 20.0, 70.0])
    def test_primed_timeline_matches_per_node_draws(self, recover_after, t0):
        """A run primes its crash timeline from one array draw: the heap
        entries, their sequence numbers, the nodes dead at the start and
        the clock rates equal a node-by-node priming in node order."""
        plan = FaultPlan(
            seed=5, crash_rate=0.4, crash_window=(0.0, 40.0),
            recover_after=recover_after, drift=0.1,
        )
        labels = {u: 3 * u + 1 for u in range(60)}
        net = EventNetwork(
            workload_graph(n=60, seed=2), plan=plan, fault_labels=labels,
            t0=t0,
        )
        _, nodes, contexts = net._init_run(EventProtocol())
        heap, dead = [], set()
        for u in nodes:
            sched = crash_schedule(plan, labels[u])
            if sched is None:
                continue
            at, back = sched
            if at > t0:
                heap.append((at, _P_CRASH, len(heap) + 1, u))
            elif back is not None and back <= t0:
                continue
            else:
                dead.add(u)
            if back is not None:
                heap.append((back, _P_RECOVER, len(heap) + 1, u))
        assert sorted(net._heap) == sorted(heap)
        assert net._seq == len(heap)
        assert {u for u in nodes if not contexts[u].alive} == dead
        assert net._rates == {u: clock_rate(plan, labels[u]) for u in nodes}


class TestDeterminism:
    """S3: same (topology, protocol, plan) => bitwise-identical runs."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=11, drop_rate=0.15),
            FaultPlan(seed=12, drop_rate=0.1, jitter=0.4),
            FaultPlan(
                seed=13, crash_rate=0.1, recover_after=60.0, drop_rate=0.05
            ),
            FaultPlan(seed=14, burst_rate=0.1, burst_drop=0.9, flap_rate=0.1),
        ],
        ids=["drop", "jitter", "phoenix", "burst-flap"],
    )
    def test_repeat_runs_identical(self, plan):
        graph = workload_graph(n=32, seed=6)
        a = run_luby_mis_event(graph, seed=6, plan=plan)
        b = run_luby_mis_event(graph, seed=6, plan=plan)
        assert a.independent_set == b.independent_set
        assert a.result == b.result
        assert a.alive == b.alive
        assert a.t_end == b.t_end

    def test_bfs_repeat_runs_identical(self):
        graph = workload_graph(n=32, seed=8)
        plan = FaultPlan(seed=21, drop_rate=0.15, jitter=0.3)
        a = run_bfs_event(graph, 0, plan=plan)
        b = run_bfs_event(graph, 0, plan=plan)
        assert a.tree == b.tree
        assert a.result == b.result

    def test_seed_changes_the_run(self):
        graph = workload_graph(n=32, seed=6)
        a = run_luby_mis_event(graph, seed=6, plan=FaultPlan(seed=1, jitter=0.5))
        b = run_luby_mis_event(graph, seed=6, plan=FaultPlan(seed=2, jitter=0.5))
        # Different adversary randomness must actually change something
        # observable (else the plan seed is dead weight).
        assert (
            a.result != b.result or a.t_end != b.t_end
        )


class TestFaultLabelValidation:
    """Bad ``fault_labels`` fail at construction, naming the culprit.

    Each invalid shape used to surface mid-run as a bare ``KeyError`` (or
    worse, as two nodes silently sharing a draw stream); the constructor
    now rejects each branch with an error that names the offending node
    and label.
    """

    def test_missing_node_is_named(self):
        graph = path_graph(4)
        labels = {0: 10, 1: 11, 3: 13}  # node 2 has no identity
        with pytest.raises(ProtocolError, match=r"missing node 2"):
            EventNetwork(graph, fault_labels=labels)

    def test_non_int_label_is_named(self):
        graph = path_graph(3)
        labels = {0: 0, 1: "one", 2: 2}
        with pytest.raises(ProtocolError, match=r"fault_labels\[1\].*'one'"):
            EventNetwork(graph, fault_labels=labels)

    def test_bool_label_rejected(self):
        # bool is an int subclass; as an identity it is almost certainly
        # a bug (True aliases 1), so it is rejected explicitly.
        graph = path_graph(3)
        labels = {0: 0, 1: True, 2: 2}
        with pytest.raises(ProtocolError, match=r"fault_labels\[1\].*True"):
            EventNetwork(graph, fault_labels=labels)

    def test_out_of_range_label_is_named(self):
        from repro.distributed.faults import _NODE_SPAN

        graph = path_graph(3)
        labels = {0: 0, 1: _NODE_SPAN, 2: 2}
        with pytest.raises(
            ProtocolError,
            match=rf"fault_labels\[1\] = {_NODE_SPAN} out of range",
        ):
            EventNetwork(graph, fault_labels=labels)

    def test_negative_label_is_named(self):
        graph = path_graph(3)
        labels = {0: 0, 1: -5, 2: 2}
        with pytest.raises(
            ProtocolError, match=r"fault_labels\[1\] = -5 out of range"
        ):
            EventNetwork(graph, fault_labels=labels)

    def test_duplicate_label_names_both_nodes(self):
        graph = path_graph(4)
        labels = {0: 7, 1: 8, 2: 7, 3: 9}
        with pytest.raises(
            ProtocolError, match=r"nodes 0 and 2 .*identity 7"
        ):
            EventNetwork(graph, fault_labels=labels)

    def test_valid_labels_accepted_and_used(self):
        graph = workload_graph(n=24, seed=3)
        plan = FaultPlan(seed=9, drop_rate=0.2)
        base = run_luby_mis_event(graph, seed=4, plan=plan)
        # Identity relabeling changes the draw streams, so the run may
        # differ -- but it must construct and complete deterministically.
        labels = {u: 1000 + u for u in range(24)}
        net = EventNetwork(graph, plan=plan, fault_labels=labels)
        net2 = EventNetwork(graph, plan=plan, fault_labels=labels)
        from repro.distributed import harden

        a = net.run(harden(LubyMIS(seed=4)))
        b = net2.run(harden(LubyMIS(seed=4)))
        assert a == b
        assert base.result is not None
