"""Hardened protocols under adversarial fault plans: the validity matrix.

ISSUE acceptance bar: for drop rates up to 0.2 and crash rates up to
0.05, the hardened protocols must *terminate* and produce valid outputs
on the surviving subgraph -- a verified MIS, a spanning BFS tree over
every survivor the root can reach, and a spanner meeting its stretch
bound on the alive-induced base graph -- for every seed in the matrix.
The runners verify MIS/BFS internally (they raise ``ProtocolError`` on
an invalid result), so a clean return *is* the certificate; the tests
additionally pin the repair helpers and the degradation accounting.
"""

from dataclasses import replace

import pytest

from repro.distributed import (
    FaultPlan,
    repair_bfs,
    repair_mis,
    run_bfs_event,
    run_luby_mis_event,
    verify_bfs_tree,
)
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.exceptions import ProtocolError
from repro.experiments.workloads import make_workload
from repro.graphs.analysis import measure_stretch
from repro.params import SpannerParams

FAULT_MATRIX = [
    FaultPlan(seed=100, drop_rate=0.1),
    FaultPlan(seed=101, drop_rate=0.2),
    FaultPlan(seed=102, drop_rate=0.1, jitter=0.5),
    FaultPlan(seed=103, crash_rate=0.05),
    FaultPlan(seed=104, drop_rate=0.15, crash_rate=0.05, jitter=0.3),
    FaultPlan(seed=105, burst_rate=0.05, burst_drop=0.8, drop_rate=0.02),
    FaultPlan(seed=106, flap_rate=0.1),
    FaultPlan(seed=107, crash_rate=0.05, recover_after=80.0, drop_rate=0.1),
]
_IDS = [
    "drop10", "drop20", "drop-jitter", "crash5", "chaos", "burst",
    "flap", "phoenix",
]


class TestMISValidityMatrix:
    @pytest.mark.parametrize("plan", FAULT_MATRIX, ids=_IDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_terminates_with_verified_mis(self, plan, seed):
        graph = make_workload("uniform", 36, seed=seed).graph
        run = run_luby_mis_event(
            graph, seed=seed, plan=replace(plan, seed=plan.seed + seed)
        )
        # run_luby_mis_event verified the MIS on the alive subgraph;
        # check the bookkeeping is consistent too.
        assert run.independent_set <= set(run.alive)
        assert set(run.alive) | set(run.result.crashed) == set(
            graph.vertices()
        )
        if not plan.zero_fault:
            assert run.result.rounds > 0

    def test_overhead_is_accounted_under_loss(self):
        plan = FaultPlan(seed=42, drop_rate=0.2)
        run = run_luby_mis_event(
            make_workload("uniform", 36, seed=3).graph, seed=3, plan=plan
        )
        assert run.result.dropped > 0
        assert run.result.retransmissions > 0
        assert run.result.control_messages > 0


class TestBFSValidityMatrix:
    @pytest.mark.parametrize("plan", FAULT_MATRIX, ids=_IDS)
    def test_terminates_with_spanning_tree(self, plan):
        graph = make_workload("uniform", 36, seed=5).graph
        run = run_bfs_event(graph, 0, plan=plan)
        # Internally verified; re-check the span property explicitly.
        assert set(run.tree) == set(run.alive)
        if 0 in run.alive:
            assert run.tree[0] == (0, 0)

    def test_dead_root_yields_unanchored_tree(self):
        # Crash everything from t=0; the root dies, nobody is attached.
        plan = FaultPlan(seed=7, crash_rate=1.0, crash_window=(0.0, 1e-6))
        run = run_bfs_event(make_workload("uniform", 20, seed=1).graph, 0,
                            plan=plan)
        assert run.alive == ()
        assert run.tree == {}


class TestSpannerUnderFaults:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=200, drop_rate=0.15, jitter=0.3),
            FaultPlan(seed=201, crash_rate=0.05),
            FaultPlan(seed=202, drop_rate=0.1, crash_rate=0.05),
        ],
        ids=["lossy", "crashy", "chaos"],
    )
    def test_stretch_holds_on_survivors(self, plan):
        workload = make_workload("uniform", 36, seed=2)
        params = SpannerParams.from_epsilon(0.5)
        builder = DistributedRelaxedGreedy(
            params, seed=2, fault_plan=plan
        )
        result = builder.build(workload.graph, workload.points.distance)
        alive = set(workload.graph.vertices()) - set(result.crashed)
        base = workload.graph.subgraph(alive)
        report = measure_stretch(base, result.spanner)
        assert report.max_stretch <= params.t * (1.0 + 1e-9)

    def test_zero_fault_build_equals_default_build(self):
        workload = make_workload("uniform", 36, seed=6)
        params = SpannerParams.from_epsilon(0.5)
        plain = DistributedRelaxedGreedy(params, seed=6).build(
            workload.graph, workload.points.distance
        )
        anchored = DistributedRelaxedGreedy(
            params, seed=6, fault_plan=FaultPlan.reliable()
        ).build(workload.graph, workload.points.distance)
        assert sorted(anchored.spanner.edges()) == sorted(
            plain.spanner.edges()
        )
        assert anchored.total_rounds == plain.total_rounds
        assert anchored.crashed == ()
        assert anchored.retransmissions == 0

    def test_faulty_build_is_deterministic(self):
        workload = make_workload("uniform", 32, seed=3)
        params = SpannerParams.from_epsilon(0.5)
        plan = FaultPlan(seed=300, drop_rate=0.1, crash_rate=0.05)
        a = DistributedRelaxedGreedy(params, seed=3, fault_plan=plan).build(
            workload.graph, workload.points.distance
        )
        b = DistributedRelaxedGreedy(params, seed=3, fault_plan=plan).build(
            workload.graph, workload.points.distance
        )
        assert sorted(a.spanner.edges()) == sorted(b.spanner.edges())
        assert a.crashed == b.crashed
        assert a.retransmissions == b.retransmissions
        assert a.total_rounds == b.total_rounds


class TestRepairHelpers:
    def test_repair_mis_demotes_conflicts(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        repaired, sweeps = repair_mis(adj, {0, 1})
        assert repaired == {0, 2}
        assert sweeps >= 1

    def test_repair_mis_recovers_uncovered(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        repaired, sweeps = repair_mis(adj, set())
        assert repaired == {0, 2}
        assert sweeps >= 1

    def test_repair_mis_noop_on_valid_input(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        repaired, sweeps = repair_mis(adj, {1})
        assert repaired == {1}
        assert sweeps == 0

    def test_repair_bfs_reattaches_orphans(self):
        # 0-1-2-3 path; node 2's recorded parent (1) is fine but node 3
        # lost its label entirely.
        adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        tree = {0: (0, 0), 1: (1, 0), 2: (2, 1), 3: (None, None)}
        repaired, sweeps = repair_bfs(adj, 0, tree)
        assert repaired[3] == (3, 2)
        assert sweeps == 1
        verify_bfs_tree(adj, 0, repaired)

    def test_repair_bfs_renormalizes_after_parent_death(self):
        # Node 2's parent 9 is dead (absent from adjacency): re-attach.
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        tree = {0: (0, 0), 1: (1, 0), 2: (5, 9)}
        repaired, _ = repair_bfs(adj, 0, tree)
        assert repaired[2] == (2, 1)
        verify_bfs_tree(adj, 0, repaired)

    def test_verify_bfs_tree_rejects_gap(self):
        adj = {0: {1}, 1: {0}}
        with pytest.raises(ProtocolError, match="does not span"):
            verify_bfs_tree(adj, 0, {0: (0, 0), 1: (None, None)})

    def test_verify_bfs_tree_rejects_bad_level(self):
        adj = {0: {1}, 1: {0}}
        with pytest.raises(ProtocolError, match="inconsistent"):
            verify_bfs_tree(adj, 0, {0: (0, 0), 1: (3, 0)})

    def test_verify_bfs_tree_rejects_unreachable_label(self):
        adj = {0: {1}, 1: {0}, 2: set()}
        with pytest.raises(ProtocolError, match="unreachable"):
            verify_bfs_tree(adj, 0, {0: (0, 0), 1: (1, 0), 2: (4, 0)})
