"""The failure scenario family and E11 (graceful degradation).

Pins the scenario registry's shape, the ``reliable`` scenario's anchor
row (``sync_equal`` must be True: the event tier reproduced the
synchronous scalar tier bit-for-bit), faulty distributed builds
against recorded values, and seed-determinism of the fault-injection
machinery end to end (S3).
"""

import hashlib

import numpy as np
import pytest

import repro.distributed.dist_spanner as dist_spanner_mod
from repro.core.cover import cover_from_centers
from repro.distributed import FaultPlan
from repro.distributed.dist_spanner import (
    DistributedRelaxedGreedy,
    DistributedSpannerResult,
    promote_uncovered,
)
from repro.distributed.engine import RunResult
from repro.distributed.ledger import RoundLedger
from repro.distributed.unreliable import EventMISRun
from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.failures import (
    FAULT_REGISTRY,
    FaultScenarioSpec,
    fault_scenario,
    register_fault,
)
from repro.experiments.workloads import make_workload
from repro.extensions.fault_tolerance import fault_injection_report
from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.graphs.paths import multi_source_ball_lists
from repro.params import SpannerParams


class TestScenarioRegistry:
    def test_expected_family_registered(self):
        assert {
            "reliable", "lossy", "lossy-heavy", "bursty", "crashy",
            "phoenix", "flaky-links", "jittery", "drifting", "chaos",
        } <= set(FAULT_REGISTRY)

    def test_unknown_scenario_names_known_ones(self):
        with pytest.raises(KeyError, match="known:"):
            fault_scenario("nope")

    def test_reliable_is_the_zero_fault_plan(self):
        plan = fault_scenario("reliable").plan(seed=9)
        assert plan.zero_fault
        assert plan.latency == 1.0
        assert plan.seed == 9

    def test_plan_carries_the_scenario_knobs(self):
        plan = fault_scenario("chaos").plan(seed=4)
        spec = fault_scenario("chaos")
        assert plan.drop_rate == spec.drop_rate
        assert plan.crash_rate == spec.crash_rate
        assert plan.jitter == spec.jitter
        assert not plan.zero_fault

    def test_as_row_flattens_only_active_knobs(self):
        row = fault_scenario("lossy").as_row()
        assert row["fault"] == "lossy"
        assert row["drop_rate"] == 0.1
        assert "crash_rate" not in row
        assert "latency" not in row

    def test_register_fault_roundtrip(self):
        spec = FaultScenarioSpec("tmp-test", "temporary", drop_rate=0.42)
        try:
            register_fault(spec)
            assert fault_scenario("tmp-test").drop_rate == 0.42
        finally:
            FAULT_REGISTRY.pop("tmp-test", None)


class TestE11:
    def test_quick_passes_and_reliable_row_anchors(self):
        result = EXPERIMENT_REGISTRY["E11"](quick=True, seed=3)
        assert result.passed, result.to_text()
        by_fault = {row["fault"]: row for row in result.rows}
        assert by_fault["reliable"]["sync_equal"] is True
        assert by_fault["reliable"]["retransmissions"] == 0
        assert by_fault["reliable"]["crashed"] == 0
        for row in result.rows:
            assert row["stretch_ok"]
            assert row["wall_s"] >= 0.0

    def test_faults_override_narrows_the_rows(self):
        result = EXPERIMENT_REGISTRY["E11"](
            quick=True, seed=0, faults=("reliable", "lossy"), sizes=(24,)
        )
        assert [row["fault"] for row in result.rows] == [
            "reliable", "lossy"
        ]
        assert all(row["n"] == 24 for row in result.rows)

    def test_same_seed_runs_identical(self):
        a = EXPERIMENT_REGISTRY["E11"](
            quick=True, seed=2, faults=("chaos",), sizes=(28,)
        )
        b = EXPERIMENT_REGISTRY["E11"](
            quick=True, seed=2, faults=("chaos",), sizes=(28,)
        )
        keys = [
            "mis_rounds", "mis_messages", "retransmissions",
            "recovery_rounds", "dropped", "crashed", "build_rounds",
            "spanner_edges", "repair_edges", "stretch",
        ]
        for ra, rb in zip(a.rows, b.rows):
            for key in keys:
                assert ra[key] == rb[key], key


def _edge_digest(spanner):
    """Short hash of the spanner's sorted (u, v) pairs, weights left out."""
    pairs = sorted(
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v, _ in spanner.edges()
    )
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


class TestFaultyBuildPins:
    """Faulty distributed builds, built the way E11 builds them, against
    values recorded before the fault path's conflict-graph MIS switched
    from the relabeled dict form to the CSR arrays the reliable path
    uses.  Every build below runs that conflict-graph MIS on the event
    tier, so a change to its node ids or fault draws moves these values.
    Columns: scenario, n, edge digest, total_rounds, retransmissions,
    recovery_rounds, repair_edges."""

    @pytest.mark.parametrize(
        "name, n, digest, rounds, retrans, recovery, repair",
        [
            ("lossy", 40, "644d3778e80c9e09", 497, 6, 0, 0),
            ("lossy", 80, "5ccd4747079f9e6a", 890, 33, 0, 0),
            ("crashy", 40, "50b6d5b5b20b5de5", 422, 0, 0, 0),
            ("crashy", 80, "c079f5478680d220", 470, 0, 0, 0),
            ("jittery", 40, "644d3778e80c9e09", 515, 0, 0, 0),
            ("jittery", 80, "5ccd4747079f9e6a", 1409, 0, 0, 0),
            ("chaos", 40, "50b6d5b5b20b5de5", 551, 4, 0, 0),
            ("chaos", 80, "c079f5478680d220", 599, 4, 0, 0),
        ],
    )
    def test_faulty_build_matches_recorded_values(
        self, name, n, digest, rounds, retrans, recovery, repair
    ):
        seed = 0
        workload = make_workload("uniform", n, seed=seed + 61)
        build = DistributedRelaxedGreedy(
            SpannerParams.from_epsilon(0.5),
            seed=seed,
            fault_plan=fault_scenario(name).plan(seed),
        ).build(workload.graph, workload.points.distance)
        assert _edge_digest(build.spanner) == digest
        assert build.total_rounds == rounds
        assert build.retransmissions == retrans
        assert build.recovery_rounds == recovery
        assert build.repair_edges == repair


class TestDeadSetsOnArrays:
    """A fault-plan build asks the plan who is down with one array call
    per phase and one at the end, never node by node."""

    def test_build_never_asks_node_by_node(self, monkeypatch):
        sizes = []
        alive_at = FaultPlan.alive_at

        def counting(plan, nodes, at):
            sizes.append(len(nodes))
            return alive_at(plan, nodes, at)

        monkeypatch.setattr(FaultPlan, "alive_at", counting)
        workload = make_workload("uniform", 80, seed=61)
        build = DistributedRelaxedGreedy(
            SpannerParams.from_epsilon(0.5),
            fault_plan=fault_scenario("crashy").plan(0),
        ).build(workload.graph, workload.points.distance)
        long_phases = [p for p in build.phases if p.index > 0]
        assert sizes == [80] * (len(long_phases) + 1)


class TestInjectionDeterminism:
    """S3: same seed => identical reports, different seed may differ."""

    @staticmethod
    def _instance():
        from repro.experiments.workloads import make_workload

        w = make_workload("uniform", 30, seed=7)
        spanner = Graph(30)
        for u, v, wt in w.graph.edges():
            spanner.add_edge(u, v, wt)
        return w.graph, spanner

    def test_fault_injection_report_same_seed_identical(self):
        base, spanner = self._instance()
        a = fault_injection_report(base, spanner, 1.5, 2, trials=10, seed=5)
        b = fault_injection_report(base, spanner, 1.5, 2, trials=10, seed=5)
        assert a == b

    def test_fault_plan_draws_are_pure_functions_of_seed(self):
        plan = FaultPlan(seed=17, drop_rate=0.3, jitter=0.5, crash_rate=0.2)
        twin = FaultPlan(seed=17, drop_rate=0.3, jitter=0.5, crash_rate=0.2)
        for counter in range(50):
            assert plan.dropped(1, 2, counter, 3.0) == twin.dropped(
                1, 2, counter, 3.0
            )
            assert plan.latency_of(1, 2, counter) == twin.latency_of(
                1, 2, counter
            )
        nodes = np.arange(30)
        for mine, theirs in zip(
            plan.crash_schedules(nodes), twin.crash_schedules(nodes)
        ):
            assert mine.tolist() == theirs.tolist()
        assert (plan.clock_rates(nodes) == twin.clock_rates(nodes)).all()


def _promote_reference(spanner, radius, centers, dead):
    """Scalar promotion: scan every node in ascending order and promote
    each alive one no ball so far reaches, one ball search apiece."""
    covered = set()
    if centers:
        _, ball_v, _ = multi_source_ball_lists(
            spanner, np.asarray(centers, dtype=np.int64), radius
        )
        covered = set(map(int, ball_v))
    promoted = []
    for u in range(spanner.num_vertices):
        if u in dead or u in covered:
            continue
        promoted.append(u)
        _, ball_v, _ = multi_source_ball_lists(
            spanner, np.asarray([u], dtype=np.int64), radius
        )
        covered.update(map(int, ball_v))
    return promoted


def _promote(spanner, radius, centers, dead):
    """:func:`promote_uncovered` called on id collections, as a list."""
    alive = np.ones(spanner.num_vertices, dtype=bool)
    alive[list(dead)] = False
    centers = np.asarray(centers, dtype=np.int64)
    return promote_uncovered(spanner, radius, centers, alive).tolist()


#: Relay 1 links center 0 to nodes 2 and 3; node 6 hangs off 2 and
#: node 7 off 6.  Cover radius 1.0, centers 0 and 4.
_RELAY_EDGES = [(0, 1, 0.3), (1, 2, 0.3)]
_OTHER_EDGES = [
    (2, 3, 0.3), (3, 4, 0.9), (0, 5, 0.5), (2, 6, 0.5), (6, 7, 0.6),
]


def _relay_spanner(relay_alive):
    g = Graph(8)
    for u, v, w in _OTHER_EDGES + (_RELAY_EDGES if relay_alive else []):
        g.add_edge(u, v, w)
    return g


class TestCenterPromotion:
    """The fault path's safety net: alive nodes a mid-run crash leaves
    beyond the cover radius of every center become centers."""

    def test_dead_relay_cuts_node_off_from_its_center(self):
        spanner = _relay_spanner(relay_alive=False)
        promoted = _promote(spanner, 1.0, [0, 4], {1})
        # 2 lost its path to 0; 6 lies within 2's ball, 7 beyond it.
        assert promoted == [2, 7]
        assert promoted == _promote_reference(spanner, 1.0, [0, 4], {1})
        cover_from_centers(
            spanner, 1.0, [0, 2, 4, 7], vertices=[0, 2, 3, 4, 5, 6, 7]
        )

    def test_live_relay_keeps_its_nodes_covered(self):
        spanner = _relay_spanner(relay_alive=True)
        assert _promote(spanner, 1.0, [0, 4], set()) == [6]
        assert _promote_reference(spanner, 1.0, [0, 4], set()) == [6]
        assert _promote(spanner, 1.0, [0, 4, 6], set()) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_after_random_crashes(self, seed):
        rng = np.random.default_rng(seed)
        spanner = build_udg(uniform_points(150, seed=seed, side=6.0))
        radius = 0.8
        centers = sorted(
            rng.choice(150, size=20, replace=False).tolist()
        )
        dead = set(rng.choice(150, size=15, replace=False).tolist())
        dead -= set(centers)
        for u in dead:
            for v in list(spanner.neighbors(u)):
                spanner.remove_edge(u, v)
        promoted = _promote(spanner, radius, centers, dead)
        assert promoted
        assert promoted == _promote_reference(spanner, radius, centers, dead)

    def test_fault_path_promotes_after_a_mid_run_crash(self, monkeypatch):
        """A cover MIS run in which the relay crashes: ``_luby`` reports
        the relay down and moves the build's clock, and
        ``_recover_cover`` prunes the relay, promotes the cut-off nodes
        and charges the promotion to the ledger."""
        spanner = _relay_spanner(relay_alive=True)
        builder = DistributedRelaxedGreedy(
            SpannerParams.from_epsilon(0.5), fault_plan=FaultPlan()
        )
        indptr, indices = builder._proximity_graph(spanner, 1.0)

        def crash_relay(topology, **kwargs):
            return EventMISRun(
                independent_set=frozenset({0, 4}),
                result=RunResult(rounds=3, messages=10, words=10, outputs={}),
                alive=(0, 2, 3, 4, 5, 6, 7),
                t_end=1.0,
            )

        monkeypatch.setattr(dist_spanner_mod, "run_luby_mis_event", crash_relay)
        ledger = RoundLedger()
        result = DistributedSpannerResult(
            spanner=spanner, params=builder.params, ledger=ledger
        )
        mis, alive = builder._luby(
            indptr, indices, 1, result, np.ones(8, dtype=bool)
        )
        assert np.flatnonzero(~alive).tolist() == [1]
        assert (mis.engine_rounds, mis.messages) == (3, 10)
        assert result.final_time == 1.0
        centers = builder._recover_cover(
            spanner, 1.0, np.flatnonzero(mis.chosen), alive, 1, 2, result
        )
        assert list(spanner.neighbors(1)) == []
        assert centers.tolist() == [0, 2, 4, 7]
        assert result.recovery_rounds == 1
        recover = [e for e in ledger.entries if e.step == "cover.recover"]
        assert [(e.rounds, e.messages) for e in recover] == [(2, 2)]
