"""Equivalence suite for the incremental maintenance engine.

Two pins, mirroring ISSUE 9's acceptance criteria:

* ``repair="rebuild"`` -- after randomized insert/delete/move
  sequences the maintained base graph and spanner are **bit-equal**
  (same edge sets, identical float weights) to a from-scratch build on
  the current point set.
* ``repair="local"`` -- after every event the maintained spanner is a
  subgraph of the base graph with stretch <= t over every base edge
  (the tested bounded-stretch guarantee), while the *base graph* stays
  bit-equal to a scratch rebuild.

Plus the FaultPlan -> event-stream adapter's seed-determinism
regression and the crash/recover round-trip.
"""

import numpy as np
import pytest

from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.distributed.faults import FaultPlan
from repro.exceptions import GraphError, ParameterError
from repro.experiments.workloads import make_workload
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy, DecayPolicy, build_qubg


def edge_table(g):
    return {(u, v): w for u, v, w in g.edges()}


def alive_nodes(session):
    return np.flatnonzero(session._alive)


def drive(session, rng, steps, span):
    """Apply ``steps`` randomized insert/delete/move events."""
    lo, hi = span
    reports = []
    for _ in range(steps):
        op = int(rng.integers(4))
        alive = alive_nodes(session)
        if op == 0:
            reports.append(session.insert(rng.uniform(lo, hi)))
        elif op == 1 and alive.size > 5:
            reports.append(session.delete(int(rng.choice(alive))))
        else:
            node = int(rng.choice(alive))
            new = session.position(node) + rng.normal(0.0, 0.3, lo.shape)
            reports.append(session.move(node, np.clip(new, lo, hi)))
    return reports


def make_session(seed, repair, n=160, policy=None, alpha=1.0):
    pts = uniform_points(n, dim=2, seed=seed, expected_degree=8.0)
    session = MaintenanceSession(
        pts, 0.5, alpha=alpha, policy=policy, repair=repair
    )
    span = (pts.coords.min(axis=0), pts.coords.max(axis=0))
    return session, span


class TestRebuildPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_after_random_events(self, seed):
        session, span = make_session(
            seed,
            "rebuild",
            policy=BernoulliPolicy(0.6, seed=seed),
            alpha=0.7,
        )
        rng = np.random.default_rng(100 + seed)
        drive(session, rng, 12, span)
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)

    def test_every_event_reports_resync(self):
        session, span = make_session(0, "rebuild")
        reports = drive(session, np.random.default_rng(0), 5, span)
        assert all(r.resync for r in reports)

    def test_zero_events_equals_static_build(self):
        session, _ = make_session(1, "rebuild")
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)


class TestLocalPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_stretch_bound_after_every_event(self, seed):
        session, span = make_session(
            seed, "local", policy=DecayPolicy(0.7, seed=seed), alpha=0.7
        )
        rng = np.random.default_rng(200 + seed)
        for _ in range(20):
            drive(session, rng, 1, span)
            check = session.verify()
            assert check["ok"], check
            # The base graph itself stays pinned bit-equal: only the
            # spanner is allowed to deviate (within the stretch bound).
            base_ref, _ = session.rebuild_reference()
            assert edge_table(session.graph) == edge_table(base_ref)

    def test_quality_tracks_rebuild(self):
        session, span = make_session(3, "local", n=250)
        drive(session, np.random.default_rng(33), 30, span)
        _, result_ref = session.rebuild_reference()
        ref = result_ref.spanner
        assert session.spanner.num_edges <= 2 * ref.num_edges + 10
        assert session.spanner.max_degree() <= 2 * ref.max_degree() + 2

    def test_repair_accounting_populated(self):
        session, span = make_session(4, "local")
        reports = drive(session, np.random.default_rng(44), 10, span)
        assert len(reports) == 10
        assert all(r.wall_s >= 0.0 for r in reports)
        assert any(r.dirty_nodes > 0 for r in reports)
        assert all(
            r.repaired_edges == r.added_edges + r.removed_edges
            for r in reports
        )
        stats = session.stats()
        assert stats["events"] == 10
        assert stats["wall_s"] == pytest.approx(
            sum(r.wall_s for r in reports)
        )

    def test_resync_escape_hatch_restores_bit_equality(self):
        session, span = make_session(5, "local")
        drive(session, np.random.default_rng(55), 15, span)
        session.resync()
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)

    def test_event_errors(self):
        session, span = make_session(7, "local", n=40)
        alive = alive_nodes(session)
        dead = int(alive[0])
        session.delete(dead)
        with pytest.raises(GraphError):
            session.delete(dead)
        with pytest.raises(GraphError):
            session.move(dead, (0.0, 0.0))
        with pytest.raises(GraphError):
            session.insert(node=int(alive[1]))  # still alive
        with pytest.raises(GraphError):
            session.insert()  # fresh insert needs a position
        session.insert(node=dead)  # revival is fine
        assert session.verify()["ok"]


class TestFaultPlanAdapter:
    def test_seed_determinism(self):
        nodes = range(64)
        plan = FaultPlan(seed=9, crash_rate=0.3, recover_after=4.0)
        first = events_from_fault_plan(plan, nodes, horizon=64.0)
        second = events_from_fault_plan(plan, nodes, horizon=64.0)
        assert first == second
        other = events_from_fault_plan(
            FaultPlan(seed=10, crash_rate=0.3, recover_after=4.0),
            nodes,
            horizon=64.0,
        )
        assert first != other
        assert any(e.kind == "delete" for e in first)
        assert any(e.kind == "insert" for e in first)

    def test_stream_is_time_ordered(self):
        plan = FaultPlan(seed=2, crash_rate=0.5, recover_after=2.0)
        events = events_from_fault_plan(plan, range(80), horizon=64.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        crashed = set()
        for event in events:
            if event.kind == "delete":
                assert event.node not in crashed
                crashed.add(event.node)
            else:
                assert event.node in crashed
                crashed.discard(event.node)

    def test_crash_recover_round_trip_restores_base(self):
        session, _ = make_session(8, "local", n=150)
        before = edge_table(session.graph)
        plan = FaultPlan(seed=5, crash_rate=0.2, recover_after=3.0)
        events = events_from_fault_plan(
            plan, range(session.capacity), horizon=1e9
        )
        assert events, "plan produced no churn"
        session.apply_stream(events)
        deleted = {e.node for e in events if e.kind == "delete"}
        revived = {e.node for e in events if e.kind == "insert"}
        assert deleted == revived  # every crash recovered in-horizon
        # Revivals reuse stored positions and global ids, so the base
        # graph round-trips exactly (policy draws included).
        assert edge_table(session.graph) == before
        assert session.verify()["ok"]

    def test_fail_stop_nodes_stay_dead(self):
        session, _ = make_session(9, "local", n=100)
        plan = FaultPlan(seed=3, crash_rate=0.4, recover_after=None)
        events = events_from_fault_plan(
            plan, range(session.capacity), horizon=1e9
        )
        assert events and all(e.kind == "delete" for e in events)
        session.apply_stream(events)
        assert session.num_alive == session.capacity - len(events)
        assert session.verify()["ok"]

    def test_unknown_event_kind_rejected(self):
        session, _ = make_session(10, "local", n=30)
        with pytest.raises(Exception):
            session.apply(MaintenanceEvent("teleport", node=0))


class _DecideOnly:
    """A gray-zone policy with the per-pair ``decide`` only."""

    def __init__(self, inner):
        self._inner = inner

    def decide(self, points, u, v, dist):
        return self._inner.decide(points, u, v, dist)


class _OneVerdict:
    """``decide_batch`` answers with one verdict once ``armed``."""

    armed = False

    def decide(self, points, u, v, dist):
        return True

    def decide_batch(self, points, u, v, dist):
        return np.ones(1 if self.armed else u.shape[0], dtype=bool)


class TestGrayZonePolicies:
    """The session applies a policy exactly as ``build_qubg`` does."""

    @staticmethod
    def _points():
        return uniform_points(200, dim=2, seed=5, expected_degree=8.0)

    @staticmethod
    def _coords(session):
        return PointSet(
            np.array([session.position(i) for i in range(session.capacity)])
        )

    def test_decide_only_policy_falls_back_per_pair(self):
        pts = self._points()
        policy = _DecideOnly(BernoulliPolicy(0.5, seed=4))
        session = MaintenanceSession(pts, 0.5, alpha=0.6, policy=policy)
        expected = build_qubg(pts, 0.6, policy=policy)
        assert edge_table(session.graph) == edge_table(expected)
        batch = MaintenanceSession(
            pts, 0.5, alpha=0.6, policy=BernoulliPolicy(0.5, seed=4)
        )
        assert edge_table(session.graph) == edge_table(batch.graph)
        session.move(5, session.position(5) + np.array([0.3, 0.1]))
        expected = build_qubg(self._coords(session), 0.6, policy=policy)
        assert edge_table(session.graph) == edge_table(expected)

    def test_wrong_mask_shape_rejected_at_construction(self):
        policy = _OneVerdict()
        policy.armed = True
        with pytest.raises(GraphError, match=r"returned shape \(1,\)"):
            build_qubg(self._points(), 0.6, policy=policy)
        with pytest.raises(GraphError, match=r"returned shape \(1,\)"):
            MaintenanceSession(self._points(), 0.5, alpha=0.6, policy=policy)

    def test_wrong_mask_shape_rejected_on_move(self):
        policy = _OneVerdict()
        session = MaintenanceSession(
            self._points(), 0.5, alpha=0.6, policy=policy
        )
        policy.armed = True
        with pytest.raises(GraphError, match=r"returned shape \(1,\)"):
            session.move(5, session.position(5) + np.array([0.3, 0.1]))


class TestRejectedEvents:
    """A rejected event must leave the session exactly as it was."""

    @staticmethod
    def _state(session):
        return (
            session.num_alive,
            session.position(5).tolist(),
            session.verify()["ok"],
        )

    @pytest.mark.parametrize(
        "probe",
        [
            lambda s: s.move(5, s.position(6)),  # coincides with node 6
            lambda s: s.move(5, (float("nan"), 0.5)),
            lambda s: s.insert(s.position(6)),  # coincides with node 6
            lambda s: s.move(5, (0.5,)),  # one coordinate in 2-D
            lambda s: s.insert((float("inf"), 0.5)),
        ],
        ids=[
            "move-coincident",
            "move-nan",
            "insert-coincident",
            "move-wrong-dim",
            "insert-inf",
        ],
    )
    def test_probe_leaves_session_unchanged(self, probe):
        session = MaintenanceSession(
            make_workload("uniform", 200, seed=3).points, 0.5
        )
        before = self._state(session)
        with pytest.raises(GraphError, match="node"):
            probe(session)
        assert self._state(session) == before

    def test_bad_event_rejects_whole_epoch(self):
        session = MaintenanceSession(
            make_workload("uniform", 200, seed=3).points, 0.5
        )
        before = self._state(session)
        nudge = tuple(session.position(5) + np.array([0.01, 0.0]))
        with pytest.raises(GraphError, match="node 7"):
            session.apply_epoch(
                [
                    MaintenanceEvent("move", 5, nudge),
                    MaintenanceEvent("move", 7, (float("nan"), 0.5)),
                ]
            )
        assert self._state(session) == before

    def test_wrong_dimension_rejects_whole_epoch(self):
        session = MaintenanceSession(
            make_workload("uniform", 200, seed=3).points, 0.5
        )
        before = self._state(session)
        nudge = tuple(session.position(5) + np.array([0.01, 0.0]))
        with pytest.raises(GraphError, match="node 7"):
            session.apply_epoch(
                [
                    MaintenanceEvent("move", 5, nudge),
                    MaintenanceEvent("move", 7, (0.1, 0.2, 0.3)),
                ]
            )
        assert self._state(session) == before

    @staticmethod
    def _epoch_session():
        # resync_fraction=1.0 keeps every repair local.
        return MaintenanceSession(
            make_workload("uniform", 600, seed=0).points,
            0.5,
            resync_fraction=1.0,
        )

    @staticmethod
    def _written(session):
        return (
            edge_table(session.graph),
            edge_table(session.spanner),
            session.capacity,
            len(session.reports),
            session.stats()["epochs"],
        )

    @pytest.mark.parametrize(
        "tail, message",
        [
            ([MaintenanceEvent("delete", 1_000_000)], "node 1000000 out of"),
            ([MaintenanceEvent("delete", 2.5)], "node 2.5 is not an"),
            ([MaintenanceEvent("delete", "3")], "node '3' is not an"),
            ([MaintenanceEvent("delete", True)], "node True is not an"),
            ([MaintenanceEvent("delete")], "delete needs a node id"),
            ([MaintenanceEvent("move", 318, (1.0, 1.0))], "318 is not alive"),
            ([MaintenanceEvent("insert", 5)], "node 5 is already alive"),
            ([MaintenanceEvent("move", 7)], "move of node 7 needs"),
            ([MaintenanceEvent("insert")], "fresh node needs"),
            (
                [
                    MaintenanceEvent("insert", None, (0.123, 0.456)),
                    MaintenanceEvent("delete", 601),
                ],
                r"node 601 out of range \[0, 601\)",
            ),
        ],
        ids=[
            "out-of-range",
            "float-id",
            "str-id",
            "bool-id",
            "delete-none",
            "move-deleted",
            "revive-alive",
            "move-no-position",
            "fresh-no-position",
            "past-fresh-insert",
        ],
    )
    def test_bad_id_later_in_epoch_writes_nothing(self, tail, message):
        # The first event is valid; the epoch is refused before it is
        # written, whatever the later event's id does wrong.
        session = self._epoch_session()
        before = self._written(session)
        with pytest.raises(GraphError, match=message):
            session.apply_epoch([MaintenanceEvent("delete", 318), *tail])
        assert self._written(session) == before
        assert session.verify()["ok"]

    def test_coincident_target_mid_epoch_repairs_earlier_events(self):
        session = self._epoch_session()
        start = session.position(1).tolist()
        target = tuple(session.position(2).tolist())
        with pytest.raises(GraphError, match=r"node 1 .*\[2\]"):
            session.apply_epoch(
                [
                    MaintenanceEvent("delete", 0),
                    MaintenanceEvent("move", 1, target),
                ]
            )
        # The delete was written, repaired and recorded; the move was not.
        assert [(r.kind, r.node) for r in session.reports] == [("delete", 0)]
        assert session.stats()["epochs"] == 1
        assert 0 not in alive_nodes(session).tolist()
        assert session.position(1).tolist() == start
        assert session.verify()["ok"]

    def test_ids_follow_the_earlier_events_of_the_epoch(self):
        # Revive what the epoch deleted, move and delete what it
        # inserted, and take numpy integer ids.
        session = self._epoch_session()
        events = [
            MaintenanceEvent("delete", 318),
            MaintenanceEvent("insert", np.int64(318)),
            MaintenanceEvent("insert", None, (0.123, 0.456)),
            MaintenanceEvent("move", 600, (0.125, 0.46)),
            MaintenanceEvent("delete", np.int32(600)),
        ]
        reports = session.apply_epoch(events)
        assert [r.node for r in reports] == [318, 318, 600, 600, 600]
        assert all(type(r.node) is int for r in reports)
        assert session.capacity == 601
        assert 318 in alive_nodes(session).tolist()
        assert 600 not in alive_nodes(session).tolist()
        assert session.verify()["ok"]

    def test_revive_onto_occupied_site_rejected(self):
        # A dead node keeps its position; reviving it after another node
        # moved onto that spot must fail before any state is written.
        session = MaintenanceSession(
            make_workload("uniform", 200, seed=3).points, 0.5
        )
        site = tuple(session.position(9).tolist())
        session.delete(9)
        session.move(8, site)
        before = self._state(session)
        with pytest.raises(GraphError, match=r"node 9 .*\[8\]"):
            session.insert(node=9)
        assert self._state(session) == before
        assert 9 not in alive_nodes(session).tolist()
        assert tuple(session.position(9).tolist()) == site

    def test_coincident_points_named_at_construction(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(
            GraphError, match=r"points 1 and 2 coincide at \(0\.5, 0\.5\)"
        ):
            MaintenanceSession(pts, 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_named_at_construction(self, bad):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.2, bad], [bad, 0.1]])
        with pytest.raises(GraphError, match="point 2 has a non-finite"):
            MaintenanceSession(pts, 0.5)

    @pytest.mark.parametrize(
        "fraction", [-1.0, 1.5, float("nan"), float("inf")]
    )
    def test_resync_fraction_outside_unit_interval_rejected(self, fraction):
        pts = make_workload("uniform", 30, seed=3).points
        with pytest.raises(ParameterError, match="resync_fraction"):
            MaintenanceSession(pts, 0.5, resync_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_resync_fraction_bounds_accepted(self, fraction):
        pts = make_workload("uniform", 30, seed=3).points
        session = MaintenanceSession(pts, 0.5, resync_fraction=fraction)
        assert session.resync_fraction == fraction
