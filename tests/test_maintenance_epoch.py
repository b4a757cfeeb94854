"""Equivalence suite for epoch-batched maintenance (ISSUE 10).

Three pins:

* ``apply_epoch`` over events with **disjoint** dirty balls is
  bit-equal (same edge sets, identical float weights, base graph and
  spanner both) to applying the same events sequentially via
  ``apply`` -- coalescing buys amortization, never a different graph;
* a **single-event epoch** is bit-equal to the per-event path;
* a ``repair="rebuild"`` epoch is bit-equal to a from-scratch build on
  the post-epoch point set.

Plus the stream/adapter plumbing that rides along: ``apply_stream``
batch-mode validation and grouping, fault-plan event streams applied
epoch by epoch, and the per-phase timing counters.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.distributed.faults import FaultPlan
from repro.exceptions import ParameterError
from repro.experiments.workloads import make_mobility, make_workload
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points


def edge_table(g):
    return {(u, v): w for u, v, w in g.edges()}


def session_state(session):
    return edge_table(session.graph), edge_table(session.spanner)


def make_session(seed, n=160, **kwargs):
    pts = uniform_points(n, dim=2, seed=seed, expected_degree=8.0)
    return MaintenanceSession(pts, 0.5, **kwargs), pts


def two_blob_session(seed, gap=60.0, blob=60, **kwargs):
    """Two dense blobs far beyond any dirty-ball diameter apart, so
    same-epoch events (one per blob) can never coalesce."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 5.0, size=(blob, 2))
    b = rng.uniform(0.0, 5.0, size=(blob, 2)) + np.array([gap, 0.0])
    session = MaintenanceSession(PointSet(np.vstack([a, b])), 0.5, **kwargs)
    return session, blob


def blob_moves(session, blob, seed, time=0.0):
    """One move event inside each blob (disjoint dirty balls)."""
    rng = np.random.default_rng(seed)
    events = []
    for node in (int(rng.integers(blob)), blob + int(rng.integers(blob))):
        new = session.position(node) + rng.normal(0.0, 0.4, 2)
        events.append(MaintenanceEvent("move", node, tuple(new), time))
    return events


def churn_events(pts, seed, epochs=4, rate=0.05):
    model = make_mobility("flocking", pts.coords, seed=seed, speed=0.25)
    return [
        ev
        for e in range(epochs)
        for ev in model.step_events(rate, time=float(e))
    ]


class TestEpochEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_disjoint_balls_match_sequential_apply(self, seed):
        # resync_fraction=1.0 pins the *local* repair path: a blob is a
        # large fraction of this small instance, and an escalation to
        # rebuild would bypass the coalescing under test.
        batched, blob = two_blob_session(seed, resync_fraction=1.0)
        sequential, _ = two_blob_session(seed, resync_fraction=1.0)
        for t in range(4):
            events = blob_moves(batched, blob, seed=50 + seed + t, time=t)
            reports = batched.apply_epoch(events)
            for ev in events:
                sequential.apply(ev)
            # Far-apart balls must stay separate regions: every event
            # leads its own region, none is folded into another's.
            assert not any(r.coalesced for r in reports)
            assert not any(r.resync for r in reports)
        assert session_state(batched) == session_state(sequential)
        assert batched.verify()["ok"]

    @pytest.mark.parametrize("seed", range(3))
    def test_single_event_epoch_bit_equal(self, seed):
        batched, pts = make_session(seed)
        plain, _ = make_session(seed)
        rng = np.random.default_rng(200 + seed)
        lo, hi = pts.coords.min(axis=0), pts.coords.max(axis=0)
        for t in range(6):
            node = int(rng.choice(np.flatnonzero(batched._alive)))
            new = np.clip(
                batched.position(node) + rng.normal(0.0, 0.3, 2), lo, hi
            )
            ev = MaintenanceEvent("move", node, tuple(new), float(t))
            (report,) = batched.apply_epoch([ev])
            assert not report.coalesced
            plain.apply(ev)
        assert session_state(batched) == session_state(plain)

    @pytest.mark.parametrize("seed", range(2))
    def test_rebuild_mode_epoch_bit_equal_to_scratch(self, seed):
        session, pts = make_session(seed, repair="rebuild")
        session.apply_stream(churn_events(pts, 30 + seed), batch="epoch")
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)

    def test_empty_epoch_is_a_noop(self):
        session, _ = make_session(0)
        before = session_state(session)
        assert session.apply_epoch([]) == []
        assert session_state(session) == before
        assert session.stats()["epochs"] == 0

    def test_unknown_event_kind_rejected(self):
        session, _ = make_session(0)
        with pytest.raises(ParameterError):
            session.apply_epoch([MaintenanceEvent("teleport", node=0)])


class TestStreamBatching:
    def test_batch_mode_validated(self):
        session, pts = make_session(0)
        with pytest.raises(ParameterError):
            session.apply_stream([], batch="minute")

    @pytest.mark.parametrize("batch", [None, "event"])
    def test_per_event_modes_identical(self, batch):
        a, pts = make_session(1)
        b, _ = make_session(1)
        events = churn_events(pts, 70, epochs=2)
        a.apply_stream(events, batch=batch)
        for ev in events:
            b.apply(ev)
        assert session_state(a) == session_state(b)

    def test_epoch_mode_groups_equal_times(self):
        session, pts = make_session(2)
        events = churn_events(pts, 80, epochs=3)
        reports = session.apply_stream(events, batch="epoch")
        assert len(reports) == len(events)
        stats = session.stats()
        assert stats["events"] == len(events)
        assert stats["epochs"] == 3  # one epoch per distinct timestamp
        assert session.verify()["ok"]

    def test_phase_counters_populate(self):
        # n large enough that repair stays local (resync short-circuits
        # before any phase timer starts).
        session, pts = make_session(3, n=600)
        session.apply_stream(churn_events(pts, 90), batch="epoch")
        stats = session.stats()
        phases = [
            stats["promotion_s"],
            stats["redundancy_s"],
            stats["certification_s"],
        ]
        assert all(p >= 0.0 for p in phases)
        assert sum(phases) > 0.0
        assert sum(phases) <= stats["wall_s"] + 1e-9


class TestFaultPlanEpochs:
    def test_grouped_epochs_drive_apply_epoch(self):
        session, _ = make_session(4, n=120)
        plan = FaultPlan(seed=3, crash_rate=0.1, recover_after=2.0)
        events = events_from_fault_plan(plan, range(120), horizon=40.0)
        assert events  # the plan must actually schedule something
        reports = session.apply_stream(events, batch="epoch")
        assert len(reports) == len(events)
        assert session.stats()["epochs"] == len({ev.time for ev in events})
        assert session.verify()["ok"]


class TestChurnPins:
    """Local-repair outputs pinned to recorded values.

    The digests and counters below were recorded by running these exact
    streams on the code that still kept a two-layer CSR, whose
    base-resident deletes and weight overwrites left the edge log in a
    different row order (the flocking stream overwrote 905 such rows and
    deleted 156; the fault stream deleted 54).  Row order must reach
    only consumers that sort, so every value here has to stay put.
    """

    @staticmethod
    def _session():
        points = make_workload("uniform", 300, seed=0).points
        # resync_fraction=1.0 keeps every repair local.
        return MaintenanceSession(points, 0.5, resync_fraction=1.0)

    @staticmethod
    def _assert_pinned(session, digest, counters):
        blob = "".join(
            f"{u},{v},{w!r};" for u, v, w in sorted(session.spanner.edges())
        )
        stats = session.stats()
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
        assert {key: stats[key] for key in counters} == counters

    def test_flocking_epochs(self):
        session = self._session()
        model = make_mobility(
            "flocking", make_workload("uniform", 300, seed=0).points.coords,
            seed=0, speed=0.25,
        )
        for epoch in range(20):
            session.apply_epoch(model.step_events(0.05, time=float(epoch)))
        self._assert_pinned(
            session,
            "3facc9238e97fe4b57ad738380d7a620128552830cfa2a96003ae42f9d57b7cf",
            {
                "repaired_edges": 567,
                "resyncs": 0,
            },
        )

    def test_fault_plan_epochs(self):
        session = self._session()
        events = events_from_fault_plan(
            FaultPlan(seed=3, crash_rate=0.1, recover_after=2.0),
            range(300),
            horizon=40.0,
        )
        assert len(events) == 31
        session.apply_stream(events, batch="epoch")
        self._assert_pinned(
            session,
            "de8f5afe6b541f530ba7d31ae3b818fc8db167c460ea5023491b9f21470bcb20",
            {
                "repaired_edges": 67,
                "resyncs": 0,
            },
        )
