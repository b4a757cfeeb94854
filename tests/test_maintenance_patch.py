"""Churn epochs patch the base graph and the spanner once per epoch.

``MaintenanceSession`` stages an epoch's events, then decides the
written nodes' base edges at their final positions from one grid join
and writes base graph and spanner with one bulk call each.  Pinned
here:

* after every epoch the base graph is the from-scratch alpha-UBG
  (``_build_base``): at alpha 1, under Bernoulli, decay and obstacle
  gray zones, in 3-D, on epochs that insert, revive and delete, and on
  the epochs that write one node twice;
* after every epoch the session equals the per-event twin
  (``tests/oracles/maintenance.py``, one ``Graph`` call per edge as
  each event comes up): base graph, spanner rows, every report field
  but the timers, and the ``stats()`` counters;
* each event its own epoch (a lone target pairs with the nodes of its
  bounding box without the grid join) gives the same;
* a spanner edge whose base edge vanishes at an intermediate event is
  dropped there and decided again by promotion;
* an occupied target, which ends its epoch, pairs with nothing;
* the event writers make no per-edge ``Graph`` call.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.maintenance as maintenance_mod
from oracles.maintenance import patch_each_event
from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.distributed.faults import FaultPlan
from repro.exceptions import GraphError
from repro.experiments.workloads import make_mobility
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy, DecayPolicy, ObstaclePolicy
from repro.graphs.graph import Graph
from test_maintenance_balls import mixed_epoch
from test_maintenance_two_hop import edge_case_events, plain_moves

TIMINGS = {"wall_s", "promotion_s", "redundancy_s", "certification_s"}
FIELDS = [
    f.name for f in dataclasses.fields(maintenance_mod.RepairReport)
    if f.name not in TIMINGS
]
COUNTERS = ("events", "epochs", "repaired_edges", "resyncs")
SHAPES = [
    "moves_twice",
    "moves_then_deleted",
    "deleted_then_revived_elsewhere",
    "inserted_then_moved",
    "occupied_target_raises",
]


def edge_table(g):
    return {(u, v): w for u, v, w in g.edges()}


def spanner_rows(session):
    return [(u, v, repr(w)) for u, v, w in sorted(session.spanner.edges())]


def report_rows(reports):
    return [[getattr(r, name) for name in FIELDS] for r in reports]


def obstacles(seed, span, count=30):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, span, size=(count, 2))
    return ObstaclePolicy(
        obstacles=tuple((tuple(c.tolist()), 0.3) for c in centers)
    )


def gray_zones():
    span = uniform_points(400, dim=2, seed=4, expected_degree=8.0).coords.max()
    return {
        "alpha1": {},
        "bernoulli": {"alpha": 0.6, "policy": BernoulliPolicy(0.5, seed=8)},
        "decay": {"alpha": 0.6, "policy": DecayPolicy(0.6, seed=3)},
        "obstacle": {"alpha": 0.6, "policy": obstacles(2, span)},
    }


def assert_base_is_rebuilt(session):
    assert edge_table(session.graph) == edge_table(session._build_base())


@pytest.mark.parametrize("zone", list(gray_zones()))
@pytest.mark.parametrize("model", ["flocking", "convoy"])
def test_base_equals_a_rebuild_after_every_epoch(zone, model):
    pts = uniform_points(400, dim=2, seed=4, expected_degree=8.0)
    session = MaintenanceSession(pts, 0.5, **gray_zones()[zone])
    mobility = make_mobility(model, pts.coords, seed=5, speed=0.3)
    for epoch in range(4):
        session.apply_epoch(mobility.step_events(0.1, time=float(epoch)))
        assert_base_is_rebuilt(session)
    assert session.verify()["ok"]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("zone", ["alpha1", "bernoulli"])
def test_base_equals_a_rebuild_on_mixed_epochs(dim, zone):
    """Moves, deletes, revivals in place and elsewhere, fresh inserts."""
    pts = uniform_points(300, dim=dim, seed=dim, expected_degree=6.0)
    session = MaintenanceSession(pts, 0.5, **gray_zones()[zone])
    rng = np.random.default_rng(dim)
    for epoch in range(4):
        session.apply_epoch(mixed_epoch(session, rng, float(epoch)))
        assert_base_is_rebuilt(session)
    assert session.verify()["ok"]


@pytest.mark.parametrize("zone", ["alpha1", "bernoulli", "obstacle"])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_node_written_twice(shape, zone):
    """The five epoch shapes of ``test_change_log_edge_cases``: the base
    is a rebuild's and the session the per-event twin's after each."""
    pts = uniform_points(300, dim=2, seed=9, expected_degree=8.0)
    fast = MaintenanceSession(pts, 0.5, **gray_zones()[zone])
    slow = patch_each_event(MaintenanceSession(pts, 0.5, **gray_zones()[zone]))
    rng = np.random.default_rng(10)
    for _ in range(2):
        for events in (edge_case_events(shape, fast, rng), plain_moves(fast, rng)):
            outcomes = []
            for twin in (fast, slow):
                try:
                    twin.apply_epoch(events)
                    outcomes.append(None)
                except GraphError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert_same(fast, slow)
            assert_base_is_rebuilt(fast)
    assert fast.verify()["ok"]


def assert_same(fast, slow):
    assert edge_table(fast.graph) == edge_table(slow.graph)
    assert spanner_rows(fast) == spanner_rows(slow)
    assert report_rows(fast.reports) == report_rows(slow.reports)
    assert [fast.stats()[k] for k in COUNTERS] == [
        slow.stats()[k] for k in COUNTERS
    ]


def twin_sessions(n, seed, **kwargs):
    pts = uniform_points(n, dim=2, seed=seed, expected_degree=8.0)
    fast = MaintenanceSession(pts, 0.5, **kwargs)
    slow = patch_each_event(MaintenanceSession(pts, 0.5, **kwargs))
    return fast, slow, pts


@pytest.mark.parametrize(
    "model, kwargs",
    [
        ("flocking", {}),
        ("convoy", {}),
        ("convoy", {"alpha": 0.6, "policy": obstacles(1, 14.0)}),
    ],
    ids=["flocking", "convoy", "convoy-obstacle"],
)
def test_mobility_epochs_equal_the_per_event_twin(model, kwargs):
    fast, slow, pts = twin_sessions(600, 1, **kwargs)
    mobility = make_mobility(model, pts.coords, seed=11, speed=0.25)
    for epoch in range(4):
        events = mobility.step_events(0.08, time=float(epoch))
        fast.apply_epoch(events)
        slow.apply_epoch(events)
        assert_same(fast, slow)
    assert fast.stats()["repaired_edges"] > 0
    assert fast.verify()["ok"]


def test_fault_plan_epochs_equal_the_per_event_twin():
    fast, slow, _ = twin_sessions(300, 2, resync_fraction=1.0)
    events = events_from_fault_plan(
        FaultPlan(seed=3, crash_rate=0.1, recover_after=2.0),
        range(300),
        horizon=30.0,
    )
    assert any(e.kind == "insert" for e in events)
    epochs = {}
    for event in events:
        epochs.setdefault(event.time, []).append(event)
    for batch in epochs.values():
        fast.apply_epoch(batch)
        slow.apply_epoch(batch)
        assert_same(fast, slow)
    assert fast.verify()["ok"]


@pytest.mark.parametrize(
    "dim, zone",
    [
        (2, "alpha1"),
        (2, "bernoulli"),
        (2, "obstacle"),
        (3, "alpha1"),
        (3, "bernoulli"),
    ],
)
def test_one_event_epochs_equal_the_per_event_twin(dim, zone):
    """Each event its own epoch, as ``apply_stream(batch="event")`` runs
    a stream: moves, deletes, revivals and fresh inserts."""
    pts = uniform_points(300, dim=dim, seed=dim, expected_degree=6.0)
    fast = MaintenanceSession(pts, 0.5, **gray_zones()[zone])
    slow = patch_each_event(MaintenanceSession(pts, 0.5, **gray_zones()[zone]))
    rng = np.random.default_rng(dim)
    for epoch in range(2):
        for event in mixed_epoch(fast, rng, float(epoch)):
            fast.apply(event)
            slow.apply(event)
            assert_same(fast, slow)
            assert_base_is_rebuilt(fast)
    assert fast.verify()["ok"]


def test_occupied_target_pairs_with_nothing():
    """The epoch ends before the event whose target is occupied, so a
    node within 1 of that target, moved there by an earlier event of the
    epoch, gets no base edge to the node that stayed put."""
    points = PointSet(
        np.array([[0.0, 0.0], [5.0, 5.0], [3.0, 0.0], [0.0, 3.0]])
    )
    fast = MaintenanceSession(points, 0.5)
    slow = patch_each_event(MaintenanceSession(points, 0.5))
    events = [
        MaintenanceEvent("move", 0, (2.2, 0.0)),  # 0.8 from node 2
        MaintenanceEvent("move", 1, (3.0, 0.0)),  # node 2 sits there
    ]
    for session in (fast, slow):
        with pytest.raises(GraphError, match=r"node 1 .*\[2\]"):
            session.apply_epoch(events)
    assert edge_table(fast.graph) == {(0, 2): 0.7999999999999998}
    assert_same(fast, slow)
    assert_base_is_rebuilt(fast)


def test_edge_vanishing_mid_epoch_is_promoted_again(monkeypatch):
    """x moves beyond 1 of y's old position, then y moves back within 1
    of x: the spanner edge drops at x's event, and promotion decides the
    pair again (counted in ``repaired_edges``).  Judged at the final
    positions alone, the edge would have stayed with no repair."""
    points = PointSet(np.array([[0.0, 0.0], [0.9, 0.0], [20.0, 20.0]]))
    session = MaintenanceSession(points, 0.5, resync_fraction=1.0)
    twin = patch_each_event(
        MaintenanceSession(points, 0.5, resync_fraction=1.0)
    )
    assert session.spanner.has_edge(0, 1)
    dropped = []
    remove = Graph.remove_edges_arrays

    def spy(graph, u, v):
        if graph is session.spanner:
            dropped.extend(zip(np.asarray(u).tolist(), np.asarray(v).tolist()))
        return remove(graph, u, v)

    monkeypatch.setattr(Graph, "remove_edges_arrays", spy)
    events = [
        MaintenanceEvent("move", 0, (-0.2, 0.0)),  # 1.1 from y's old site
        MaintenanceEvent("move", 1, (0.7, 0.0)),  # 0.9 from x's new site
    ]
    session.apply_epoch(events)
    twin.apply_epoch(events)
    assert dropped == [(0, 1)]
    assert session.stats()["repaired_edges"] == 1
    assert session.reports[0].added_edges == 1
    assert session.spanner.weight(0, 1) == session.graph.weight(0, 1)
    assert_same(session, twin)
    assert session.verify()["ok"]


def test_gray_edge_crossing_an_obstacle_mid_epoch_is_promoted_again():
    """The gray-zone form: after x's move the segment to y's old
    position crosses an obstacle, after y's move it does not.  The
    policy is asked on the coordinates x's event leaves, so the edge
    drops there and promotion decides it again."""
    points = PointSet(np.array([[0.0, 0.0], [0.8, 0.0], [20.0, 20.0]]))
    policy = ObstaclePolicy(obstacles=(((0.4, 0.4), 0.15),))
    sessions = [
        MaintenanceSession(
            points, 0.5, alpha=0.6, policy=policy, resync_fraction=1.0
        )
        for _ in range(2)
    ]
    session, twin = sessions[0], patch_each_event(sessions[1])
    assert session.spanner.has_edge(0, 1)
    events = [
        MaintenanceEvent("move", 0, (0.1, 0.7)),  # crosses to (0.8, 0)
        MaintenanceEvent("move", 1, (0.85, 0.75)),  # clear of it
    ]
    session.apply_epoch(events)
    twin.apply_epoch(events)
    assert session.graph.has_edge(0, 1)
    assert session.stats()["repaired_edges"] == 1
    assert_same(session, twin)
    assert_base_is_rebuilt(session)


def test_event_writers_make_no_per_edge_graph_call(monkeypatch):
    """On a move-only epoch, and on a one-move epoch, nothing before the
    repair starts calls ``Graph.add_edge``, ``remove_edge`` or
    ``has_edge``."""
    pts = uniform_points(600, dim=2, seed=3, expected_degree=8.0)
    session = MaintenanceSession(pts, 0.5)
    mobility = make_mobility("flocking", pts.coords, seed=3, speed=0.25)
    calls, repairing = [], []
    for name in ("add_edge", "remove_edge", "has_edge"):
        method = getattr(Graph, name)

        def spy(graph, *args, _method=method, _name=name):
            if not repairing:
                calls.append(_name)
            return _method(graph, *args)

        monkeypatch.setattr(Graph, name, spy)
    close = MaintenanceSession._close_epoch

    def spy_close(self, *args):
        repairing.append(True)
        try:
            return close(self, *args)
        finally:
            repairing.pop()

    monkeypatch.setattr(MaintenanceSession, "_close_epoch", spy_close)
    events = mobility.step_events(0.1, time=0.0)
    assert len(events) == 60 and {e.kind for e in events} == {"move"}
    session.apply_epoch(events)
    session.apply_epoch(mobility.step_events(0.1, time=1.0)[:1])
    assert calls == []
    assert_base_is_rebuilt(session)


class _RaiseOnSecondBatch:
    """A gray-zone policy whose ``decide_batch`` raises once armed."""

    armed = False

    def decide(self, points, u, v, dist):
        return True

    def decide_batch(self, points, u, v, dist):
        if self.armed:
            raise GraphError("policy refused")
        return np.ones(len(u), dtype=bool)


def test_policy_that_raises_leaves_the_epoch_unwritten():
    policy = _RaiseOnSecondBatch()
    pts = uniform_points(200, dim=2, seed=5, expected_degree=8.0)
    session = MaintenanceSession(pts, 0.5, alpha=0.6, policy=policy)
    before = (
        edge_table(session.graph),
        edge_table(session.spanner),
        session._coords.tolist(),
        session._alive.tolist(),
        session.capacity,
    )
    policy.armed = True
    with pytest.raises(GraphError, match="policy refused"):
        session.apply_epoch(
            [
                MaintenanceEvent("delete", 0),
                MaintenanceEvent("insert", None, (0.31, 0.42)),
                MaintenanceEvent("move", 5, tuple(session.position(5) + [0.3, 0.1])),
            ]
        )
    after = (
        edge_table(session.graph),
        edge_table(session.spanner),
        session._coords.tolist(),
        session._alive.tolist(),
        session.capacity,
    )
    assert after == before
    assert session.reports == [] and session.stats()["epochs"] == 0
    policy.armed = False
    assert session.verify()["ok"]
