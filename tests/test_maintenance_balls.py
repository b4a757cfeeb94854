"""Churn epochs find their dirty balls and halos with one grid join.

``MaintenanceSession._balls`` measures only the node-site pairs in
neighbouring grid cells; ``tests/oracles/maintenance.py`` keeps the
pass over every alive node per event that it replaced
(``balls_full_pass``, and ``repair_epoch_full_pass`` for the whole ball
and escalation step).  Each event's ball count, each region's count and
the dirty and halo sets must be the reference's:

* on 2-D and 3-D epochs mixing moves, deletes, revivals and fresh
  inserts, at negative coordinates and at a 10**6 offset;
* for nodes exactly ``dirty_radius`` and ``dirty_radius + t`` from a
  site, and one ulp beyond each;

and so must every report's ``dirty_nodes``, ``coalesced`` and
``resync``, also when an epoch's middle region escalates.  Moves and
revivals now write the coordinate array in place after the epoch's
first copy, so the change log's epoch-start array is checked against a
snapshot; the replay twins share those writers and cannot catch it.
Positions a session cannot use raise a ``GraphError`` naming the event
before anything is written.
"""

import numpy as np
import pytest

from oracles.maintenance import balls_full_pass, search_every_pair
from repro.core import MaintenanceEvent, MaintenanceSession
from repro.exceptions import GraphError
from repro.geometry.points import PointSet
from repro.geometry.sampling import uniform_points


def report_rows(reports):
    return [(r.dirty_nodes, r.coalesced, r.resync) for r in reports]


def spanner_rows(session):
    return [(u, v, repr(w)) for u, v, w in sorted(session.spanner.edges())]


def check_balls(session):
    """Compare every :meth:`_balls` call of ``session`` with the full
    pass, as the call is made; return the calls' outputs."""
    calls = []
    join = session._balls

    def spy(alive_idx, sites_list, groups):
        got = join(alive_idx, sites_list, groups)
        want = balls_full_pass(session, alive_idx, sites_list, groups)
        for mine, ref in zip(got, want):
            assert mine.tolist() == ref.tolist()
        calls.append(got)
        return got

    session._balls = spy
    return calls


def mixed_epoch(session, rng, time):
    """Moves, deletes, revivals (in place and elsewhere) and fresh
    inserts of distinct nodes, from the session's current state."""
    dim = session.position(0).size
    alive = np.flatnonzero(session._alive)
    dead = np.flatnonzero(~session._alive)
    coords = session._coords[alive]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    picked = rng.choice(alive, size=10, replace=False).tolist()
    events = [
        MaintenanceEvent(
            "move",
            v,
            tuple(session.position(v) + rng.uniform(-0.4, 0.4, size=dim)),
            time,
        )
        for v in picked[:6]
    ]
    events += [MaintenanceEvent("delete", v, None, time) for v in picked[6:]]
    for i, v in enumerate(dead[:3].tolist()):
        pos = None if i == 0 else tuple(rng.uniform(lo, hi))
        events.append(MaintenanceEvent("insert", v, pos, time))
    events += [
        MaintenanceEvent("insert", None, tuple(rng.uniform(lo, hi)), time)
        for _ in range(2)
    ]
    order = rng.permutation(len(events))
    return [events[i] for i in order]


#: Per dimension: nodes, expected degree and a resync fraction under
#: which the epochs below form several regions and escalate at times.
MIXED = {2: (400, 4.0, 0.08), 3: (1000, 3.0, 0.06)}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, -40.0, 1e6])
def test_mixed_epochs_match_the_full_pass(dim, offset):
    n, degree, fraction = MIXED[dim]
    pts = uniform_points(n, dim=dim, seed=dim, expected_degree=degree)
    coords = PointSet(pts.coords + offset)
    fast = MaintenanceSession(coords, 0.5, resync_fraction=fraction)
    slow = search_every_pair(
        MaintenanceSession(coords, 0.5, resync_fraction=fraction)
    )
    calls = check_balls(fast)
    rng = np.random.default_rng(dim)
    for epoch in range(6):
        events = mixed_epoch(fast, rng, float(epoch))
        got = fast.apply_epoch(events)
        want = slow.apply_epoch(events)
        assert report_rows(got) == report_rows(want)
        assert spanner_rows(fast) == spanner_rows(slow)
    assert len(calls) == 6
    assert max(len(call[1]) for call in calls) > 1
    assert 0 < fast.stats()["resyncs"] < 6
    assert fast.verify()["ok"]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, -7.25, 1e6])
def test_nodes_on_the_ball_and_halo_boundaries(dim, offset):
    """Both radii are inclusive: a node exactly ``dirty_radius`` (or
    ``dirty_radius + t``) from a site is in, one ulp farther it is out;
    a node near both sites of a move counts once for it."""
    site = np.full(dim, offset)
    radius, halo_radius = 2.5, 4.0

    def at(*steps):
        return site + np.array(steps + (0.0,) * (dim - len(steps)))

    def beyond(point, axis):
        """The next coordinate outward whose distance computes larger:
        one ulp of the coordinate, or of the distance where finer."""
        point = point.copy()
        gap = point[axis] - site[axis]
        while point[axis] - site[axis] == gap:
            point[axis] = np.nextafter(point[axis], np.sign(gap) * np.inf)
        return point

    on_ball = at(radius)
    on_halo = at(0.0, halo_radius)
    points = [
        on_ball,  # 0: exactly dirty_radius
        beyond(on_ball, 0),  # 1: just beyond, still in the halo
        on_halo,  # 2: exactly dirty_radius + t
        beyond(on_halo, 1),  # 3: just beyond the halo
        at(-1.5, -2.0),  # 4: 3-4-5, exactly dirty_radius
        at(-radius),  # 5: exactly dirty_radius, negative side
        at(-halo_radius),  # 6: exactly dirty_radius + t, negative side
        beyond(at(-halo_radius), 0),  # 7: just beyond
        at(0.0, -0.5),  # 8: inside both sites' balls of event 1
    ]
    session = MaintenanceSession(PointSet(np.array(points)), 0.5)
    assert (session.dirty_radius, session.dirty_radius + session.params.t) == (
        radius,
        halo_radius,
    )
    sites_list = [[site], [site, at(0.0, -1.0)]]
    groups = session._coalesce(sites_list)
    alive_idx = np.arange(len(points))
    got = session._balls(alive_idx, sites_list, groups)
    want = balls_full_pass(session, alive_idx, sites_list, groups)
    ball, region, dirty, halo = got
    assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert groups == [[0, 1]]
    assert dirty.tolist() == [0, 4, 5, 8]
    assert halo.tolist() == [0, 1, 2, 4, 5, 6, 8]
    assert ball.tolist() == [4, 4]  # node 8 counts once for event 1
    assert region.tolist() == [4]


def blob(rng, n, side, x):
    return rng.uniform(0.0, side, size=(n, 2)) + np.array([x, 0.0])


def test_oversized_middle_region_escalates_in_order():
    """Three regions far apart under the default ``resync_fraction``:
    the first repairs locally, the middle one holds a ball of over a
    quarter of the nodes and rebuilds, and the last is left uncounted,
    as in the full pass."""
    rng = np.random.default_rng(5)
    coords = np.vstack(
        [blob(rng, 40, 30.0, 0.0), blob(rng, 60, 1.5, 100.0),
         blob(rng, 40, 30.0, 200.0)]
    )
    fast = MaintenanceSession(PointSet(coords), 0.5)
    slow = search_every_pair(MaintenanceSession(PointSet(coords), 0.5))
    calls = check_balls(fast)

    step = np.array([0.1, 0.1])

    def nudge(v):
        return MaintenanceEvent("move", v, tuple(coords[v] + step))

    # Two neighbours of node 0 within its blob join its region.
    near = np.argsort(np.linalg.norm(coords[:40] - coords[0], axis=1))
    events = [nudge(0), nudge(near[1]), nudge(41), nudge(130), nudge(near[2])]
    got = fast.apply_epoch(events)
    want = slow.apply_epoch(events)
    assert report_rows(got) == report_rows(want)
    assert spanner_rows(fast) == spanner_rows(slow)
    (ball, region, _, _), = calls
    sites = [[coords[e.node], coords[e.node] + step] for e in events]
    assert fast._coalesce(sites) == [[0, 1, 4], [2], [3]]
    assert ball[2] == 60 > 0.25 * 140 >= ball[[0, 1, 3, 4]].max()
    lead, _, middle, last, _ = got
    assert (lead.dirty_nodes, lead.resync) == (int(region[0]), False)
    assert (middle.dirty_nodes, middle.resync) == (60, True)
    assert (last.dirty_nodes, last.coalesced, last.resync) == (0, True, False)
    assert fast.verify()["ok"]


@pytest.mark.parametrize("first", ["move", "revive", "fresh"])
def test_change_log_keeps_the_epoch_start_coordinates(first):
    """Moves (one node twice), a revival elsewhere and a fresh insert
    write positions; the change log's array must still hold every
    position the epoch started from."""
    pts = uniform_points(300, dim=2, seed=6, expected_degree=8.0)
    session = MaintenanceSession(pts, 0.5)
    rng = np.random.default_rng(6)
    session.apply_epoch([MaintenanceEvent("delete", 17)])
    for epoch in range(3):
        moved = rng.choice(
            np.flatnonzero(session._alive), size=4, replace=False
        ).tolist()

        def nudge(v):
            step = rng.uniform(-0.3, 0.3, size=2)
            return MaintenanceEvent("move", v, tuple(session.position(v) + step))

        dead = int(np.flatnonzero(~session._alive)[0])
        revive = MaintenanceEvent(
            "insert", dead, tuple(session.position(moved[0]) + [0.2, 0.0])
        )
        fresh = MaintenanceEvent(
            "insert", None, tuple(session.position(moved[1]) + [0.0, 0.2])
        )
        events = [nudge(v) for v in moved] + [nudge(moved[0])]
        events = {
            "move": events + [revive, fresh],
            "revive": [revive] + events + [fresh],
            "fresh": [fresh] + events + [revive],
        }[first]
        events.append(MaintenanceEvent("delete", moved[2]))
        fresh_id = session.capacity
        snapshot = session._coords.copy()
        session.apply_epoch(events)
        assert session._log_coords.tolist() == snapshot.tolist()
        assert session._coords is not session._log_coords
        last = {
            fresh_id if e.node is None else e.node: e.pos
            for e in events
            if e.pos is not None
        }
        for node, pos in last.items():
            assert session.position(node).tolist() == list(pos)
        assert session.verify()["ok"]


BAD_POSITIONS = [
    ("a", "b"),
    5.0,
    (None, 1.0),
    (1j, 1.0),
    np.array([[0.5], [0.5]]),
]
BAD_IDS = ["strings", "scalar", "none", "complex", "column"]


def written(session):
    return (
        sorted(session.graph.edges()),
        sorted(session.spanner.edges()),
        session._coords.tolist(),
        session._alive.tolist(),
        len(session.reports),
        session.stats()["epochs"],
    )


@pytest.fixture
def small_session():
    pts = uniform_points(60, dim=2, seed=8, expected_degree=8.0)
    session = MaintenanceSession(pts, 0.5)
    session.delete(4)
    return session


@pytest.mark.parametrize("pos", BAD_POSITIONS, ids=BAD_IDS)
def test_bad_positions_raise_a_named_error(small_session, pos):
    session = small_session
    before = written(session)
    for call, message in [
        (lambda: session.move(3, pos), "move of node 3 needs a finite"),
        (lambda: session.insert(pos), "insert of fresh node needs a finite"),
        (lambda: session.insert(pos, node=4), "insert of node 4 needs a"),
        (
            lambda: session.apply_epoch(
                [
                    MaintenanceEvent("delete", 9),
                    MaintenanceEvent("move", 3, pos),
                ]
            ),
            "move of node 3 needs a finite dim-2 position, got ",
        ),
    ]:
        with pytest.raises(GraphError, match=message) as info:
            call()
        assert "\n" not in str(info.value)
        assert written(session) == before
    assert session.verify()["ok"]
