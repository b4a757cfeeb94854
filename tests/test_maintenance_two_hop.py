"""Settlement leaves churn repair's outputs unchanged.

A maintenance session skips the promotion searches and certification
pairs whose epoch-start spanner path the epoch's change log leaves
untouched or that a spanner path of two or three edges already joins,
and the detour searches of prune edges its Euclidean keep-bound keeps.
Each replay below runs one session as it is and a twin whose step iv,
step v and certification search every pair
(``tests/oracles/maintenance.py``), epoch by epoch, and requires the
same spanner -- edges and ``repr`` weights -- and the same repair
accounting after every epoch.  The streams cover three mobility models,
a crash/recover fault plan, fresh inserts that grow the id space, a
gray-zone session and epochs that write one node twice, the change
log's edge cases.  The log's settlement rests on built spanners meeting
every ``t * w`` limit with no slack, which is checked last.
"""

import dataclasses

import numpy as np
import pytest

import oracles.maintenance as oracle_mod
import repro.core.maintenance as maintenance_mod
from oracles.maintenance import search_every_pair, touching_edges_reference
from oracles.paths import three_hop_reference, untouched_reference
from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.core.bins import EdgeBinning
from repro.core.cluster_graph import _REGION_SLACK
from repro.distributed.faults import FaultPlan
from repro.exceptions import GraphError
from repro.experiments.workloads import make_mobility, make_workload
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy
from repro.graphs.graph import Graph
from repro.graphs.paths import pair_distances

#: RepairReport fields that hold wall-clock time, not decisions.
TIMINGS = {"wall_s", "promotion_s", "redundancy_s", "certification_s"}
COUNTERS = [
    f.name for f in dataclasses.fields(maintenance_mod.RepairReport)
    if f.name not in TIMINGS
]


def spanner_rows(session):
    return [(u, v, repr(w)) for u, v, w in sorted(session.spanner.edges())]


def counters(reports):
    return [[getattr(r, name) for name in COUNTERS] for r in reports]


def session(n, seed, **kwargs):
    pts = uniform_points(n, dim=2, seed=seed, expected_degree=8.0)
    return MaintenanceSession(pts, 0.5, **kwargs), pts


def twins(n=600, seed=0, **kwargs):
    fast, pts = session(n, seed, **kwargs)
    slow, _ = session(n, seed, **kwargs)
    return fast, search_every_pair(slow), pts


def replay(fast, slow, epochs):
    for events in epochs:
        events = list(events)
        got = fast.apply_epoch(events)
        want = slow.apply_epoch(events)
        assert counters(got) == counters(want)
        assert spanner_rows(fast) == spanner_rows(slow)
    keys = ("repaired_edges", "resyncs")
    assert {k: fast.stats()[k] for k in keys} == {
        k: slow.stats()[k] for k in keys
    }
    assert fast.verify()["ok"]


def mobility_epochs(name, coords, seed, epochs=2, rate=0.05):
    model = make_mobility(name, coords, seed=seed, speed=0.25)
    return [model.step_events(rate, time=float(e)) for e in range(epochs)]


@pytest.mark.parametrize("model", ["flocking", "random_waypoint", "convoy"])
def test_mobility_epochs(model):
    fast, slow, pts = twins(seed=1)
    replay(fast, slow, mobility_epochs(model, pts.coords, seed=11))
    assert fast.stats()["repaired_edges"] > 0


def test_fault_plan_crash_recover_stream():
    fast, slow, _ = twins(n=300, seed=2, resync_fraction=1.0)
    events = events_from_fault_plan(
        FaultPlan(seed=3, crash_rate=0.1, recover_after=2.0),
        range(300),
        horizon=30.0,
    )
    assert any(e.kind == "insert" for e in events)
    epochs = {}
    for event in events:
        epochs.setdefault(event.time, []).append(event)
    replay(fast, slow, epochs.values())


def test_fresh_inserts_grow_capacity():
    fast, slow, pts = twins(n=300, seed=3)
    rng = np.random.default_rng(4)
    lo, hi = pts.coords.min(axis=0), pts.coords.max(axis=0)
    epochs = [
        [
            MaintenanceEvent("insert", None, tuple(rng.uniform(lo, hi)))
            for _ in range(3)
        ]
        for _ in range(3)
    ]
    replay(fast, slow, epochs)
    assert fast.capacity == 300 + 9


def test_gray_zone_session():
    fast, slow, pts = twins(
        seed=4, alpha=0.6, policy=BernoulliPolicy(0.5, seed=8)
    )
    replay(fast, slow, mobility_epochs("flocking", pts.coords, seed=12))


def near(session, node, rng, scale=0.3):
    """A position within ``scale`` of ``node`` along every axis."""
    return tuple(
        (session.position(node) + rng.uniform(-scale, scale, size=2)).tolist()
    )


def plain_moves(session, rng, count=4, skip=()):
    """Moves of ``count`` alive nodes with spanner edges, each nudged."""
    nodes = [
        v for v in np.flatnonzero(session._alive).tolist()
        if session.spanner.degree(v) >= 2 and v not in skip
    ]
    picked = rng.choice(nodes, size=count, replace=False).tolist()
    return [MaintenanceEvent("move", v, near(session, v, rng)) for v in picked]


def edge_case_events(case, session, rng):
    """One epoch that writes one node twice, in the way ``case`` names,
    among three plain moves of other nodes."""
    a, b = plain_moves(session, rng, count=2)
    node, other = a.node, b.node
    if case == "moves_twice":
        head = [a, MaintenanceEvent("move", node, near(session, node, rng))]
    elif case == "moves_then_deleted":
        head = [a, MaintenanceEvent("delete", node)]
    elif case == "deleted_then_revived_elsewhere":
        head = [
            MaintenanceEvent("delete", node),
            MaintenanceEvent("insert", node, near(session, node, rng)),
        ]
    elif case == "inserted_then_moved":
        fresh = session.capacity
        head = [
            MaintenanceEvent("insert", None, near(session, node, rng)),
            MaintenanceEvent("move", fresh, near(session, node, rng)),
        ]
    else:  # the last event moves onto an alive node and raises
        target = tuple(session.position(other).tolist())
        head = [a, MaintenanceEvent("move", node, near(session, node, rng))]
        return head + plain_moves(session, rng, 3, skip={node, other}) + [
            MaintenanceEvent("move", node, target)
        ]
    return head + plain_moves(session, rng, 3, skip={node})


@pytest.mark.parametrize(
    "case",
    [
        "moves_twice",
        "moves_then_deleted",
        "deleted_then_revived_elsewhere",
        "inserted_then_moved",
        "occupied_target_raises",
    ],
)
def test_change_log_edge_cases(case):
    """Each epoch writes one node twice (or raises after writing it);
    the session must equal the twin that searches every pair after that
    epoch and after a plain epoch that follows."""
    fast, slow, _ = twins(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(2):
        events = edge_case_events(case, fast, rng)
        if case == "occupied_target_raises":
            for twin in (fast, slow):
                with pytest.raises(GraphError, match="coincide"):
                    twin.apply_epoch(events)
            assert counters(fast.reports) == counters(slow.reports)
            assert spanner_rows(fast) == spanner_rows(slow)
        else:
            replay(fast, slow, [events])
        replay(fast, slow, [plain_moves(fast, rng)])
    assert fast.stats()["repaired_edges"] > 0


def test_settled_pairs_are_never_searched(monkeypatch):
    """Not vacuous: on a flocking epoch, no promotion query settled at
    region entry -- by the change log or by a path of two or three
    edges -- is searched, no prune edge the keep-bound kept reaches a
    detour search, certification searches fewer pairs with
    ``dijkstra_distance`` than the twin sends to ``pair_distances`` and
    sends none there itself, and the prune makes fewer detour searches
    than the twin does."""
    untouched, settled, searched, kept = [], [], set(), set()
    certified, sent, detoured = [], {}, {}
    in_certify = []
    log_kernel = maintenance_mod.untouched_ellipses
    three_hop = maintenance_mod.three_hop_within
    dijkstra = maintenance_mod.dijkstra_distance
    prune = MaintenanceSession._prune
    certify = MaintenanceSession._certify

    def pairs_of(us, vs, mask):
        return {
            (min(u, v), max(u, v))
            for u, v in zip(us[mask].tolist(), vs[mask].tolist())
        }

    def spy_log(coords, log_u, log_v, us, vs, limits):
        mask = log_kernel(coords, log_u, log_v, us, vs, limits)
        untouched.append(pairs_of(us, vs, mask))
        return mask

    def spy_three_hop(graph, us, vs, limits):
        mask = three_hop(graph, us, vs, limits)
        settled.append(pairs_of(us, vs, mask))
        return mask

    def spy_dijkstra(graph, x, y, **kwargs):
        pair = (min(x, y), max(x, y))
        if in_certify:
            certified.append(pair)
        else:
            searched.add(pair)
        return dijkstra(graph, x, y, **kwargs)

    def spy_prune(self, edges, mask, report):
        pairs = zip(edges.u[mask].tolist(), edges.v[mask].tolist())
        kept.update((min(a, b), max(a, b)) for a, b in pairs)
        return prune(self, edges, mask, report)

    def spy_certify(self, halo, report):
        in_certify.append(True)
        try:
            return certify(self, halo, report)
        finally:
            in_certify.pop()

    monkeypatch.setattr(maintenance_mod, "untouched_ellipses", spy_log)
    monkeypatch.setattr(maintenance_mod, "three_hop_within", spy_three_hop)
    monkeypatch.setattr(maintenance_mod, "dijkstra_distance", spy_dijkstra)
    monkeypatch.setattr(MaintenanceSession, "_prune", spy_prune)
    monkeypatch.setattr(MaintenanceSession, "_certify", spy_certify)
    for mod in (maintenance_mod, oracle_mod):
        def counted(graph, us, vs, *, _fn=mod.pair_distances, _mod=mod,
                    **kwargs):
            sent[_mod] = sent.get(_mod, 0) + len(us)
            return _fn(graph, us, vs, **kwargs)

        def detour(graph, a, b, *, _fn=mod.detour_distance, _mod=mod,
                   **kwargs):
            detoured.setdefault(_mod, []).append((min(a, b), max(a, b)))
            return _fn(graph, a, b, **kwargs)

        monkeypatch.setattr(mod, "pair_distances", counted)
        monkeypatch.setattr(mod, "detour_distance", detour)
    fast, slow, pts = twins(seed=5)
    (events,) = mobility_epochs("flocking", pts.coords, seed=13, epochs=1)
    fast.apply_epoch(events)
    n_fast_calls = (len(untouched), len(settled))
    slow.apply_epoch(events)
    assert spanner_rows(fast) == spanner_rows(slow)
    # promotion's passes come first; certification's follow
    assert n_fast_calls == (2, 2)
    at_entry = untouched[0] | settled[0]
    assert untouched[0] and settled[0] and searched
    assert not searched & at_entry
    assert not set(certified) & (untouched[1] | settled[1])
    assert maintenance_mod not in sent
    assert 0 < len(certified) < sent[oracle_mod]
    assert kept and not kept & set(detoured[maintenance_mod])
    assert 0 < len(detoured[maintenance_mod]) < len(detoured[oracle_mod])


def test_promotion_is_one_ascending_greedy_pass(monkeypatch):
    """Promotion searches every region candidate that neither the
    change log nor a spanner path of two or three edges settles, each
    once, in ascending ``(w, u, v)`` order.

    The expectation is rebuilt from scratch when promotion's three-edge
    pass starts: the dirty region from the event sites, its spanner-gap
    candidates by per-pair ``has_edge``, the ones the log leaves open by
    the brute-force pairs x log definition (``tests/oracles/paths.py``)
    -- a candidate with a moved endpoint, or one whose ellipse at the
    epoch-start positions some spanner edge of a moved node enters --
    and of those the ones no short path settles, by the brute-force
    three-edge definition.  Some distance bin holds more than 64 of the
    candidates, so a per-bin selection could not pass.
    """
    live, pts = session(600, seed=5)
    (events,) = mobility_epochs("flocking", pts.coords, seed=13, epochs=1)
    sites = np.array(
        [live.position(e.node) for e in events] + [e.pos for e in events]
    )
    moved = {e.node for e in events}
    start = np.array([live.position(i) for i in range(live.capacity)])
    logged = np.array(
        [(u, v) for u, v, _ in live.spanner.edges() if {u, v} & moved]
    )
    t = live.params.t
    searched, expected, largest_bin, in_certify = [], [], [], []
    three_hop = maintenance_mod.three_hop_within
    dijkstra = maintenance_mod.dijkstra_distance
    certify = MaintenanceSession._certify

    def spy_three_hop(graph, us, vs, limits):
        if not largest_bin:  # promotion's pass; certification's follows
            alive = np.flatnonzero(live._alive)
            diff = live._coords[alive][:, None, :] - sites[None, :, :]
            near = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
            dirty = alive[near <= live.dirty_radius]
            cand = touching_edges_reference(live, live.graph, dirty)
            binning = EdgeBinning.for_params(live.params, live.capacity)
            largest_bin.append(
                max(b.w.size for b in binning.assign(cand).values())
            )
            rows = sorted(
                zip(cand.w.tolist(), cand.u.tolist(), cand.v.tolist())
            )
            w, u, v = (np.array(col) for col in zip(*rows))
            open_ = ~untouched_reference(
                start, logged[:, 0], logged[:, 1], u, v,
                t * w * (1.0 + _REGION_SLACK),
            )
            open_ |= np.array([a in moved or b in moved for a, b in zip(u, v)])
            open_[open_] = ~three_hop_reference(
                graph, u[open_], v[open_], t * w[open_]
            )
            expected.extend(zip(u[open_].tolist(), v[open_].tolist()))
        return three_hop(graph, us, vs, limits)

    def spy_dijkstra(graph, x, y, **kwargs):
        if not in_certify:
            searched.append((x, y))
        return dijkstra(graph, x, y, **kwargs)

    def spy_certify(self, halo, report):
        in_certify.append(True)
        return certify(self, halo, report)

    monkeypatch.setattr(maintenance_mod, "three_hop_within", spy_three_hop)
    monkeypatch.setattr(maintenance_mod, "dijkstra_distance", spy_dijkstra)
    monkeypatch.setattr(MaintenanceSession, "_certify", spy_certify)
    reports = live.apply_epoch(events)
    assert not any(r.resync for r in reports)
    assert largest_bin[0] > 64
    assert expected and searched == expected


class TestSpannerGapFilter:
    """``_touching_edges(spanner_gap=True)`` equals the per-pair
    ``has_edge`` filter, in the same order."""

    @staticmethod
    def _assert_same(session, region):
        got = session._touching_edges(session.graph, region, spanner_gap=True)
        want = touching_edges_reference(session, session.graph, region)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return got

    def test_after_churn(self):
        churned, pts = session(300, seed=6)
        for events in mobility_epochs("flocking", pts.coords, seed=14):
            churned.apply_epoch(events)
        rng = np.random.default_rng(7)
        alive = np.flatnonzero(churned._alive)
        for size in (0, 1, 40, alive.size):
            region = rng.choice(alive, size=size, replace=False)
            got = self._assert_same(churned, region)
        gap = churned.graph.num_edges - churned.spanner.num_edges
        assert got.w.size == gap

    def test_empty_spanner(self):
        bare, _ = session(120, seed=8)
        bare.spanner = Graph(bare.capacity)
        got = self._assert_same(bare, np.flatnonzero(bare._alive))
        assert got.w.size == bare.graph.num_edges


def assert_every_limit_met(live):
    us, vs, ws = live.graph.edges_arrays()
    t = live.params.t
    sp = pair_distances(live.spanner, us, vs, cutoff=t)
    assert us.size and (sp <= t * ws).all()


@pytest.mark.parametrize(
    "scenario, kwargs",
    [
        ("uniform", {}),
        ("clustered", {}),
        ("uniform", {"alpha": 0.6, "policy": BernoulliPolicy(0.5, seed=8)}),
        ("uniform3d", {}),
    ],
    ids=["uniform", "clustered", "gray_zone", "uniform3d"],
)
def test_built_spanners_meet_every_limit_with_no_slack(scenario, kwargs):
    """The change log's settlement rests on every base edge starting the
    epoch with a spanner path of float length at most ``t * w``: no
    slack.  A fresh session's spanner meets it, and so does the one
    ``resync()`` rebuilds after churn."""
    w = make_workload(scenario, 800, seed=6)
    live = MaintenanceSession(w.points, 0.5, **kwargs)
    assert_every_limit_met(live)
    for events in mobility_epochs("flocking", w.points.coords, seed=7):
        live.apply_epoch(events)
    live.resync()
    assert_every_limit_met(live)
