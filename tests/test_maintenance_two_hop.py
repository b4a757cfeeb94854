"""Settlement leaves churn repair's outputs unchanged.

A maintenance session skips the promotion searches and certification
pairs a spanner path of two or three edges already settles, and the
detour searches of prune edges its Euclidean keep-bound keeps.  Each
replay below runs one session as it is and a twin whose step iv, step v
and certification search every pair (``tests/oracles/maintenance.py``),
epoch by epoch, and requires the same spanner -- edges and ``repr``
weights -- and the same repair accounting after every epoch.  The
streams cover three mobility models, a crash/recover fault plan, fresh
inserts that grow the id space and a gray-zone session.
"""

import dataclasses

import numpy as np
import pytest

import oracles.maintenance as oracle_mod
import repro.core.maintenance as maintenance_mod
from oracles.maintenance import search_every_pair, touching_edges_reference
from oracles.paths import three_hop_reference
from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.core.bins import EdgeBinning
from repro.distributed.faults import FaultPlan
from repro.experiments.workloads import make_mobility
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy
from repro.graphs.graph import Graph

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


def test_settled_pairs_are_never_searched(monkeypatch):
    """Not vacuous: on a flocking epoch, no promotion query settled at
    region entry is searched, no prune edge the keep-bound kept reaches
    a detour search, and certification sends fewer pairs, and the prune
    makes fewer detour searches, than the twin does."""
    settled, searched, kept, sent, detoured = [], set(), set(), {}, {}
    three_hop = maintenance_mod.three_hop_within
    dijkstra = maintenance_mod.dijkstra_distance
    prune = MaintenanceSession._prune

    def spy_three_hop(graph, us, vs, limits):
        mask = three_hop(graph, us, vs, limits)
        pairs = zip(us[mask].tolist(), vs[mask].tolist())
        settled.append({(min(u, v), max(u, v)) for u, v in pairs})
        return mask

    def spy_dijkstra(graph, x, y, **kwargs):
        searched.add((min(x, y), max(x, y)))
        return dijkstra(graph, x, y, **kwargs)

    def spy_prune(self, edges, mask, report):
        pairs = zip(edges.u[mask].tolist(), edges.v[mask].tolist())
        kept.update((min(a, b), max(a, b)) for a, b in pairs)
        return prune(self, edges, mask, report)

    monkeypatch.setattr(maintenance_mod, "three_hop_within", spy_three_hop)
    monkeypatch.setattr(maintenance_mod, "dijkstra_distance", spy_dijkstra)
    monkeypatch.setattr(MaintenanceSession, "_prune", spy_prune)
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
    slow.apply_epoch(events)
    assert spanner_rows(fast) == spanner_rows(slow)
    at_entry = settled[0]  # promotion's pass; certification's follows
    assert at_entry and searched and not searched & at_entry
    assert 0 < sent[maintenance_mod] < sent[oracle_mod]
    assert kept and not kept & set(detoured[maintenance_mod])
    assert 0 < len(detoured[maintenance_mod]) < len(detoured[oracle_mod])


def test_promotion_is_one_ascending_greedy_pass(monkeypatch):
    """Promotion searches every region candidate that no spanner path
    of two or three edges settles, each once, in ascending ``(w, u,
    v)`` order.

    The expectation is rebuilt from scratch when promotion's
    three-edge pass starts: the dirty region from the event sites, its
    spanner-gap candidates by per-pair ``has_edge`` and the open ones
    by the brute-force definition (``tests/oracles/paths.py``).  Some
    distance bin holds more than 64 of the candidates, so a per-bin
    selection could not pass.
    """
    live, pts = session(600, seed=5)
    (events,) = mobility_epochs("flocking", pts.coords, seed=13, epochs=1)
    sites = np.array(
        [live.position(e.node) for e in events] + [e.pos for e in events]
    )
    t = live.params.t
    searched, expected, largest_bin = [], [], []
    three_hop = maintenance_mod.three_hop_within
    dijkstra = maintenance_mod.dijkstra_distance

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
            open_ = ~three_hop_reference(graph, u, v, t * w)
            expected.extend(zip(u[open_].tolist(), v[open_].tolist()))
        return three_hop(graph, us, vs, limits)

    def spy_dijkstra(graph, x, y, **kwargs):
        searched.append((x, y))
        return dijkstra(graph, x, y, **kwargs)

    monkeypatch.setattr(maintenance_mod, "three_hop_within", spy_three_hop)
    monkeypatch.setattr(maintenance_mod, "dijkstra_distance", spy_dijkstra)
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
