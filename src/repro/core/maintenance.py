"""Incremental spanner maintenance: local repair under churn.

The paper's scheme is *local* -- coverage, cluster-graph and spanner
decisions depend only on O(1)-hop neighborhoods -- yet a naive pipeline
answers every topology change with a from-scratch rebuild (~2 s at
n=10^4).  :class:`MaintenanceSession` closes that gap: it owns the
built spanner state (base graph, spanner, per-event repair accounting)
and consumes a stream of ``insert(point)`` / ``delete(node)`` /
``move(node, new_pos)`` events, repairing locally via *dirty-ball
invalidation*:

1. the event marks the ball of alive nodes within ``dirty_radius``
   (``t + 1``: the query cutoff plus the unit communication radius) of
   every event site -- the only region whose coverage or crossing sets
   the event can affect;
2. the base alpha-UBG is patched incrementally, O(degree) edge writes
   per event (the cached CSR is rebuilt by the next array kernel that
   reads it);
3. promotion takes the base edges *touching* the dirty ball that the
   spanner lacks in ascending ``(w, u, v)`` order, one exact greedy
   pass: a candidate joins the spanner iff an exact cutoff search finds
   no spanner path within ``t * |xy|``.  The paper's cluster cover,
   query selection and cluster graph exist to bound distributed rounds;
   repair runs centrally, and the certification sweep below, not a
   cover, keeps its output a t-spanner.  A candidate that a two-edge
   spanner path already joins within ``t * |xy|`` at region entry is
   settled without a search
   (:func:`~repro.graphs.paths.two_hop_within`): promotion only adds
   spanner edges, so that path still stands when its turn comes up;
4. redundancy verdicts for spanner edges touching the dirty ball are
   re-taken (remove iff a ``t1``-alternative survives), and
5. a certification sweep over base edges with an endpoint within
   ``dirty_radius + t`` of the sites re-adds any edge whose
   ``t``-certificate the repair broke, searching only the suspects no
   two-edge spanner path certifies.  A certificate path for base edge
   ``(x, y)`` stays within Euclidean ``t`` of ``x``; every spanner
   edge the repair removed has an endpoint within ``dirty_radius`` of
   a site, so any base edge whose certificate could have broken has
   an endpoint within ``dirty_radius + t`` -- the sweep radius.  The
   invariant after every event: **the maintained spanner is a
   t-spanner of the current base graph**
   (:meth:`MaintenanceSession.verify`).

Repair modes: ``repair="local"`` (the default) runs the dirty-ball
pipeline and is pinned by a tested stretch bound; ``repair="rebuild"``
re-derives the spanner from the incrementally-maintained base graph
after every event (or once per epoch) and is pinned *bit-equal* to a
from-scratch build on the current point set (the base patching
reproduces the batch builders' distances and gray-zone policy draws
exactly: distances use the same einsum/sqrt kernel and policy draws
hash the same global vertex ids).  ``resync()`` is the escape hatch:
rebuild everything from the coordinates.  When an event (or merged
epoch region) dirties more than ``resync_fraction`` of the alive
nodes, the local path escalates to a spanner rebuild on its own.

**Epoch batching.**  A mobility step moves hundreds of nearby nodes
whose dirty balls overlap almost completely; repairing each event in
isolation re-examines the same region's candidates over and over.
:meth:`MaintenanceSession.apply_epoch` applies one epoch of events
together: every mutation lands on the base graph first, the per-event
balls coalesce into merged dirty *regions* (connected components of
the ball-overlap graph), promotion and redundancy run once per region
-- deduplicating every overlapping ball's candidates and verdicts --
and one certification sweep closes the epoch over the union of the
region halos.  A single-event epoch takes exactly the per-event path
(``apply`` *is* ``apply_epoch`` of one event), so the two pins extend
rather than fork.

:func:`events_from_fault_plan` adapts :class:`repro.distributed.faults.
FaultPlan` crash/recover schedules onto delete/insert event streams, so
fault adversaries and mobility models share one schema;
``apply_stream(events, batch="epoch")`` groups such a stream into
same-timestamp epochs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..exceptions import GraphError, ParameterError
from ..geometry import GridIndex, PointSet
from ..graphs.build import KeepAllPolicy, _policy_mask, reject_coincident
from ..graphs.graph import EdgeArrays, Graph, csr_find
from ..graphs.paths import (
    detour_distance,
    dijkstra_distance,
    pair_distances,
    two_hop_within,
)
from ..params import SpannerParams
from .relaxed_greedy import RelaxedGreedySpanner, SpannerResult

if TYPE_CHECKING:
    from ..distributed.faults import FaultPlan

__all__ = [
    "MaintenanceEvent",
    "MaintenanceSession",
    "RepairReport",
    "events_from_fault_plan",
]


@dataclass(frozen=True)
class MaintenanceEvent:
    """One topology-change event.

    ``kind`` is ``"insert"`` (``node=None`` allocates a fresh id;
    ``node=<dead id>`` revives it, reusing its stored position unless
    ``pos`` overrides), ``"delete"`` or ``"move"``.  ``time`` orders
    streams (the fault-plan adapter fills it from crash schedules,
    mobility samplers from the epoch counter) and is carried into the
    repair report; ``apply_stream(batch="epoch")`` coalesces runs of
    equal ``time`` into one epoch.
    """

    kind: str
    node: int | None = None
    pos: tuple[float, ...] | None = None
    time: float = 0.0


@dataclass
class RepairReport:
    """Per-event repair accounting.

    Within an epoch, region-level numbers (dirty ball size, repaired
    edges, phase walls) land on the region's *lead* report -- the first
    event of each merged region -- and the remaining events of the
    region are marked ``coalesced``.  ``wall_s`` is always the
    amortized per-event share of the epoch wall, so summed stats stay
    comparable across batch modes.
    """

    kind: str
    node: int
    time: float = 0.0
    #: Alive nodes inside the invalidated dirty ball(s).
    dirty_nodes: int = 0
    #: Spanner edges the repair added (promotion + certification).
    added_edges: int = 0
    #: Spanner edges the repair removed (redundancy re-verdicts).
    removed_edges: int = 0
    #: ``added + removed``.
    repaired_edges: int = 0
    #: Whether the event escalated to a full spanner rebuild.
    resync: bool = False
    #: True when this event's repair was folded into another event's
    #: merged region (its accounting lives on the region lead).
    coalesced: bool = False
    wall_s: float = 0.0
    #: Per-phase wall splits of the region this event led.
    promotion_s: float = 0.0
    redundancy_s: float = 0.0
    certification_s: float = 0.0


def events_from_fault_plan(
    plan: "FaultPlan",
    nodes: Iterable[int],
    horizon: float,
) -> tuple:
    """Map a :class:`FaultPlan`'s crash/recover schedules to events.

    Every node whose counter-hashed crash time lands within
    ``horizon`` yields a ``delete`` event at the crash time; if the
    plan recovers it within the horizon, an ``insert`` revival (same
    id, same stored position) follows.  The stream is sorted by
    ``(time, kind, node)`` with deletes before inserts at equal times,
    and is a pure function of the plan's seed -- the same determinism
    contract as every other draw in the fault tier.
    """
    node_arr = np.asarray(list(nodes), dtype=np.int64)
    crash_at, revive_at = plan.crash_schedules(node_arr)
    events: list[MaintenanceEvent] = []
    for i, node in enumerate(node_arr.tolist()):
        ca = float(crash_at[i])
        if not math.isfinite(ca) or ca > horizon:
            continue
        events.append(MaintenanceEvent("delete", node=node, time=ca))
        ra = float(revive_at[i])
        if math.isfinite(ra) and ra <= horizon:
            events.append(MaintenanceEvent("insert", node=node, time=ra))
    events.sort(key=lambda e: (e.time, 0 if e.kind == "delete" else 1, e.node))
    return tuple(events)


class MaintenanceSession:
    """Owns built spanner state and repairs it locally per event.

    Parameters
    ----------
    points:
        Initial point set (:class:`PointSet` or ``(n, d)`` array).
        Vertex ids are *capacity ids*: deleted nodes keep their id (and
        may be revived by a fault-plan insert); fresh inserts extend
        the id space.
    epsilon:
        Target stretch ``t = 1 + epsilon``.
    alpha:
        Quasi-UBG parameter (pairs closer than ``alpha`` are always
        edges; gray-zone pairs consult ``policy``).
    policy:
        Gray-zone policy; decisions hash global capacity ids, so
        incremental patching reproduces batch-rebuild draws exactly.
    repair:
        ``"local"`` (dirty-ball pipeline, bounded-stretch pin) or
        ``"rebuild"`` (spanner re-derived per event/epoch, bit-equal
        pin).
    resync_fraction:
        Local repair escalates to a spanner rebuild when a single
        event's dirty ball exceeds this fraction (in ``[0, 1]``) of the
        alive nodes.
        The check is per event even under epoch batching: coalescing
        events into one processing region never escalates an epoch
        that none of its events would have escalated alone.
    """

    def __init__(
        self,
        points: PointSet | np.ndarray,
        epsilon: float,
        *,
        alpha: float = 1.0,
        policy=None,
        repair: str = "local",
        resync_fraction: float = 0.25,
    ) -> None:
        coords = np.asarray(
            points.coords if isinstance(points, PointSet) else points,
            dtype=np.float64,
        )
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise GraphError("points must be a non-empty (n, d) array")
        bad = ~np.isfinite(coords).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(
                f"point {i} has a non-finite coordinate {coords[i].tolist()}"
            )
        if repair not in ("local", "rebuild"):
            raise ParameterError(
                f"repair must be 'local' or 'rebuild', got {repair!r}"
            )
        if not 0.0 <= resync_fraction <= 1.0:  # also rejects NaN
            raise ParameterError(
                f"resync_fraction must be in [0, 1], got {resync_fraction}"
            )
        self._coords = coords.copy()
        self._dim = coords.shape[1]
        self._alive = np.ones(coords.shape[0], dtype=bool)
        self._alpha = float(alpha)
        self._policy = policy if policy is not None else KeepAllPolicy()
        self.params = SpannerParams.from_epsilon(
            epsilon, alpha=alpha, dim=self._dim
        )
        self.repair_mode = repair
        # Euclidean invalidation radius around event sites; the module
        # docstring's sweep-radius argument depends on this value.
        self.dirty_radius = self.params.t + 1.0
        self.resync_fraction = float(resync_fraction)
        self._pts_cache: PointSet | None = None
        self._cells: dict[tuple[int, ...], set[int]] = {}
        for idx in range(self._coords.shape[0]):
            self._cell_add(idx)
        self.reports: list[RepairReport] = []
        self._epochs = 0
        self.graph = self._build_base()
        self.build_result: SpannerResult = self._build_result()
        self.spanner = self.build_result.spanner

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def num_alive(self) -> int:
        """Alive node count."""
        return int(self._alive.sum())

    @property
    def capacity(self) -> int:
        """Size of the id space (alive + dead + inserted)."""
        return self._coords.shape[0]

    def position(self, node: int) -> np.ndarray:
        """Current stored position of ``node`` (alive or dead)."""
        return self._coords[node].copy()

    def stats(self) -> dict[str, float]:
        """Aggregate repair accounting across all applied events.

        Per-phase wall splits (promotion / redundancy / certification)
        come straight from the reports, so optimization rounds profile
        from here instead of ad-hoc timers.
        """
        n = len(self.reports)
        wall = sum(r.wall_s for r in self.reports)
        return {
            "events": n,
            "epochs": self._epochs,
            "repaired_edges": sum(r.repaired_edges for r in self.reports),
            "resyncs": sum(1 for r in self.reports if r.resync),
            "wall_s": wall,
            "mean_wall_s": wall / n if n else 0.0,
            "promotion_s": sum(r.promotion_s for r in self.reports),
            "redundancy_s": sum(r.redundancy_s for r in self.reports),
            "certification_s": sum(
                r.certification_s for r in self.reports
            ),
            **self._BENCHMARK_CONSTANTS,
        }

    # perfbench/pipeline.py still reads five names of the repair cover
    # that repair no longer has: these four stats() keys, which read 0,
    # and cover_cache_audit(), which finds nothing.  They leave together
    # with those reads (ROADMAP item 1a).
    _BENCHMARK_CONSTANTS = {
        "dirty_balls": 0,
        "cover_s": 0.0,
        "cover_cache_hits": 0,
        "cover_cache_misses": 0,
    }

    def cover_cache_audit(self) -> list:
        return []

    # ------------------------------------------------------------------
    # Event API
    # ------------------------------------------------------------------
    def insert(
        self,
        pos: Sequence[float] | None = None,
        *,
        node: int | None = None,
        time: float = 0.0,
    ) -> RepairReport:
        """Insert a fresh point at ``pos``, or revive dead ``node``."""
        return self.apply(MaintenanceEvent("insert", node, _tup(pos), time))

    def delete(self, node: int, *, time: float = 0.0) -> RepairReport:
        """Delete (crash) an alive node; its id stays reserved."""
        return self.apply(MaintenanceEvent("delete", node, None, time))

    def move(
        self, node: int, new_pos: Sequence[float], *, time: float = 0.0
    ) -> RepairReport:
        """Move an alive node to ``new_pos``."""
        return self.apply(MaintenanceEvent("move", node, _tup(new_pos), time))

    def apply(self, event: MaintenanceEvent) -> RepairReport:
        """Apply one event and repair; returns the repair report.

        The per-event path *is* a one-event epoch, which is what keeps
        the single-event bit-equality pin structural rather than
        maintained by hand.
        """
        return self.apply_epoch((event,))[0]

    def apply_epoch(
        self, events: Iterable[MaintenanceEvent]
    ) -> list[RepairReport]:
        """Apply one epoch of events with coalesced repair.

        All mutations land on the base graph first; the per-event
        dirty balls merge into regions (connected components of the
        ball-overlap graph) and the repair pipeline runs once per
        region, with one certification sweep over the union of halos
        closing the epoch.  ``repair="rebuild"`` epochs re-derive the
        spanner once (still bit-equal to a scratch rebuild).  Returns
        one report per event; an empty epoch is a no-op.

        Kinds, positions and node ids are checked for the whole epoch
        before any event is applied (:meth:`_check_epoch`).  A target
        that another alive node occupies is found only as its event
        comes up, because earlier events move nodes: that event writes
        nothing, the events before it are repaired and their reports
        recorded, and its :class:`GraphError` propagates.
        """
        events = list(events)
        if not events:
            return []
        self._check_epoch(events)
        t0 = perf_counter()
        reports: list[RepairReport] = []
        sites_list: list[list[np.ndarray]] = []
        for event in events:
            node = self.capacity if event.node is None else int(event.node)
            if event.kind == "delete":
                sites = self._do_delete(node)
            else:
                # A revival without a position returns to its old site.
                target = self._coords[node] if event.pos is None else event.pos
                try:
                    cand, dist = self._near_target(node, target)
                except GraphError:  # an alive node sits on the target
                    self._close_epoch(reports, sites_list, t0)
                    raise
                if event.kind == "insert":
                    sites = self._do_insert(node, event.pos, cand, dist)
                else:
                    sites = self._do_move(node, event.pos, cand, dist)
            reports.append(
                RepairReport(kind=event.kind, node=node, time=event.time)
            )
            sites_list.append(sites)
        self._close_epoch(reports, sites_list, t0)
        return reports

    def _check_epoch(self, events: list[MaintenanceEvent]) -> None:
        """Raise on the first event the epoch cannot apply, before any
        event is written.

        Every kind must be known and every given position finite with
        ``dim`` coordinates; a move and a fresh insert need one.  A node
        id is ``None`` only for a fresh insert.  Otherwise it is an
        ``int`` or numpy integer, never a ``bool``, below the capacity
        (counting the epoch's earlier fresh inserts), and alive or dead
        as the epoch's earlier events leave it: a revival needs a dead
        node, a delete or a move an alive one.
        """
        capacity = self.capacity
        alive_now: dict[int, bool] = {}  # as the earlier events leave it
        for event in events:
            kind, node, pos = event.kind, event.node, event.pos
            if kind not in ("insert", "delete", "move"):
                raise ParameterError(f"unknown event kind {kind!r}")
            if node is None:
                if kind != "insert":
                    raise GraphError(f"{kind} needs a node id, got None")
                who = "fresh node"
            elif isinstance(node, bool) or not isinstance(
                node, (int, np.integer)
            ):
                raise GraphError(f"node {node!r} is not an integer id")
            else:
                who = f"node {int(node)}"
            if pos is None:
                if kind == "move" or node is None:
                    raise GraphError(
                        f"{kind} of {who} needs a dim-{self._dim} position"
                    )
            elif not (
                len(pos) == self._dim and all(math.isfinite(c) for c in pos)
            ):
                raise GraphError(
                    f"{kind} of {who} needs a finite dim-{self._dim} "
                    f"position, got {pos}"
                )
            if node is None:
                alive_now[capacity] = True
                capacity += 1
                continue
            node = int(node)
            if not 0 <= node < capacity:
                raise GraphError(f"{who} out of range [0, {capacity})")
            alive = alive_now.get(node)
            if alive is None:
                alive = bool(self._alive[node])
            if alive and kind == "insert":
                raise GraphError(f"{who} is already alive")
            if not alive and kind != "insert":
                raise GraphError(f"{who} is not alive")
            alive_now[node] = kind != "delete"

    def _close_epoch(
        self,
        reports: list[RepairReport],
        sites_list: list[list[np.ndarray]],
        t0: float,
    ) -> None:
        """Repair the epoch's written events and record their reports."""
        if not reports:
            return
        if self.repair_mode == "rebuild":
            self._rebuild_spanner()
            reports[-1].resync = True
            for report in reports[:-1]:
                report.coalesced = True
        else:
            self._repair_epoch(reports, sites_list)
        share = (perf_counter() - t0) / len(reports)
        for report in reports:
            report.repaired_edges = report.added_edges + report.removed_edges
            report.wall_s = share
        self.reports.extend(reports)
        self._epochs += 1

    def apply_stream(
        self,
        events: Iterable[MaintenanceEvent],
        *,
        batch: str | None = None,
    ) -> list[RepairReport]:
        """Apply a sequence of events in order.

        ``batch=None`` (or ``"event"``) repairs after every event;
        ``batch="epoch"`` groups runs of equal ``event.time`` into
        epochs and applies each via :meth:`apply_epoch`.
        """
        if batch not in (None, "event", "epoch"):
            raise ParameterError(
                f"batch must be None, 'event' or 'epoch', got {batch!r}"
            )
        if batch != "epoch":
            return [self.apply(event) for event in events]
        reports: list[RepairReport] = []
        for _, group in itertools.groupby(events, key=lambda e: e.time):
            reports.extend(self.apply_epoch(list(group)))
        return reports

    def resync(self) -> SpannerResult:
        """Escape hatch: rebuild base graph and spanner from scratch."""
        self.graph = self._build_base()
        self._rebuild_spanner()
        return self.build_result

    def rebuild_reference(self) -> tuple[Graph, SpannerResult]:
        """From-scratch ``(base, spanner)`` on the current point set.

        The pin every equivalence test compares maintained state
        against; the session's own state is untouched.
        """
        base = self._build_base()
        builder = RelaxedGreedySpanner(self.params)
        return base, builder.build(base, self._points().distance)

    def verify(self) -> dict[str, float | bool]:
        """Check the maintained invariant: spanner stretch <= t over
        every alive base edge (and the spanner is a base subgraph)."""
        t = self.params.t
        us, vs, ws = self.graph.edges_arrays()
        if us.size == 0:
            return {"ok": True, "stretch": 1.0, "edges": 0}
        sp = pair_distances(self.spanner, us, vs, cutoff=t)
        ratio = sp / ws
        stretch = float(ratio.max())
        ok = bool(np.isfinite(stretch)) and stretch <= t * (1.0 + 1e-9)
        return {
            "ok": ok and self.spanner.is_subgraph_of(self.graph),
            "stretch": stretch,
            "edges": int(us.size),
        }

    # ------------------------------------------------------------------
    # Base-graph patching (incremental alpha-UBG)
    # ------------------------------------------------------------------
    def _points(self) -> PointSet:
        if self._pts_cache is None:
            self._pts_cache = PointSet(self._coords)
        return self._pts_cache

    def _cell_key(self, pos: np.ndarray) -> tuple[int, ...]:
        return tuple(int(math.floor(c)) for c in pos)

    def _cell_add(self, node: int) -> None:
        key = self._cell_key(self._coords[node])
        self._cells.setdefault(key, set()).add(node)

    def _cell_remove(self, node: int) -> None:
        key = self._cell_key(self._coords[node])
        bucket = self._cells.get(key)
        if bucket is not None:
            bucket.discard(node)
            if not bucket:
                del self._cells[key]

    def _near(
        self, pos: np.ndarray, radius: float = 1.0, exclude: int = -1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Alive nodes other than ``exclude`` within Euclidean
        ``radius`` <= 1 of ``pos``, ascending by id, with distances.

        Gathered from the unit grid cells (no O(n) scan) and measured
        with the same squared-compare + einsum distance kernel as
        :meth:`GridIndex.pairs_within_arrays`, so incremental edge
        weights are bitwise equal to a batch rebuild's.
        """
        base = self._cell_key(pos)
        ids: list[int] = []
        for off in itertools.product((-1, 0, 1), repeat=self._dim):
            bucket = self._cells.get(tuple(c + o for c, o in zip(base, off)))
            if bucket:
                ids.extend(bucket)
        ids = sorted(i for i in ids if i != exclude)
        if not ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        cand = np.asarray(ids, dtype=np.int64)
        diff = self._coords[cand] - np.asarray(pos, dtype=np.float64)
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        keep = dist_sq <= radius * radius
        return cand[keep], np.sqrt(dist_sq[keep])

    def _near_target(
        self, node: int, pos: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_near` of an event's target position, rejecting one
        that another alive node already occupies (it would need a
        zero-length edge).  :meth:`apply_epoch` calls this before the
        event writes anything, so a rejected event writes nothing."""
        cand, dist = self._near(pos, exclude=node)
        same = cand[dist == 0.0]
        if same.size:
            raise GraphError(
                f"node {node} at {tuple(float(c) for c in pos)} would "
                f"coincide with alive node(s) {same.tolist()}"
            )
        return cand, dist

    def _decide_edges(
        self, node: int, cand: np.ndarray, dist: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gray-zone filter for candidate neighbors of ``node``.

        Pairs at distance <= alpha always join; gray pairs consult the
        policy with *global* normalized ids, matching
        :func:`repro.graphs.build.build_qubg` draw for draw.
        """
        if cand.size == 0:
            return cand, dist
        keep = dist <= self._alpha
        gray = ~keep
        if gray.any():
            gu = np.minimum(node, cand[gray])
            gv = np.maximum(node, cand[gray])
            keep[gray] = _policy_mask(
                self._policy, self._points(), gu, gv, dist[gray]
            )
        return cand[keep], dist[keep]

    # The writers below take an event :meth:`_check_epoch` accepted and
    # the target's :meth:`_near_target` neighbours, and return its sites.
    def _do_insert(
        self,
        node: int,
        pos: tuple[float, ...] | None,
        cand: np.ndarray,
        dist: np.ndarray,
    ) -> list[np.ndarray]:
        if node == self.capacity:
            self._coords = np.vstack([self._coords, [pos]])
            self._alive = np.append(self._alive, False)
            self.graph.add_vertices(1)
            self.spanner.add_vertices(1)
        elif pos is not None:
            self._coords = self._coords.copy()
            self._coords[node] = pos
        self._pts_cache = None
        self._alive[node] = True
        position = self._coords[node]
        nbrs, ws = self._decide_edges(node, cand, dist)
        for v, w in zip(nbrs.tolist(), ws.tolist()):
            self.graph.add_edge(node, v, w)
        self._cell_add(node)
        return [position.copy()]

    def _do_delete(self, node: int) -> list[np.ndarray]:
        site = self._coords[node].copy()
        for v in list(self.spanner.neighbors(node)):
            self.spanner.remove_edge(node, v)
        for v in list(self.graph.neighbors(node)):
            self.graph.remove_edge(node, v)
        self._cell_remove(node)
        self._alive[node] = False
        return [site]

    def _do_move(
        self,
        node: int,
        pos: tuple[float, ...],
        cand: np.ndarray,
        dist: np.ndarray,
    ) -> list[np.ndarray]:
        old = self._coords[node].copy()
        self._cell_remove(node)
        self._coords = self._coords.copy()
        self._coords[node] = pos
        self._pts_cache = None
        nbrs, ws = self._decide_edges(node, cand, dist)
        new_edges = dict(zip(nbrs.tolist(), ws.tolist()))
        for v in list(self.graph.neighbors(node)):
            if v not in new_edges:
                self.graph.remove_edge(node, v)
                if self.spanner.has_edge(node, v):
                    self.spanner.remove_edge(node, v)
        for v, w in new_edges.items():
            self.graph.add_edge(node, v, w)
            if self.spanner.has_edge(node, v):
                # Persisting spanner edge: refresh its length.
                self.spanner.add_edge(node, v, w)
        self._cell_add(node)
        return [old, self._coords[node].copy()]

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _build_base(self) -> Graph:
        """From-scratch alpha-UBG over the capacity id space (dead
        vertices isolated); the reference the incremental patching is
        pinned against."""
        g = Graph(self.capacity)
        alive_idx = np.flatnonzero(self._alive)
        if alive_idx.size < 2:
            return g
        sub = PointSet(self._coords[alive_idx])
        u, v, dist = GridIndex(sub, cell_width=1.0).pairs_within_arrays(1.0)
        if u.size == 0:
            return g
        # subset() relabelling is order-preserving, so mapping back to
        # global ids keeps u < v and the policy draws line up.
        gu = alive_idx[u]
        gv = alive_idx[v]
        reject_coincident(self._coords, gu, gv, dist)
        keep = dist <= self._alpha
        gray = ~keep
        if gray.any():
            keep[gray] = _policy_mask(
                self._policy, self._points(), gu[gray], gv[gray], dist[gray]
            )
        g.add_weighted_edges_arrays(gu[keep], gv[keep], dist[keep])
        return g

    def _build_result(self) -> SpannerResult:
        builder = RelaxedGreedySpanner(self.params)
        return builder.build(self.graph, self._points().distance)

    def _rebuild_spanner(self) -> None:
        self.build_result = self._build_result()
        self.spanner = self.build_result.spanner

    @staticmethod
    def _site_distances(
        coords: np.ndarray, sites: list[np.ndarray]
    ) -> np.ndarray:
        """Euclidean distance from each row of ``coords`` to the nearest
        of ``sites``."""
        best = np.full(coords.shape[0], np.inf)
        for site in sites:
            diff = coords - site
            np.minimum(
                best, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=best
            )
        return best

    # -- epoch orchestration -------------------------------------------
    def _coalesce(
        self, sites_list: list[list[np.ndarray]]
    ) -> list[list[int]]:
        """Merge events whose dirty balls overlap into regions.

        Two radius-``dirty_radius`` balls intersect iff their sites are
        within ``2 * dirty_radius``; the regions are the connected
        components of that overlap graph, each a list of event indices
        ordered as applied.
        """
        k = len(sites_list)
        if k == 1:
            return [[0]]
        pts = np.vstack([s for sites in sites_list for s in sites])
        owner = np.repeat(
            np.arange(k, dtype=np.int64),
            [len(sites) for sites in sites_list],
        )
        parent = list(range(k))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        thresh_sq = (2.0 * self.dirty_radius) ** 2
        diff = pts[:, None, :] - pts[None, :, :]
        close = np.einsum("ijk,ijk->ij", diff, diff) <= thresh_sq
        iu, iv = np.nonzero(close)
        for a, b in zip(owner[iu].tolist(), owner[iv].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, list[int]] = {}
        for idx in range(k):
            groups.setdefault(find(idx), []).append(idx)
        return [groups[root] for root in sorted(groups)]

    def _repair_epoch(
        self,
        reports: list[RepairReport],
        sites_list: list[list[np.ndarray]],
    ) -> None:
        alive_idx = np.flatnonzero(self._alive)
        if alive_idx.size == 0:
            return
        groups = self._coalesce(sites_list)
        epoch_lead = reports[groups[0][0]]
        n = self.graph.num_vertices
        dirty_mask = np.zeros(n, dtype=bool)
        halo_mask = np.zeros(n, dtype=bool)
        halo_radius = self.dirty_radius + self.params.t
        coords = self._coords[alive_idx]
        limit = self.resync_fraction * alive_idx.size
        for gi, group in enumerate(groups):
            lead = reports[group[0]]
            for idx in group[1:]:
                reports[idx].coalesced = True
            # The resync escalation is keyed to *per-event* dirty
            # balls, exactly like the per-event path: coalescing k
            # overlapping events must never escalate an epoch that
            # none of the k events would have escalated on its own
            # (merged-component checks were measured to force rebuilds
            # 6x slower than the local repair they preempted).  Each
            # event's distance row is computed once: counted for its
            # own ball, then folded into the group's minimum.
            d_site = np.full(alive_idx.size, np.inf)
            oversized = False
            for idx in group:
                row = self._site_distances(coords, sites_list[idx])
                if np.count_nonzero(row <= self.dirty_radius) > limit:
                    oversized = True
                np.minimum(d_site, row, out=d_site)
            dirty = alive_idx[d_site <= self.dirty_radius]
            lead.dirty_nodes = int(dirty.size)
            if oversized:
                self._rebuild_spanner()
                lead.resync = True
                for later in groups[gi + 1:]:
                    for idx in later:
                        reports[idx].coalesced = True
                return
            dirty_mask[dirty] = True
            halo_mask[alive_idx[d_site <= halo_radius]] = True
        # One repair pass over the union of all component balls.  For
        # disjoint components this is verdict-for-verdict identical to
        # repairing them one at a time (candidates and detour balls
        # are cutoff-local, so components cannot interact), but every
        # per-region fixed cost -- the edge-store scans, the sort, the
        # two-hop pass -- is paid once per epoch instead of once per
        # component.
        self._repair_region(np.flatnonzero(dirty_mask), epoch_lead)
        self._certify(np.flatnonzero(halo_mask), epoch_lead)

    def _span_add(
        self, x: int, y: int, length: float, report: RepairReport
    ) -> None:
        self.spanner.add_edge(x, y, length)
        report.added_edges += 1

    def _repair_region(
        self, dirty: np.ndarray, report: RepairReport
    ) -> None:
        """Promotion and redundancy on one merged dirty region.

        A multi-event region runs the *same* sequential pipeline as a
        single-event ball, just over the merged dirty set -- the
        epoch's saving is deduplication (each overlapping ball's
        candidates and verdicts are examined once per region instead of
        once per event), not a different algorithm, so the single-event
        pin is the k=1 case rather than a separate path.

        Promotion is one exact greedy pass: the touching base edges
        outside the spanner, as one :class:`~repro.graphs.graph.
        EdgeArrays` batch, put in ascending ``(w, u, v)`` order by
        ``np.lexsort`` and handed to :meth:`_answer` whole.  One
        :func:`~repro.graphs.paths.two_hop_within` pass over that batch
        at region entry settles every candidate a two-edge spanner path
        already joins within ``t * |xy|``: promotion only adds spanner
        edges, so that path still stands when the pass reaches the
        pair.  The prune list is a batch of the touching spanner edges
        in descending ``(w, u, v)`` order.
        """
        t = self.params.t
        t1 = self.params.t1
        tp0 = perf_counter()
        candidates = self._touching_edges(self.graph, dirty, spanner_gap=True)
        order = np.lexsort((candidates.v, candidates.u, candidates.w))
        candidates = candidates.take(order)
        settled = two_hop_within(
            self.spanner, candidates.u, candidates.v, t * candidates.w
        )
        self._answer(candidates, settled, report)
        report.promotion_s += perf_counter() - tp0

        # Phase (v): redundancy re-verdicts for spanner edges touching
        # the dirty ball -- remove iff a t1-alternative survives.
        tr0 = perf_counter()
        touching = self._touching_edges(self.spanner, dirty)
        order = np.lexsort((touching.v, touching.u, touching.w))[::-1]
        prune = touching.take(order)
        for a, b, w in zip(*(arr.tolist() for arr in prune)):
            if not self.spanner.has_edge(a, b):
                continue
            # detour_distance answers "would a t1-alternative survive
            # the removal?" without mutating the spanner: survivors --
            # the overwhelming majority -- cost zero log churn instead
            # of a remove/re-add pair (and the CSR rebuild the next
            # batched kernel would pay for it).
            d = detour_distance(self.spanner, a, b, cutoff=t1 * w)
            if d <= t1 * w:
                self.spanner.remove_edge(a, b)
                report.removed_edges += 1
        report.redundancy_s += perf_counter() - tr0

    def _certify(self, halo: np.ndarray, report: RepairReport) -> None:
        """Certification sweep: re-certify every base edge whose
        t-certificate could have crossed a dirty ball this epoch;
        re-add the violated ones directly.  This is the correctness
        backstop that keeps the t-spanner invariant unconditional.
        Suspects a two-edge path of the spanner under check joins
        within ``t * |xy|`` hold their certificate
        (:func:`~repro.graphs.paths.two_hop_within`); only the rest
        are searched."""
        tc0 = perf_counter()
        t = self.params.t
        suspects = self._touching_edges(self.graph, halo, spanner_gap=True)
        limits = t * suspects.w
        open_ = ~two_hop_within(self.spanner, suspects.u, suspects.v, limits)
        suspects, limits = suspects.take(open_), limits[open_]
        if suspects.w.size:
            sp = pair_distances(self.spanner, suspects.u, suspects.v, cutoff=t)
            for x, y, length in zip(
                *(a.tolist() for a in suspects.take(sp > limits))
            ):
                self._span_add(x, y, length, report)
        report.certification_s += perf_counter() - tc0

    def _answer(
        self, queries: EdgeArrays, settled: np.ndarray, report: RepairReport
    ) -> None:
        """Step-iv re-answering: one scalar cutoff-Dijkstra per query
        left open, in batch order, each answer visible to the next.

        ``settled`` is the :func:`~repro.graphs.paths.two_hop_within`
        mask aligned with ``queries``; a settled query is answered
        "covered" without a search.  The scalar search is
        target-directed: it stops the moment the partner vertex
        settles, typically after exploring a ball of radius ~sp(x, y)
        rather than the full cutoff.  One batched
        :func:`pair_distances` sweep over every query would pay a fixed
        cost (sixteen distance bands plus the dense-or-sparse probe)
        larger than the few hundred scalar searches a single event
        makes, and it was measured slower per epoch as well."""
        t = self.params.t
        queries = queries.take(~settled)
        for x, y, length in zip(*(a.tolist() for a in queries)):
            d = dijkstra_distance(self.spanner, x, y, cutoff=t * length)
            if d > t * length:
                self._span_add(x, y, length, report)

    def _touching_edges(
        self, graph: Graph, region: np.ndarray, *, spanner_gap: bool = False
    ) -> EdgeArrays:
        """Edges of ``graph`` with an endpoint in ``region`` as one batch
        with ``u < v``, in the edge store's deterministic order.  With
        ``spanner_gap`` only edges absent from the maintained spanner
        survive (the promotion / certification candidate filter): one
        key lookup per selected edge among the spanner CSR's sorted
        entries (:func:`~repro.graphs.graph.csr_find`), a matrix the
        two-hop pass that follows reads anyway."""
        edges = graph.edges_arrays()
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[region] = True
        edges = edges.take(mask[edges.u] | mask[edges.v])
        if spanner_gap:
            found = csr_find(self.spanner.csr(), edges.u, edges.v)
            edges = edges.take(found < 0)
        return edges


def _tup(pos: Sequence[float] | None) -> tuple[float, ...] | None:
    if pos is None:
        return None
    return tuple(float(c) for c in pos)
