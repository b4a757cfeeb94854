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
3. the paper's phases re-run *only on the induced dirty subgraph*:
   cover re-promotion (:func:`build_cluster_cover` restricted to the
   dirty universe), per-bin query selection (equation (1) minimizers),
   and step-iv query re-answering -- the dirty region is small enough
   that exact spanner distances subsume the cluster-graph
   approximation;
4. redundancy verdicts for spanner edges touching the dirty ball are
   re-taken (remove iff a ``t1``-alternative survives), and
5. a certification sweep over base edges within ``dirty_radius + t``
   of the sites re-adds any edge whose ``t``-certificate the repair
   broke.  A certificate path for base edge ``(x, y)`` stays within
   Euclidean ``t`` of ``x``; every spanner edge the repair removed has
   an endpoint within ``dirty_radius`` of a site, so any base edge
   whose certificate could have broken has an endpoint within
   ``dirty_radius + t`` -- the sweep radius.  The invariant after
   every event: **the maintained spanner is a t-spanner of the
   current base graph** (:meth:`MaintenanceSession.verify`).

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
isolation re-derives the same region's cover over and over.
:meth:`MaintenanceSession.apply_epoch` applies one epoch of events
together: every mutation lands on the base graph first, the per-event
balls coalesce into merged dirty *regions* (connected components of
the ball-overlap graph), promotion and redundancy run once per region
-- deduplicating every overlapping ball's candidates, covers and
verdicts -- and one certification sweep closes the epoch over the
union of the region halos.  A single-event epoch takes exactly the
per-event path (``apply`` *is* ``apply_epoch`` of one event), so the
two pins extend rather than fork.

**Persistent cover state.**  Repairs stop discarding cover structure
between events: the session caches the per-bin dense cover rows
(each vertex's center and distance to it, the two arrays a
:class:`repro.core.cover.ClusterCover` holds) and invalidates only
rows whose radius-ball can touch a changed spanner edge (every
spanner mutation records its endpoint positions; a cached
row ``v -> (c, d)`` can only be wrong if a changed edge lies within
Euclidean ``radius`` of ``v``, because spanner weights dominate
straight-line distance).  Surviving rows are served as-is -- they are
*exact* current shortest-path distances, which
:meth:`MaintenanceSession.cover_cache_audit` re-derives and checks
bit-for-bit.

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
from ..graphs.graph import EdgeArrays, Graph
from ..graphs.paths import detour_distance, dijkstra_distance, pair_distances
from ..params import SpannerParams
from .bins import EdgeBinning
from .cover import ClusterCover, build_cluster_cover_reference
from .relaxed_greedy import RelaxedGreedySpanner, SpannerResult
from .selection import select_query_edges

if TYPE_CHECKING:
    from ..distributed.faults import FaultPlan

__all__ = [
    "MaintenanceEvent",
    "MaintenanceSession",
    "RepairReport",
    "events_from_fault_plan",
]

# Candidate-count floor below which a bin's repair skips the cluster
# cover and queries every candidate edge directly: the cover's query
# economy (one query per cluster pair) cannot save more than the k
# queries a k-edge bin has, so deriving it only pays past this size
# (measured crossover on flocking churn at n = 10^4).
_COVER_MIN_EDGES = 64


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
    #: Clusters re-promoted on the dirty subgraph (summed over bins).
    dirty_balls: int = 0
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
    cover_s: float = 0.0
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
    crash_at, recover_at = plan.crash_schedules(node_arr)
    events: list[MaintenanceEvent] = []
    for i, node in enumerate(node_arr.tolist()):
        ca = float(crash_at[i])
        if not math.isfinite(ca) or ca > horizon:
            continue
        events.append(MaintenanceEvent("delete", node=node, time=ca))
        ra = float(recover_at[i])
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
    cover_cache:
        Keep per-bin cover rows alive between events (default).  Off,
        every repair re-derives its covers from scratch, as PR 9 did.
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
        cover_cache: bool = True,
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
        # Persistent cover state: bin -> (radius, center_of, dist rows)
        # over the capacity id space, plus the pending positions of
        # changed spanner-edge endpoints awaiting invalidation.
        self._cover_cache_on = bool(cover_cache)
        self._cover_bins: dict[
            int, tuple[float, np.ndarray, np.ndarray]
        ] = {}
        self._cover_pending: list[np.ndarray] = []
        self._cover_hits = 0
        self._cover_misses = 0
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

        Per-phase wall splits (cover / promotion / redundancy /
        certification) come straight from the reports, so optimization
        rounds profile from here instead of ad-hoc timers; the cover
        cache's hit/miss counters ride along.
        """
        n = len(self.reports)
        wall = sum(r.wall_s for r in self.reports)
        return {
            "events": n,
            "epochs": self._epochs,
            "dirty_balls": sum(r.dirty_balls for r in self.reports),
            "repaired_edges": sum(r.repaired_edges for r in self.reports),
            "resyncs": sum(1 for r in self.reports if r.resync),
            "wall_s": wall,
            "mean_wall_s": wall / n if n else 0.0,
            "cover_s": sum(r.cover_s for r in self.reports),
            "promotion_s": sum(r.promotion_s for r in self.reports),
            "redundancy_s": sum(r.redundancy_s for r in self.reports),
            "certification_s": sum(
                r.certification_s for r in self.reports
            ),
            "cover_cache_hits": self._cover_hits,
            "cover_cache_misses": self._cover_misses,
        }

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
        one report per event; an empty epoch is a no-op.  Every given
        position must be finite with ``dim`` coordinates, checked for
        the whole epoch before any event is applied.
        """
        events = list(events)
        if not events:
            return []
        for event in events:
            if event.kind not in ("insert", "delete", "move"):
                raise ParameterError(f"unknown event kind {event.kind!r}")
            if event.pos is not None and not (
                len(event.pos) == self._dim
                and all(math.isfinite(c) for c in event.pos)
            ):
                who = (
                    "fresh node" if event.node is None
                    else f"node {event.node}"
                )
                raise GraphError(
                    f"{event.kind} of {who} needs a finite dim-{self._dim} "
                    f"position, got {event.pos}"
                )
        t0 = perf_counter()
        reports: list[RepairReport] = []
        sites_list: list[list[np.ndarray]] = []
        for event in events:
            if event.kind == "insert":
                node, sites = self._do_insert(event.node, event.pos)
            elif event.kind == "delete":
                node, sites = self._do_delete(event.node)
            else:
                node, sites = self._do_move(event.node, event.pos)
            reports.append(
                RepairReport(kind=event.kind, node=node, time=event.time)
            )
            sites_list.append(sites)
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
        return reports

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

    def cover_cache_audit(self) -> list[tuple[int, int, int, float, float]]:
        """Re-derive every live cached cover row and report mismatches.

        For each cached row ``v -> (c, d)`` of each bin, the exact
        spanner distance ``sp(c, v)`` is recomputed cold; any row where
        the cached float is not **bit-equal** to the re-derivation (or
        exceeds the bin radius) comes back as
        ``(bin, v, c, cached, exact)``.  An empty list is the cache's
        correctness certificate: conservative invalidation never serves
        a stale row.
        """
        self._flush_cover_invalidation()
        bad: list[tuple[int, int, int, float, float]] = []
        for bin_idx, (radius, crow, drow) in self._cover_bins.items():
            for v in np.flatnonzero(crow >= 0).tolist():
                c = int(crow[v])
                d = float(drow[v])
                exact = dijkstra_distance(self.spanner, c, v, cutoff=radius)
                if exact != d or d > radius:
                    bad.append((bin_idx, v, c, d, exact))
        return bad

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
        zero-length edge).  Events call this before writing any state,
        so a rejected event leaves the session unchanged."""
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

    def _do_insert(
        self, node: int | None, pos: tuple[float, ...] | None
    ) -> tuple[int, list[np.ndarray]]:
        if node is None:
            if pos is None:
                raise GraphError("insert of a fresh node needs a position")
            node = self._coords.shape[0]
            cand, dist = self._near_target(node, pos)
            self._coords = np.vstack([self._coords, [pos]])
            self._alive = np.append(self._alive, False)
            self.graph.add_vertices(1)
            self.spanner.add_vertices(1)
            # Capacity growth re-bins every length and resizes the row
            # arrays; start the cover cache over.
            self._cover_bins.clear()
            self._cover_pending.clear()
        else:
            if not 0 <= node < self.capacity:
                raise GraphError(f"node {node} out of range")
            if self._alive[node]:
                raise GraphError(f"node {node} is already alive")
            cand, dist = self._near_target(
                node, self._coords[node] if pos is None else pos
            )
            if pos is not None:
                self._coords = self._coords.copy()
                self._coords[node] = pos
        self._pts_cache = None
        self._alive[node] = True
        position = self._coords[node]
        nbrs, ws = self._decide_edges(node, cand, dist)
        for v, w in zip(nbrs.tolist(), ws.tolist()):
            self.graph.add_edge(node, v, w)
        self._cell_add(node)
        return node, [position.copy()]

    def _do_delete(self, node: int) -> tuple[int, list[np.ndarray]]:
        if not (0 <= node < self.capacity and self._alive[node]):
            raise GraphError(f"node {node} is not alive")
        site = self._coords[node].copy()
        if self._cover_cache_on:
            self._kill_node_rows(node)
            self._cover_pending.append(site)
            for v in self.spanner.neighbors(node):
                self._cover_pending.append(self._coords[v].copy())
        for v in list(self.spanner.neighbors(node)):
            self.spanner.remove_edge(node, v)
        for v in list(self.graph.neighbors(node)):
            self.graph.remove_edge(node, v)
        self._cell_remove(node)
        self._alive[node] = False
        return node, [site]

    def _do_move(
        self, node: int, pos: tuple[float, ...] | None
    ) -> tuple[int, list[np.ndarray]]:
        if not (0 <= node < self.capacity and self._alive[node]):
            raise GraphError(f"node {node} is not alive")
        if pos is None:
            raise GraphError(f"move needs a dim-{self._dim} position")
        cand, dist = self._near_target(node, pos)
        old = self._coords[node].copy()
        if self._cover_cache_on:
            # Every spanner edge at the node changes weight or dies;
            # kill its own rows outright (the flush gathers from the
            # grid at *current* positions, which no longer see the old
            # site), then record the derivation-time geometry (old
            # position) plus the still-current neighbor positions.
            self._kill_node_rows(node)
            self._cover_pending.append(old.copy())
            for v in self.spanner.neighbors(node):
                self._cover_pending.append(self._coords[v].copy())
        self._cell_remove(node)
        self._coords = self._coords.copy()
        self._coords[node] = pos
        self._pts_cache = None
        new_pos = self._coords[node]
        if self._cover_cache_on:
            self._cover_pending.append(new_pos.copy())
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
        return node, [old, new_pos.copy()]

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
        # A rebuild rewrites the covered graph wholesale.
        self._cover_bins.clear()
        self._cover_pending.clear()

    def _site_distances(self, sites: list[np.ndarray]) -> np.ndarray:
        alive_idx = np.flatnonzero(self._alive)
        coords = self._coords[alive_idx]
        best = np.full(alive_idx.shape, np.inf)
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
        for gi, group in enumerate(groups):
            lead = reports[group[0]]
            for idx in group[1:]:
                reports[idx].coalesced = True
            sites = [s for idx in group for s in sites_list[idx]]
            d_site = self._site_distances(sites)
            dirty = alive_idx[d_site <= self.dirty_radius]
            lead.dirty_nodes = int(dirty.size)
            # The resync escalation is keyed to *per-event* dirty
            # balls, exactly like the per-event path: coalescing k
            # overlapping events must never escalate an epoch that
            # none of the k events would have escalated on its own
            # (merged-component checks were measured to force rebuilds
            # 6x slower than the local repair they preempted).  For a
            # singleton group the component ball *is* the event ball,
            # so the already-computed distances answer it.
            if len(group) == 1:
                oversized = (
                    dirty.size > self.resync_fraction * alive_idx.size
                )
            else:
                limit = self.resync_fraction * alive_idx.size
                oversized = any(
                    alive_idx[
                        self._site_distances(sites_list[idx])
                        <= self.dirty_radius
                    ].size
                    > limit
                    for idx in group
                )
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
        # repairing them one at a time (candidates, cluster pairs and
        # detour balls are all cutoff-local, so components cannot
        # interact), but every per-region fixed cost -- the cover
        # flush, the edge-store scans, the bin loop -- is paid once
        # per epoch instead of once per component.
        self._repair_region(np.flatnonzero(dirty_mask), epoch_lead)
        self._certify(np.flatnonzero(halo_mask), epoch_lead)

    def _span_add(
        self, x: int, y: int, length: float, report: RepairReport
    ) -> None:
        self.spanner.add_edge(x, y, length)
        report.added_edges += 1
        if self._cover_cache_on:
            self._cover_pending.append(self._coords[x].copy())
            self._cover_pending.append(self._coords[y].copy())

    def _span_dropped(self, x: int, y: int, report: RepairReport) -> None:
        """Account a redundancy removal (edge already off the spanner)."""
        report.removed_edges += 1
        if self._cover_cache_on:
            self._cover_pending.append(self._coords[x].copy())
            self._cover_pending.append(self._coords[y].copy())

    def _repair_region(
        self, dirty: np.ndarray, report: RepairReport
    ) -> None:
        """Phases (i)-(v) on one merged dirty region.

        A multi-event region runs the *same* sequential pipeline as a
        single-event ball, just over the merged dirty set -- the
        epoch's saving is deduplication (each overlapping ball's
        candidates, covers and verdicts are examined once per region
        instead of once per event), not a different algorithm, so the
        single-event pin is the k=1 case rather than a separate path.
        Batched max-cutoff sweeps were measured slower here: per-edge
        Dijkstra cutoffs are what keep the answered balls tiny.

        Candidates stay one :class:`~repro.graphs.graph.EdgeArrays`
        batch throughout: the touching base edges outside the spanner,
        split into bins, filtered by masks and put in query order by
        ``np.lexsort``; the prune list is a batch of the touching
        spanner edges in descending ``(w, u, v)`` order.
        """
        t = self.params.t
        t1 = self.params.t1
        tf = perf_counter()
        self._flush_cover_invalidation()
        report.cover_s += perf_counter() - tf

        # Phase (i)-(iv) on the dirty subgraph: per-bin cover
        # re-promotion, equation-(1) query selection, and step-iv
        # re-answering with exact spanner distances.
        tp0 = perf_counter()
        cover_before = report.cover_s
        candidates = self._touching_edges(self.graph, dirty, spanner_gap=True)
        binning = EdgeBinning.for_params(self.params, self.graph.num_vertices)
        for i, bin_edges in binning.assign(candidates).items():
            if i == 0 or bin_edges.w.size <= _COVER_MIN_EDGES:
                # Short-edge bin (lengths <= alpha/n) or a bin too thin
                # for the cover to pay: the cover's only job in repair
                # is merging same-cluster-pair queries, and with this
                # few candidates the derivation costs more than the
                # <= k queries it could save -- query each edge
                # directly, greedy in ascending (w, u, v) order.
                order = np.lexsort((bin_edges.v, bin_edges.u, bin_edges.w))
                self._answer(bin_edges.take(order), report)
                continue
            radius = self.params.delta * binning.boundary(i - 1)
            # The selection only needs candidate *endpoints* covered;
            # restricting the universe to them keeps the re-promotion
            # O(dirty), not O(halo x bins).
            endpoints = np.unique(np.concatenate([bin_edges.u, bin_edges.v]))
            cover = self._bin_cover(i, radius, endpoints, report)
            # delta < 1/2 makes same-cluster candidates impossible for
            # this bin (sp >= |xy| > W_{i-1} > 2*radius); the filter is
            # a cheap guard for degenerate parameters.
            apart = cover.center[bin_edges.u] != cover.center[bin_edges.v]
            selection = select_query_edges(bin_edges.take(apart), cover, t)
            self._answer(selection.queries, report)
        report.promotion_s += (perf_counter() - tp0) - (
            report.cover_s - cover_before
        )

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
                self._span_dropped(a, b, report)
        report.redundancy_s += perf_counter() - tr0

    def _certify(self, halo: np.ndarray, report: RepairReport) -> None:
        """Certification sweep: re-certify every base edge whose
        t-certificate could have crossed a dirty ball this epoch;
        re-add the violated ones directly.  This is the correctness
        backstop that keeps the t-spanner invariant unconditional."""
        tc0 = perf_counter()
        t = self.params.t
        suspects = self._touching_edges(self.graph, halo, spanner_gap=True)
        if suspects.w.size:
            sp = pair_distances(self.spanner, suspects.u, suspects.v, cutoff=t)
            for x, y, length in zip(
                *(a.tolist() for a in suspects.take(sp > t * suspects.w))
            ):
                self._span_add(x, y, length, report)
        report.certification_s += perf_counter() - tc0

    def _answer(self, queries: EdgeArrays, report: RepairReport) -> None:
        """Step-iv re-answering: one scalar cutoff-Dijkstra per query, in
        batch order, each answer visible to the next.  The scalar search
        is target-directed -- it stops the moment the partner vertex
        settles, typically after exploring a ball of radius ~sp(x, y)
        rather than the full cutoff -- so batched multi-source sweeps,
        which must flood every source's whole cutoff ball, were measured
        2-5x slower here despite their C-level inner loop."""
        t = self.params.t
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
        survive (the promotion / certification candidate filter): a
        per-pair adjacency probe on the already-masked selection -- an
        encoded-key ``np.isin`` was measured slower because it re-sorts
        all the spanner's edge keys on every call, while the selection
        it filters is tiny."""
        edges = graph.edges_arrays()
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[region] = True
        edges = edges.take(mask[edges.u] | mask[edges.v])
        if spanner_gap:
            has = self.spanner.has_edge
            gap = [
                not has(a, b)
                for a, b in zip(edges.u.tolist(), edges.v.tolist())
            ]
            edges = edges.take(np.array(gap, dtype=bool))
        return edges

    # -- persistent cover state ----------------------------------------
    def _kill_node_rows(self, node: int) -> None:
        """Clear the node's own cached rows across every bin (a dead or
        moved vertex is no grid-reachable target for the flush)."""
        for _, crow, drow in self._cover_bins.values():
            crow[node] = -1
            drow[node] = np.inf

    def _flush_cover_invalidation(self) -> None:
        """Apply pending spanner-change positions to every cached bin.

        A cached row ``v -> (c, d)`` can only be stale if some changed
        edge lies on (or shortens) a path of length <= radius from
        ``v``; edge weights dominate straight-line distance, so it
        suffices to clear rows within Euclidean ``radius`` of any
        changed endpoint.  Bin radii are ``delta * W_{i-1} < delta <
        1/2`` (a non-empty bin has ``W_{i-1} < 1``, and
        :meth:`SpannerParams.validate` enforces ``delta < (t1 - 1) /
        (6 + 2 t1)``) -- under the unit grid-cell width -- so the rows
        at risk come out of the event sites' own cell neighborhoods,
        keeping the flush O(changed neighborhood), not O(capacity).
        """
        if not self._cover_pending:
            return
        if not self._cover_bins:
            self._cover_pending.clear()
            return
        rmax = max(radius for radius, _, _ in self._cover_bins.values())
        pts = self._cover_pending
        self._cover_pending = []
        hits: list[np.ndarray] = []
        dists: list[np.ndarray] = []
        for pos in pts:
            ids, d = self._near(pos, rmax)
            if ids.size:
                hits.append(ids)
                dists.append(d)
        if not hits:
            return
        ids = np.concatenate(hits)
        d = np.concatenate(dists)
        for radius, crow, drow in self._cover_bins.values():
            sel = ids[d <= radius]
            crow[sel] = -1
            drow[sel] = np.inf

    def _bin_cover(
        self,
        bin_idx: int,
        radius: float,
        endpoints: np.ndarray,
        report: RepairReport,
    ) -> ClusterCover:
        """Cover the bin's candidate endpoints (an ascending array),
        reusing cached rows.

        Cache off: a cold restricted ball-growing on the scalar
        reference (:func:`build_cluster_cover` scans every spanner edge
        for its short-edge mask on each call).  Cache on: rows
        surviving invalidation are served as-is (they are exact
        current distances); only the uncovered remainder grows fresh
        balls -- the scalar restricted reference, whose per-ball cost
        is O(ball), beats any dense O(capacity) kernel at repair
        granularity -- and the new rows persist for the next repair.
        The cover holds the endpoints' rows and nothing else.
        """
        t0 = perf_counter()
        try:
            if not self._cover_cache_on:
                cover = build_cluster_cover_reference(
                    self.spanner, radius, vertices=endpoints.tolist()
                )
                report.dirty_balls += cover.num_clusters
                return cover
            # Invalidation was flushed at region entry; edges this
            # region's own promotion added invalidate at the *next*
            # flush -- at most one region of staleness, which only
            # perturbs equation-(1) minimizers (certification backstops
            # stretch, and the audit flushes before checking).
            entry = self._cover_bins.get(bin_idx)
            if entry is None or entry[0] != radius:
                crow = np.full(self.capacity, -1, dtype=np.int64)
                drow = np.full(self.capacity, np.inf)
                self._cover_bins[bin_idx] = (radius, crow, drow)
            else:
                _, crow, drow = entry
            have = crow[endpoints] >= 0
            hits = int(have.sum())
            self._cover_hits += hits
            self._cover_misses += int(endpoints.size - hits)
            need = endpoints[~have]
            if need.size:
                sub = build_cluster_cover_reference(
                    self.spanner, radius, vertices=need.tolist()
                )
                crow[need] = sub.center[need]
                drow[need] = sub.dist[need]
            center = np.full(crow.size, -1, dtype=np.int64)
            dist = np.full(crow.size, np.inf)
            center[endpoints] = crow[endpoints]
            dist[endpoints] = drow[endpoints]
            # Centers in first-appearance order over the endpoints.
            centers = tuple(dict.fromkeys(center[endpoints].tolist()))
            report.dirty_balls += len(centers)
            return ClusterCover(radius, centers, center, dist)
        finally:
            report.cover_s += perf_counter() - t0


def _tup(pos: Sequence[float] | None) -> tuple[float, ...] | None:
    if pos is None:
        return None
    return tuple(float(c) for c in pos)
