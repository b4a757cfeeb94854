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
   the event can affect.  One grid join of the alive nodes with the
   epoch's sites (:meth:`MaintenanceSession._balls`) finds every ball
   and halo at once: only node-site pairs in neighbouring cells get a
   distance, so the work follows the sites, not the deployment;
2. the base alpha-UBG and the spanner are patched once per epoch, one
   bulk write each, from one grid join of the epoch's targets with the
   alive nodes around them (:meth:`MaintenanceSession._patch`; a
   one-event epoch measures its target against those nodes directly,
   and the cached CSR is rebuilt by the next array kernel that reads
   it).  Its fixed cost in array calls exceeds the few per-edge writes
   of one event; its gain grows with the events per epoch;
3. promotion takes the base edges *touching* the dirty ball that the
   spanner lacks in ascending ``(w, u, v)`` order, one exact greedy
   pass: a candidate joins the spanner iff an exact cutoff search finds
   no spanner path within ``t * |xy|``.  The paper's cluster cover,
   query selection and cluster graph exist to bound distributed rounds;
   repair runs centrally, and the certification sweep below, not a
   cover, keeps its output a t-spanner.  Two tests settle a candidate
   at region entry without a search, in this order.  The first reads
   the epoch's *change log* (:meth:`MaintenanceSession._untouched`):
   the spanner is a t-spanner at every epoch start, so a base edge whose
   endpoints the epoch did not write had a spanner path within
   ``t * |xy|`` then, lying in the ellipse ``|xp| + |py| <= t * |xy|``
   at epoch-start positions, and it still has it unless the epoch
   removed or re-weighted an edge there
   (:func:`~repro.graphs.paths.untouched_ellipses`).  The second finds
   a spanner path of two or three edges within ``t * |xy|``
   (:func:`~repro.graphs.paths.three_hop_within`).  Promotion only adds
   spanner edges, so either path still stands when the pair's turn
   comes up -- the paper's lazy-update rule, that added edges only
   shorten distances;
4. redundancy verdicts for spanner edges touching the dirty ball are
   re-taken in descending ``(w, u, v)`` order (remove iff a
   ``t1``-alternative survives).  Spanner weights are the Euclidean
   lengths between stored positions, so an edge whose detour bound
   (:func:`~repro.graphs.paths.detour_lower_bounds`: one spanner hop
   from either end plus the straight line to the far end) already
   exceeds ``t1 * w`` is kept without a search; the bound is taken once
   at prune entry, and removals only lengthen detours, so it holds for
   the whole prune.  Every removal goes into the change log; and
5. a certification sweep over base edges with an endpoint within
   ``dirty_radius + t`` of the sites re-adds any edge whose
   ``t``-certificate the repair broke.  The same two tests, the change
   log now holding the prune's removals, settle most suspects; each of
   the rest gets one target-directed search, every verdict taken before
   any re-addition.  A certificate path for base edge ``(x, y)`` stays
   within Euclidean ``t`` of ``x``; every spanner edge the repair
   removed has an endpoint within ``dirty_radius`` of a site, so any
   base edge whose certificate could have broken has an endpoint within
   ``dirty_radius + t`` -- the sweep radius.  The invariant after every
   event: **the maintained spanner is a t-spanner of the current base
   graph** (:meth:`MaintenanceSession.verify`).

Each settlement makes exactly the verdict the skipped search would
have made, so the spanner is the one a search of every pair builds
(the replay twins in the tests pin this).

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
together: every mutation lands on the base graph first, in one patch;
the per-event balls coalesce into merged dirty *regions* (connected
components of the ball-overlap graph), promotion and redundancy run
once per region
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
import numbers
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..arrayops import cell_neighbour_pairs, sorted_find, sorted_unique
from ..exceptions import GraphError, ParameterError
from ..geometry import GridIndex, PointSet
from ..graphs.build import KeepAllPolicy, qubg_edge_mask, reject_coincident
from ..graphs.graph import EdgeArrays, Graph, csr_find
from ..graphs.paths import (
    detour_distance,
    detour_lower_bounds,
    dijkstra_distance,
    pair_distances,
    three_hop_within,
    untouched_ellipses,
)
from ..params import SpannerParams
from .churn_epoch import EpochWrites
from .cluster_graph import _REGION_SLACK
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
        self.reports: list[RepairReport] = []
        self._epochs = 0
        self._log_reset()
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
        return self.apply(MaintenanceEvent("insert", node, pos, time))

    def delete(self, node: int, *, time: float = 0.0) -> RepairReport:
        """Delete (crash) an alive node; its id stays reserved."""
        return self.apply(MaintenanceEvent("delete", node, None, time))

    def move(
        self, node: int, new_pos: Sequence[float], *, time: float = 0.0
    ) -> RepairReport:
        """Move an alive node to ``new_pos``."""
        return self.apply(MaintenanceEvent("move", node, new_pos, time))

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

        The events are staged, then base graph and spanner are patched
        once (:meth:`_patch`); the per-event dirty balls merge into
        regions (connected components of the ball-overlap graph) and the
        repair pipeline runs once per region, with one certification
        sweep over the union of halos closing the epoch.
        ``repair="rebuild"`` epochs re-derive the spanner once (still
        bit-equal to a scratch rebuild).  Returns one report per event;
        an empty epoch is a no-op.

        Kinds, positions, node ids and times are checked for the whole
        epoch before any event is applied (:meth:`_check_epoch`).  A
        target that another alive node occupies as its event comes up
        ends the epoch there: the events before it are written, repaired
        and recorded, and a :class:`GraphError` propagates.  A gray-zone
        policy that raises (a mask of the wrong shape, say) leaves the
        whole epoch unwritten, and its error propagates.
        """
        events = list(events)
        if not events:
            return []
        positions = self._check_epoch(events)
        t0 = perf_counter()
        self._log_reset()
        epoch = EpochWrites(self._coords, self._alive, events, positions)
        stop, occupants = epoch.first_occupied()
        if stop:
            self._patch(epoch, stop)
        reports = [
            RepairReport(kind=event.kind, node=node, time=event.time)
            for event, node in zip(events[:stop], epoch.nodes)
        ]
        self._close_epoch(reports, epoch.sites[:stop], t0)
        if occupants:
            pos = tuple(float(c) for c in epoch.targets[stop])
            raise GraphError(
                f"node {epoch.nodes[stop]} at {pos} would coincide with "
                f"alive node(s) {occupants}"
            )
        return reports

    def _check_epoch(
        self, events: list[MaintenanceEvent]
    ) -> list[tuple[float, ...] | None]:
        """Raise on the first event the epoch cannot apply, before any
        event is written; return each event's position as a tuple of
        floats (``None`` where it has none).

        Every kind must be known, every time a finite real number (no
        ``bool``, string, ``None``, NaN or infinity; an ``int`` of any
        size is one), and every given
        position a flat sequence of ``dim`` finite real numbers (no
        strings, ``None``, complex numbers or nested rows); a move and a
        fresh insert need one.  A node id is ``None`` only for a fresh
        insert.  Otherwise it is an ``int`` or numpy integer, never a
        ``bool``, below the capacity (counting the epoch's earlier fresh
        inserts), and alive or dead as the epoch's earlier events leave
        it: a revival needs a dead node, a delete or a move an alive one.
        """
        capacity = self.capacity
        alive_now: dict[int, bool] = {}  # as the earlier events leave it
        positions: list[tuple[float, ...] | None] = []
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
            else:
                pos = _position(pos, self._dim)
                if pos is None:
                    raise GraphError(
                        f"{kind} of {who} needs a finite dim-{self._dim} "
                        f"position, got {' '.join(repr(event.pos).split())}"
                    )
            time = event.time
            try:
                finite = isinstance(time, numbers.Real) and math.isfinite(time)
            except OverflowError:  # an int too large for a float
                finite = True
            if isinstance(time, bool) or not finite:
                raise GraphError(
                    f"{kind} of {who} needs a finite real time, got {time!r}"
                )
            positions.append(pos)
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
        return positions

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
        every alive base edge, and the spanner is a base subgraph whose
        every weight is its base edge's weight bit for bit.
        ``stale_weights`` counts the spanner edges whose weight is not
        (a length a move left behind, which the stretch ratio would
        read)."""
        t = self.params.t
        us, vs, ws = self.graph.edges_arrays()
        su, sv, sw = self.spanner.edges_arrays()
        subgraph = self.spanner.num_vertices == self.graph.num_vertices
        stale = 0
        if subgraph and su.size:
            base = self.graph.csr()
            at = csr_find(base, su, sv)
            found = at >= 0
            subgraph = bool(found.all())
            stale = int(np.count_nonzero(base.data[at[found]] != sw[found]))
        stretch = 1.0
        if us.size:
            sp = pair_distances(self.spanner, us, vs, cutoff=t)
            stretch = float((sp / ws).max())
        ok = bool(np.isfinite(stretch)) and stretch <= t * (1.0 + 1e-9)
        return {
            "ok": ok and subgraph and stale == 0,
            "stretch": stretch,
            "edges": int(us.size),
            "stale_weights": stale,
        }

    # ------------------------------------------------------------------
    # Base-graph patching (incremental alpha-UBG)
    # ------------------------------------------------------------------
    def _points(self) -> PointSet:
        if self._pts_cache is None:
            self._pts_cache = PointSet(self._coords)
        return self._pts_cache

    # -- the epoch's change log ----------------------------------------
    def _log_reset(self) -> None:
        """Start the change log of the epoch about to be applied.

        The log holds the coordinate array held at the epoch start, the
        nodes an event writes (moved, inserted, revived or deleted) and,
        as endpoint pairs, the spanner edges the epoch removes or
        re-weights: every spanner edge of a deleted or moved node, and
        every removal of the prune.  Promotion and certification only
        add edges.  :meth:`_untouched` reads it.

        Every logged edge existed at the epoch start, so the
        coordinate array covers its endpoints: an event finds only
        those, and the prune never removes an edge ``e`` promoted in the
        same epoch.  A ``t1``-detour of ``e`` would need a later, no
        shorter promotion ``f``, and the path through ``e`` that stood
        when ``f`` came up is within ``t * |f|``, so ``f`` was never
        promoted.
        """
        # _patch writes an epoch's positions into a new array, never
        # into this one.
        self._log_coords = self._coords
        self._log_nodes: set[int] = set()
        self._log_edges: list[tuple[int, int]] = []

    def _patch(self, epoch: EpochWrites, stop: int) -> None:
        """Write the first ``stop`` events of ``epoch``: positions,
        alive flags, the change log, and one bulk write per graph.

        A base edge depends only on its ends' positions, so the written
        nodes' base edges are :meth:`EpochWrites.final_pairs`, decided
        once by :func:`~repro.graphs.build.qubg_edge_mask` on a
        :class:`PointSet` of the final coordinates.  The spanner is not
        a function of the final positions: a move drops the node's
        spanner edges that are no base edge at that event's positions,
        and promotion decides those pairs again.  So an epoch-start
        spanner edge of a written node stays iff it is a final base edge
        and each earlier write of an end kept it
        (:meth:`EpochWrites.holds`); it takes the final base weight.
        """
        start, alive0 = self._coords, self._alive
        nodes = list(dict.fromkeys(epoch.nodes[:stop]))
        capacity = max(start.shape[0], max(nodes) + 1)
        # The written nodes' edges as the epoch found them (a fresh id
        # has none), gathered from their adjacency.
        old = [node for node in nodes if node < start.shape[0]]
        bu, bv = _incident(self.graph, old)
        su, sv = _incident(self.spanner, old)
        coords, alive = (arr[:capacity] for arr in epoch.replay(stop))
        self._coords, self._alive, self._pts_cache = coords, alive, None
        try:
            u, v, w = epoch.final_pairs(stop)
            if (w > self._alpha).any():  # a gray pair needs the PointSet
                keep = qubg_edge_mask(
                    self._policy, self._points(), self._alpha, u, v, w
                )
                u, v, w = u[keep], v[keep], w[keep]
            keys = u * capacity + v
            at = sorted_find(keys, su * capacity + sv)
            holds = at >= 0
            holds[holds] = epoch.holds(
                self._policy, self._alpha, su[holds], sv[holds], stop
            )
        except BaseException:
            self._coords, self._alive, self._pts_cache = start, alive0, None
            raise
        self._log_nodes.update(nodes)
        self._log_edges.extend(zip(su.tolist(), sv.tolist()))
        vanished = sorted_find(keys, bu * capacity + bv) < 0
        for graph in (self.graph, self.spanner):
            graph.add_vertices(capacity - start.shape[0])
        self.graph.remove_edges_arrays(bu[vanished], bv[vanished])
        self.graph.add_weighted_edges_arrays(u, v, w)
        self.spanner.remove_edges_arrays(su[~holds], sv[~holds])
        self.spanner.add_weighted_edges_arrays(
            su[holds], sv[holds], w[at[holds]]
        )

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
        keep = qubg_edge_mask(
            self._policy, self._points(), self._alpha, gu, gv, dist
        )
        g.add_weighted_edges_arrays(gu[keep], gv[keep], dist[keep])
        return g

    def _build_result(self) -> SpannerResult:
        builder = RelaxedGreedySpanner(self.params)
        return builder.build(self.graph, self._points().distance)

    def _rebuild_spanner(self) -> None:
        self.build_result = self._build_result()
        self.spanner = self.build_result.spanner

    # -- epoch orchestration -------------------------------------------
    def _coalesce(
        self, sites_list: list[list[np.ndarray]]
    ) -> list[list[int]]:
        """Merge events whose dirty balls overlap into regions.

        Two radius-``dirty_radius`` balls intersect iff their sites are
        within ``2 * dirty_radius``; the regions are the connected
        components of that overlap graph, each a list of event indices
        ordered as applied, and the regions ordered by their first
        event.  Only sites in neighbouring grid cells
        (:func:`~repro.arrayops.cell_neighbour_pairs`) are compared, so
        the memory grows with the sites, not with their square.
        """
        k = len(sites_list)
        if k == 1:
            return [[0]]
        pts = np.vstack([s for sites in sites_list for s in sites])
        owner = np.repeat(
            np.arange(k, dtype=np.int64),
            [len(sites) for sites in sites_list],
        )
        reach = 2.0 * self.dirty_radius
        thresh_sq = reach**2
        src, dst = [], []
        for a, b in cell_neighbour_pairs(pts, pts, reach):
            # Each pair of sites comes out both ways round; keep one.
            one_way = owner[a] < owner[b]
            a, b = a[one_way], b[one_way]
            diff = pts[a] - pts[b]
            close = np.einsum("ij,ij->i", diff, diff) <= thresh_sq
            src.append(owner[a[close]])
            dst.append(owner[b[close]])
        src, dst = np.concatenate(src), np.concatenate(dst)
        overlap = coo_matrix((np.ones(src.size), (src, dst)), shape=(k, k))
        _, labels = connected_components(overlap, directed=False)
        groups: dict[int, list[int]] = {}
        for idx, label in enumerate(labels.tolist()):
            groups.setdefault(label, []).append(idx)
        return list(groups.values())

    def _repair_epoch(
        self,
        reports: list[RepairReport],
        sites_list: list[list[np.ndarray]],
    ) -> None:
        alive_idx = np.flatnonzero(self._alive)
        if alive_idx.size == 0:
            return
        groups = self._coalesce(sites_list)
        # Every ball and halo of the epoch, counted per event and per
        # region, from one grid join of the alive nodes with the sites
        # (_balls) instead of one pass over every alive node per event.
        ball, region, dirty, halo = self._balls(alive_idx, sites_list, groups)
        limit = self.resync_fraction * alive_idx.size
        for gi, group in enumerate(groups):
            lead = reports[group[0]]
            for idx in group[1:]:
                reports[idx].coalesced = True
            lead.dirty_nodes = int(region[gi])
            # The resync escalation is keyed to *per-event* dirty
            # balls, exactly like the per-event path: coalescing k
            # overlapping events must never escalate an epoch that
            # none of the k events would have escalated on its own
            # (merged-component checks were measured to force rebuilds
            # 6x slower than the local repair they preempted).  The
            # first region holding an oversized ball rebuilds and ends
            # the epoch; the leads of the regions after it keep no count.
            if (ball[group] > limit).any():
                self._rebuild_spanner()
                lead.resync = True
                for later in groups[gi + 1:]:
                    for idx in later:
                        reports[idx].coalesced = True
                return
        # One repair pass over the union of all component balls.  For
        # disjoint components this is verdict-for-verdict identical to
        # repairing them one at a time (candidates and detour balls
        # are cutoff-local, so components cannot interact), but every
        # per-region fixed cost -- the edge-store scans, the sort, the
        # settlement passes -- is paid once per epoch instead of once
        # per component.
        epoch_lead = reports[groups[0][0]]
        self._repair_region(dirty, epoch_lead)
        self._certify(halo, epoch_lead)

    def _balls(
        self,
        alive_idx: np.ndarray,
        sites_list: list[list[np.ndarray]],
        groups: list[list[int]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The epoch's dirty balls and halos, from one grid join of the
        alive nodes ``alive_idx`` with every site of the epoch.

        Returns ``(ball, region, dirty, halo)``: for each event and for
        each region of ``groups``, the count of alive nodes within
        ``dirty_radius`` of its nearest site; and the ids, ascending, of
        the alive nodes within ``dirty_radius`` and within
        ``dirty_radius + t`` of any site.

        Only node-site pairs in neighbouring cells of width
        ``dirty_radius + t`` (:func:`~repro.arrayops.cell_neighbour_pairs`)
        are measured, with the kernel of a pass over every alive node
        (``coords - site``, einsum, sqrt), so each distance is bitwise
        the one that pass computes and the inclusive ``<=`` compares
        decide alike.  The alive nodes go first: the join sorts their
        cells once and looks up the few cells of each site.  A move has
        two sites, so a node near both counts once for its event.
        """
        coords = np.take(self._coords, alive_idx, axis=0)
        pts = np.array([site for sites in sites_list for site in sites])
        owner = np.repeat(
            np.arange(len(sites_list), dtype=np.int64),
            [len(sites) for sites in sites_list],
        )
        halo_radius = self.dirty_radius + self.params.t
        near, event, in_ball = [], [], []
        for a, b in cell_neighbour_pairs(coords, pts, halo_radius):
            # np.take gathers these narrow rows ~10x faster than indexing.
            diff = np.take(coords, a, axis=0) - np.take(pts, b, axis=0)
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            close = dist <= halo_radius
            near.append(a[close])
            event.append(owner[b[close]])
            in_ball.append(dist[close] <= self.dirty_radius)
        near, event, in_ball = map(np.concatenate, (near, event, in_ball))
        m = alive_idx.size
        halo_mask = np.zeros(m, dtype=bool)
        halo_mask[near] = True
        # One key per (event, node) pair in a ball, then per (region,
        # node) pair.
        keys = sorted_unique(event[in_ball] * m + near[in_ball])
        ball = np.bincount(keys // m, minlength=len(sites_list))
        label = np.empty(len(sites_list), dtype=np.int64)
        for gi, group in enumerate(groups):
            label[group] = gi
        keys = sorted_unique(label[keys // m] * m + keys % m)
        region = np.bincount(keys // m, minlength=len(groups))
        dirty_mask = np.zeros(m, dtype=bool)
        dirty_mask[keys % m] = True
        return ball, region, alive_idx[dirty_mask], alive_idx[halo_mask]

    def _span_add(
        self, x: int, y: int, length: float, report: RepairReport
    ) -> None:
        self.spanner.add_edge(x, y, length)
        report.added_edges += 1

    def _span_remove(self, a: int, b: int, report: RepairReport) -> None:
        self.spanner.remove_edge(a, b)
        self._log_edges.append((a, b))
        report.removed_edges += 1

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
        ``np.lexsort`` and handed to :meth:`_answer` whole, with the
        :meth:`_settled` mask taken at region entry: the candidates
        whose epoch-start spanner path the change log leaves standing,
        and then those a spanner path of two or three edges joins within
        ``t * |xy|``.  Promotion only adds spanner edges, so either path
        still stands when the pass reaches the pair.

        The prune is a batch of the touching spanner edges in
        descending ``(w, u, v)`` order, handed to :meth:`_prune` with a
        keep mask taken once at prune entry: an edge whose
        :func:`~repro.graphs.paths.detour_lower_bounds` bound exceeds
        ``t1 * w`` (with ``_REGION_SLACK``'s relative slack for
        rounding) has no ``t1``-detour, and the prune's removals only
        lengthen detours, so it stays without a search.
        """
        t = self.params.t
        t1 = self.params.t1
        tp0 = perf_counter()
        candidates = self._touching_edges(self.graph, dirty, spanner_gap=True)
        order = np.lexsort((candidates.v, candidates.u, candidates.w))
        candidates = candidates.take(order)
        settled = self._settled(candidates, t * candidates.w)
        self._answer(candidates, settled, report)
        report.promotion_s += perf_counter() - tp0

        tr0 = perf_counter()
        touching = self._touching_edges(self.spanner, dirty)
        order = np.lexsort((touching.v, touching.u, touching.w))[::-1]
        prune = touching.take(order)
        bound = detour_lower_bounds(
            self.spanner, self._coords, prune.u, prune.v
        )
        kept = bound > t1 * prune.w * (1.0 + _REGION_SLACK)
        self._prune(prune, kept, report)
        report.redundancy_s += perf_counter() - tr0

    def _certify(self, halo: np.ndarray, report: RepairReport) -> None:
        """Certification sweep: re-certify every base edge whose
        t-certificate could have crossed a dirty ball this epoch;
        re-add the violated ones directly.  This is the correctness
        backstop that keeps the t-spanner invariant unconditional.

        The suspects :meth:`_settled` settles hold their certificate;
        each of the rest gets one target-directed
        :func:`dijkstra_distance` search within ``t * |xy|``, every
        verdict taken on the spanner as the prune left it, before any
        re-addition.  The batched :func:`pair_distances` pays a fixed
        cost (a probe ball and sixteen distance bands) larger than the
        few dozen searches an epoch leaves."""
        tc0 = perf_counter()
        t = self.params.t
        suspects = self._touching_edges(self.graph, halo, spanner_gap=True)
        suspects = suspects.take(~self._settled(suspects, t * suspects.w))
        broken = [
            (x, y, length)
            for x, y, length in zip(*(a.tolist() for a in suspects))
            if dijkstra_distance(self.spanner, x, y, cutoff=t * length)
            > t * length
        ]
        for x, y, length in broken:
            self._span_add(x, y, length, report)
        report.certification_s += perf_counter() - tc0

    def _settled(self, pairs: EdgeArrays, limits: np.ndarray) -> np.ndarray:
        """Which base edges of ``pairs`` a search would find joined by
        the spanner within ``limits``, decided without one: the
        :meth:`_untouched` log test first, then
        :func:`~repro.graphs.paths.three_hop_within` on the rest."""
        settled = self._untouched(pairs, limits)
        rest = np.flatnonzero(~settled)
        settled[rest] = three_hop_within(
            self.spanner, pairs.u[rest], pairs.v[rest], limits[rest]
        )
        return settled

    def _untouched(self, pairs: EdgeArrays, limits: np.ndarray) -> np.ndarray:
        """Which base edges of ``pairs`` keep a spanner path within
        ``limits`` that the epoch's change log leaves standing.

        Only a pair neither of whose endpoints the epoch wrote
        qualifies: its edge and weight are then those of the epoch
        start, where the spanner joined it within ``limits`` (the
        invariant :meth:`verify` checks, met with no slack).  Spanner
        weights are Euclidean lengths, so every edge of that path lies
        in the ellipse ``|xp| + |pq| + |qy| <= t * |xy|`` at epoch-start
        positions, and only a logged edge can break the path: the pair
        is untouched when none enters the ellipse
        (:func:`~repro.graphs.paths.untouched_ellipses`, with
        ``_REGION_SLACK``'s relative slack for rounding).
        """
        start = self._log_coords
        written = np.zeros(self.capacity, dtype=bool)
        written[np.fromiter(self._log_nodes, dtype=np.int64)] = True
        keep = np.flatnonzero(~(written[pairs.u] | written[pairs.v]))
        log = np.array(self._log_edges, dtype=np.int64).reshape(-1, 2)
        out = np.zeros(pairs.w.size, dtype=bool)
        out[keep] = untouched_ellipses(
            start,
            log[:, 0],
            log[:, 1],
            pairs.u[keep],
            pairs.v[keep],
            limits[keep] * (1.0 + _REGION_SLACK),
        )
        return out

    def _answer(
        self, queries: EdgeArrays, settled: np.ndarray, report: RepairReport
    ) -> None:
        """Step-iv re-answering: one scalar cutoff-Dijkstra per query
        left open, in batch order, each answer visible to the next.

        ``settled`` is the :meth:`_settled` mask aligned with
        ``queries``; a settled query is answered "covered" without a
        search.  The scalar search is target-directed: it stops the
        moment the partner vertex settles, typically after exploring a
        ball of radius ~sp(x, y) rather than the full cutoff.  One
        batched :func:`pair_distances` sweep over every query would pay
        a fixed cost (sixteen distance bands plus the dense-or-sparse
        probe) larger than the few dozen scalar searches an epoch
        leaves."""
        t = self.params.t
        queries = queries.take(~settled)
        for x, y, length in zip(*(a.tolist() for a in queries)):
            d = dijkstra_distance(self.spanner, x, y, cutoff=t * length)
            if d > t * length:
                self._span_add(x, y, length, report)

    def _prune(
        self, prune: EdgeArrays, kept: np.ndarray, report: RepairReport
    ) -> None:
        """Step-v re-verdicts: one scalar detour search per edge not
        ``kept``, in batch order, removing the edge iff a
        ``t1``-alternative survives; each removal is visible to the
        next search and goes into the change log.

        ``kept`` is the keep-bound mask aligned with ``prune``; a kept
        edge stays without a search.  :func:`detour_distance` answers
        without mutating the spanner, so the survivors -- most of the
        searched edges too -- cost no remove/re-add pair (and no CSR
        rebuild for the next batched kernel)."""
        t1 = self.params.t1
        prune = prune.take(~kept)
        for a, b, w in zip(*(arr.tolist() for arr in prune)):
            if detour_distance(self.spanner, a, b, cutoff=t1 * w) <= t1 * w:
                self._span_remove(a, b, report)

    def _touching_edges(
        self, graph: Graph, region: np.ndarray, *, spanner_gap: bool = False
    ) -> EdgeArrays:
        """Edges of ``graph`` with an endpoint in ``region`` as one batch
        with ``u < v``, in the edge store's deterministic order.  With
        ``spanner_gap`` only edges absent from the maintained spanner
        survive (the promotion / certification candidate filter): one
        key lookup per selected edge among the spanner CSR's sorted
        entries (:func:`~repro.graphs.graph.csr_find`), a matrix the
        three-edge pass that follows reads anyway."""
        edges = graph.edges_arrays()
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[region] = True
        edges = edges.take(mask[edges.u] | mask[edges.v])
        if spanner_gap:
            found = csr_find(self.spanner.csr(), edges.u, edges.v)
            edges = edges.take(found < 0)
        return edges


def _incident(
    graph: Graph, nodes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of ``graph`` with an end in ``nodes``, each once, as
    ``u < v`` ascending by ``(u, v)``: O(degree) work per node."""
    n = graph.num_vertices
    u = np.repeat(
        np.asarray(nodes, dtype=np.int64), [graph.degree(a) for a in nodes]
    )
    v = np.fromiter(
        itertools.chain.from_iterable(graph.neighbors(a) for a in nodes),
        dtype=np.int64,
        count=u.size,
    )
    keys = sorted_unique(np.minimum(u, v) * n + np.maximum(u, v))
    return keys // n, keys % n


def _position(pos: object, dim: int) -> tuple[float, ...] | None:
    """``pos`` as ``dim`` floats, or ``None`` unless it is a flat
    sequence of ``dim`` finite real numbers."""
    try:
        arr = np.asarray(pos)
    except (TypeError, ValueError):  # a ragged sequence, say
        return None
    if arr.shape != (dim,) or arr.dtype.kind not in "biuf":
        return None
    out = tuple(float(c) for c in arr.tolist())
    return out if all(math.isfinite(c) for c in out) else None
