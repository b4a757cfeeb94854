"""All-scalar references for churn repair's base patching, dirty
balls, step iv, step v, certification and event coalescing.

:class:`repro.core.maintenance.MaintenanceSession` stages an epoch's
events and then patches its base graph and spanner once, from one grid
join of the epoch's targets.  :func:`patch_each_event` installs the
per-event writers that patch replaced: a dict-of-sets unit grid of the
alive nodes (``_cells``), each event's base edges from the grid cells
around its target (``_near``, ``_target_edges``) and one
``Graph.add_edge``/``remove_edge`` call per edge as the event is
applied (``_do_insert``, ``_do_delete``, ``_do_move``), each move
checking the node's spanner edges at that event's positions.  A twin
with them must end every epoch with the session's base graph, spanner,
reports and counters.  It keeps the older rule for a gray-zone policy
that raises mid-epoch: the events before the raising one are repaired
and recorded.

:class:`repro.core.maintenance.MaintenanceSession` settles without a
search the pairs whose epoch-start spanner path the epoch's change log
leaves untouched (:func:`repro.graphs.paths.untouched_ellipses`) and
those a spanner path of two or three edges already joins within ``t *
|xy|`` (:func:`repro.graphs.paths.three_hop_within`); it keeps without a
search the prune edges whose Euclidean detour bound exceeds ``t1 * w``
(:func:`repro.graphs.paths.detour_lower_bounds`), and it searches each
certification suspect left open with one target-directed
:func:`repro.graphs.paths.dijkstra_distance`.  These are the forms that
search every pair: each promotion query runs one scalar cutoff-Dijkstra,
each prune edge one detour search, and every certification suspect goes
to :func:`repro.graphs.paths.pair_distances`.  It finds the dirty balls
and halos with one grid join of the alive nodes and the epoch's sites;
:func:`repair_epoch_full_pass` measures every alive node against each
event's sites instead, and :func:`balls_full_pass` is that pass in the
join's output form.  :func:`search_every_pair` installs the full pass
and the three searches on one session, so a replay can compare it with
an unpatched twin event by event; :func:`touching_edges_reference` is
the per-pair ``has_edge`` form of the spanner-gap filter, and
:func:`coalesce_reference` the dense all-pairs form of the event
coalescing.
"""

from __future__ import annotations

import itertools
import math
import types
from time import perf_counter

import numpy as np

from repro.core.maintenance import RepairReport
from repro.exceptions import GraphError
from repro.geometry import PointSet
from repro.graphs.build import _policy_mask
from repro.graphs.graph import EdgeArrays
from repro.graphs.paths import (
    detour_distance,
    dijkstra_distance,
    pair_distances,
)


def answer_every_query(session, queries, settled, report) -> None:
    """Step-iv re-answering that ignores the ``settled`` mask: one
    scalar cutoff-Dijkstra per query, in batch order, each answer
    visible to the next."""
    t = session.params.t
    for x, y, length in zip(*(a.tolist() for a in queries)):
        d = dijkstra_distance(session.spanner, x, y, cutoff=t * length)
        if d > t * length:
            session._span_add(x, y, length, report)


def certify_every_suspect(session, halo, report) -> None:
    """Certification sweep that searches every suspect base edge."""
    tc0 = perf_counter()
    t = session.params.t
    suspects = session._touching_edges(session.graph, halo, spanner_gap=True)
    if suspects.w.size:
        sp = pair_distances(
            session.spanner, suspects.u, suspects.v, cutoff=t
        )
        for x, y, length in zip(
            *(a.tolist() for a in suspects.take(sp > t * suspects.w))
        ):
            session._span_add(x, y, length, report)
    report.certification_s += perf_counter() - tc0


def prune_every_edge(session, prune, kept, report) -> None:
    """Step-v re-verdicts that ignore the ``kept`` mask: one detour
    search per prune edge, in batch order, each removal visible to the
    next search."""
    t1 = session.params.t1
    for a, b, w in zip(*(arr.tolist() for arr in prune)):
        if detour_distance(session.spanner, a, b, cutoff=t1 * w) <= t1 * w:
            session._span_remove(a, b, report)


def site_distances(coords, sites) -> np.ndarray:
    """Euclidean distance from each row of ``coords`` to the nearest of
    ``sites``: one pass over every row per site."""
    best = np.full(coords.shape[0], np.inf)
    for site in sites:
        diff = coords - site
        np.minimum(best, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=best)
    return best


def balls_full_pass(session, alive_idx, sites_list, groups):
    """:meth:`MaintenanceSession._balls` from one :func:`site_distances`
    row per event: ``(ball, region, dirty, halo)``."""
    coords = session._coords[alive_idx]
    rows = [site_distances(coords, sites) for sites in sites_list]
    radius = session.dirty_radius
    ball = np.array([np.count_nonzero(row <= radius) for row in rows])
    region = np.array(
        [
            np.count_nonzero(np.min([rows[i] for i in group], axis=0) <= radius)
            for group in groups
        ]
    )
    nearest = np.min(rows, axis=0)
    halo_radius = radius + session.params.t
    return (
        ball,
        region,
        alive_idx[nearest <= radius],
        alive_idx[nearest <= halo_radius],
    )


def repair_epoch_full_pass(session, reports, sites_list) -> None:
    """``MaintenanceSession._repair_epoch`` with one full pass over the
    alive nodes per event: each event's distance row is counted for its
    own ball (the resync check), then folded into its region's minimum;
    the regions are taken in order, and the first with an oversized
    ball sets its lead's count, rebuilds and ends the epoch."""
    alive_idx = np.flatnonzero(session._alive)
    if alive_idx.size == 0:
        return
    groups = session._coalesce(sites_list)
    epoch_lead = reports[groups[0][0]]
    n = session.graph.num_vertices
    dirty_mask = np.zeros(n, dtype=bool)
    halo_mask = np.zeros(n, dtype=bool)
    halo_radius = session.dirty_radius + session.params.t
    coords = session._coords[alive_idx]
    limit = session.resync_fraction * alive_idx.size
    for gi, group in enumerate(groups):
        lead = reports[group[0]]
        for idx in group[1:]:
            reports[idx].coalesced = True
        d_site = np.full(alive_idx.size, np.inf)
        oversized = False
        for idx in group:
            row = site_distances(coords, sites_list[idx])
            if np.count_nonzero(row <= session.dirty_radius) > limit:
                oversized = True
            np.minimum(d_site, row, out=d_site)
        dirty = alive_idx[d_site <= session.dirty_radius]
        lead.dirty_nodes = int(dirty.size)
        if oversized:
            session._rebuild_spanner()
            lead.resync = True
            for later in groups[gi + 1:]:
                for idx in later:
                    reports[idx].coalesced = True
            return
        dirty_mask[dirty] = True
        halo_mask[alive_idx[d_site <= halo_radius]] = True
    session._repair_region(np.flatnonzero(dirty_mask), epoch_lead)
    session._certify(np.flatnonzero(halo_mask), epoch_lead)


def search_every_pair(session):
    """Install the full-pass balls and the three searching references
    on ``session`` (this instance only)."""
    session._repair_epoch = types.MethodType(repair_epoch_full_pass, session)
    session._answer = types.MethodType(answer_every_query, session)
    session._prune = types.MethodType(prune_every_edge, session)
    session._certify = types.MethodType(certify_every_suspect, session)
    return session


def touching_edges_reference(session, graph, region) -> EdgeArrays:
    """Edges of ``graph`` touching ``region`` that the session's spanner
    lacks, in the edge store's order: one ``has_edge`` probe per edge."""
    edges = graph.edges_arrays()
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[region] = True
    edges = edges.take(mask[edges.u] | mask[edges.v])
    has = session.spanner.has_edge
    gap = [
        not has(a, b) for a, b in zip(edges.u.tolist(), edges.v.tolist())
    ]
    return edges.take(np.array(gap, dtype=bool))


def coalesce_reference(session, sites_list) -> list[list[int]]:
    """:meth:`MaintenanceSession._coalesce` over every pair of sites: an
    ``S x S x d`` difference tensor, the same squared-distance compare
    against ``(2 * dirty_radius) ** 2``, and a union-find whose roots are
    the smallest event index of each region."""
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

    thresh_sq = (2.0 * session.dirty_radius) ** 2
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


def _cell_key(pos) -> tuple[int, ...]:
    return tuple(int(math.floor(c)) for c in pos)


def _cell_add(session, node: int) -> None:
    key = _cell_key(session._coords[node])
    session._cells.setdefault(key, set()).add(node)


def _cell_remove(session, node: int) -> None:
    key = _cell_key(session._coords[node])
    bucket = session._cells.get(key)
    if bucket is not None:
        bucket.discard(node)
        if not bucket:
            del session._cells[key]


def _near(session, pos, exclude: int):
    """Alive nodes other than ``exclude`` within 1 of ``pos``, ascending
    by id, with distances: the unit cells around ``pos`` and the
    squared-compare + einsum kernel of
    :meth:`GridIndex.pairs_within_arrays`."""
    base = _cell_key(pos)
    ids: list[int] = []
    for off in itertools.product((-1, 0, 1), repeat=session._dim):
        bucket = session._cells.get(tuple(c + o for c, o in zip(base, off)))
        if bucket:
            ids.extend(bucket)
    ids = sorted(i for i in ids if i != exclude)
    if not ids:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cand = np.asarray(ids, dtype=np.int64)
    diff = session._coords[cand] - np.asarray(pos, dtype=np.float64)
    dist_sq = np.einsum("ij,ij->i", diff, diff)
    keep = dist_sq <= 1.0
    return cand[keep], np.sqrt(dist_sq[keep])


def _target_edges(session, node: int, pos):
    """The base edges ``node`` gets at ``pos``: neighbour ids and
    weights.  Rejects a target an alive node occupies; gray pairs ask
    the policy on global ids, with the stored positions and ``node`` at
    ``pos``.  Runs before the event writes anything."""
    cand, dist = _near(session, pos, exclude=node)
    same = cand[dist == 0.0]
    if same.size:
        raise GraphError(
            f"node {node} at {tuple(float(c) for c in pos)} would "
            f"coincide with alive node(s) {same.tolist()}"
        )
    keep = dist <= session._alpha
    gray = ~keep
    if gray.any():
        if node == session.capacity:
            coords = np.vstack([session._coords, [pos]])
        else:
            coords = session._coords.copy()
            coords[node] = pos
        gu = np.minimum(node, cand[gray])
        gv = np.maximum(node, cand[gray])
        keep[gray] = _policy_mask(
            session._policy, PointSet(coords), gu, gv, dist[gray]
        )
    return cand[keep], dist[keep]


def _log_node(session, node: int) -> None:
    session._log_nodes.add(node)
    session._log_edges.extend(
        (node, v) for v in session.spanner.neighbors(node)
    )


def _set_position(session, node: int, pos) -> None:
    """Store ``node`` at ``pos``; the epoch's first write copies the
    change log's epoch-start array."""
    if session._coords is session._log_coords:
        session._coords = session._coords.copy()
    session._coords[node] = pos
    session._pts_cache = None


def _do_insert(session, node: int, pos, nbrs, ws):
    if node == session.capacity:
        session._coords = np.vstack([session._coords, [pos]])
        session._alive = np.append(session._alive, False)
        session.graph.add_vertices(1)
        session.spanner.add_vertices(1)
        session._pts_cache = None
    elif pos is not None:
        _set_position(session, node, pos)
    session._alive[node] = True
    session._log_nodes.add(node)
    for v, w in zip(nbrs.tolist(), ws.tolist()):
        session.graph.add_edge(node, v, w)
    _cell_add(session, node)
    return [session._coords[node].copy()]


def _do_delete(session, node: int):
    site = session._coords[node].copy()
    _log_node(session, node)
    for v in list(session.spanner.neighbors(node)):
        session.spanner.remove_edge(node, v)
    for v in list(session.graph.neighbors(node)):
        session.graph.remove_edge(node, v)
    _cell_remove(session, node)
    session._alive[node] = False
    return [site]


def _do_move(session, node: int, pos, nbrs, ws):
    old = session._coords[node].copy()
    _log_node(session, node)
    _cell_remove(session, node)
    _set_position(session, node, pos)
    new_edges = dict(zip(nbrs.tolist(), ws.tolist()))
    for v in list(session.graph.neighbors(node)):
        if v not in new_edges:
            session.graph.remove_edge(node, v)
            if session.spanner.has_edge(node, v):
                session.spanner.remove_edge(node, v)
    for v, w in new_edges.items():
        session.graph.add_edge(node, v, w)
        if session.spanner.has_edge(node, v):
            # Persisting spanner edge: refresh its length.
            session.spanner.add_edge(node, v, w)
    _cell_add(session, node)
    return [old, session._coords[node].copy()]


def apply_epoch_per_event(session, events):
    """``MaintenanceSession.apply_epoch`` with every event written to
    the base graph and spanner as it comes up, one edge at a time."""
    events = list(events)
    if not events:
        return []
    positions = session._check_epoch(events)
    t0 = perf_counter()
    session._log_reset()
    reports: list[RepairReport] = []
    sites_list: list = []
    for event, pos in zip(events, positions):
        node = session.capacity if event.node is None else int(event.node)
        if event.kind == "delete":
            sites = _do_delete(session, node)
        else:
            target = session._coords[node] if pos is None else pos
            try:
                nbrs, ws = _target_edges(session, node, target)
            except GraphError:  # occupied target, or a policy refused
                session._close_epoch(reports, sites_list, t0)
                raise
            if event.kind == "insert":
                sites = _do_insert(session, node, pos, nbrs, ws)
            else:
                sites = _do_move(session, node, pos, nbrs, ws)
        reports.append(RepairReport(kind=event.kind, node=node, time=event.time))
        sites_list.append(sites)
    session._close_epoch(reports, sites_list, t0)
    return reports


def patch_each_event(session):
    """Install the per-event writers and their unit grid of the alive
    nodes on ``session`` (this instance only)."""
    session._cells = {}
    for node in np.flatnonzero(session._alive).tolist():
        _cell_add(session, node)
    session.apply_epoch = types.MethodType(apply_epoch_per_event, session)
    return session
