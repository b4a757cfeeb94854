"""All-scalar references for churn repair's dirty balls, step iv,
step v, certification and event coalescing.

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

import types
from time import perf_counter

import numpy as np

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
