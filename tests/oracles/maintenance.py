"""All-scalar references for churn repair's step iv, step v,
certification and event coalescing.

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
to :func:`repro.graphs.paths.pair_distances`.  :func:`search_every_pair`
installs them on one session, so a replay can compare it with an
unpatched twin event by event; :func:`touching_edges_reference` is the
per-pair ``has_edge`` form of the spanner-gap filter, and
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


def search_every_pair(session):
    """Install the three references on ``session`` (this instance
    only)."""
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
