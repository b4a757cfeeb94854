"""All-scalar references for churn repair's step iv and certification.

:class:`repro.core.maintenance.MaintenanceSession` settles the pairs a
two-edge spanner path already joins within ``t * |xy|`` without a
search (:func:`repro.graphs.paths.two_hop_within`).  These are the
forms that search every pair: each promotion query runs one scalar
cutoff-Dijkstra and every certification suspect goes to
:func:`repro.graphs.paths.pair_distances`.  :func:`search_every_pair`
installs them on one session, so a replay can compare it with an
unpatched twin event by event; :func:`touching_edges_reference` is the
per-pair ``has_edge`` form of the spanner-gap filter.
"""

from __future__ import annotations

import types
from time import perf_counter

import numpy as np

from repro.graphs.graph import EdgeArrays
from repro.graphs.paths import dijkstra_distance, pair_distances


def answer_every_query(session, queries, settled, report) -> None:
    """Step-iv re-answering that ignores ``settled``: one scalar
    cutoff-Dijkstra per query, in batch order, each answer visible to
    the next."""
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


def search_every_pair(session):
    """Install both references on ``session`` (this instance only)."""
    session._answer = types.MethodType(answer_every_query, session)
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
