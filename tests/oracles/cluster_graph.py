"""Scalar reference construction of the cluster graph (Section 2.2.3)."""

from __future__ import annotations

import numpy as np

from repro.core.cluster_graph import ClusterGraph
from repro.core.cover import ClusterCover
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import dijkstra


def as_graph(cluster_graph: ClusterGraph) -> Graph:
    """``H`` as a dict :class:`Graph`, read off its CSR matrix.

    ``H`` is held as a matrix only; tests that check edges one at a
    time or run the dict Dijkstra as a scalar reference read this
    graph instead.  Each undirected edge is taken once, from the upper
    triangle.
    """
    mat = cluster_graph.csr()
    n = cluster_graph.num_vertices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(mat.indptr))
    upper = rows < mat.indices
    graph = Graph(n)
    graph.add_weighted_edges_arrays(
        rows[upper], mat.indices[upper], mat.data[upper]
    )
    return graph


def build_cluster_graph_reference(
    spanner: Graph,
    cover: ClusterCover,
    w_prev: float,
    delta: float,
) -> ClusterGraph:
    """Scalar reference construction of ``H_{i-1}``.

    One cutoff dict-Dijkstra per center and per-pair ``add_edge`` calls
    into a dict :class:`Graph`, whose :meth:`Graph.csr` becomes the
    returned ``H``'s matrix; the semantic anchor the array assembly of
    :func:`repro.core.cluster_graph.build_cluster_graph` is pinned
    against by the equivalence suite.
    """
    if w_prev <= 0.0:
        raise GraphError(f"w_prev must be positive, got {w_prev}")
    if delta <= 0.0:
        raise GraphError(f"delta must be positive, got {delta}")
    h = Graph(spanner.num_vertices)
    num_intra = 0
    for v in np.flatnonzero(cover.center >= 0).tolist():
        center = int(cover.center[v])
        if v == center:
            continue
        d = float(cover.dist[v])
        if d > 0.0:
            h.add_edge(center, v, d)
            num_intra += 1

    crossing: set[tuple[int, int]] = set()
    longest_crossing = 0.0
    for u, v, w in spanner.edges():
        a, b = int(cover.center[u]), int(cover.center[v])
        if a < 0 or b < 0 or a == b:
            continue
        crossing.add((min(a, b), max(a, b)))
        longest_crossing = max(longest_crossing, w)

    reach = 2.0 * delta * w_prev + max(w_prev, longest_crossing)
    centers = sorted(cover.centers)
    center_set = set(centers)
    num_inter = 0
    for a in centers:
        for b, d in dijkstra(spanner, a, cutoff=reach).items():
            if b not in center_set or b <= a:
                continue  # handle each unordered pair once
            is_near = d <= w_prev  # condition (i)
            is_crossing = (a, b) in crossing  # condition (ii)
            if (is_near or is_crossing) and not h.has_edge(a, b):
                h.add_edge(a, b, d)
                num_inter += 1
    for a, b in crossing:
        if not h.has_edge(a, b):
            raise GraphError(
                f"inter-cluster edge ({a}, {b}) required by a crossing "
                f"spanner edge exceeds the Lemma 5 bound {reach:.6g}"
            )
    return ClusterGraph(
        matrix=h.csr(),
        cover=cover,
        w_prev=w_prev,
        num_intra_edges=num_intra,
        num_inter_edges=num_inter,
    )
