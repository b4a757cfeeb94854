"""Mutually-redundant edge elimination (Section 2.2.5).

Because all queries of a phase are answered against the *frozen* cluster
graph ``H_{i-1}``, two edges added in the same phase can each certify the
other's t-spanner path.  Edges ``{u, v}`` and ``{u', v'}`` are *mutually
redundant* when both

* ``sp_H(u, u') + |u'v'| + sp_H(v', v) <= t1 * |uv|`` and
* ``sp_H(u', u) + |uv| + sp_H(v, v') <= t1 * |u'v'|``

hold (or both hold under the opposite endpoint pairing -- the metric
``d_J`` of Lemma 20 takes the minimum over the two pairings, and we follow
that).  The weight proof (Theorem 13) *requires* that no mutually
redundant pair survives, so the algorithm builds a conflict graph ``J``
with one node per implicated edge, one ``J``-edge per redundant pair,
computes an MIS ``I`` of ``J`` and deletes every implicated edge outside
``I``.  Every deleted edge keeps a surviving counterpart (MIS maximality),
preserving Theorem 10.

Both drivers share the pair search (:func:`find_redundant_pairs`), the
CSR conflict graph (:func:`conflict_graph_arrays`) and the deletion
(:func:`remove_unchosen`); they differ only in the MIS.  The sequential
driver (:func:`remove_redundant_edges`) takes the greedy MIS in node
order, the distributed one a Luby protocol run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..exceptions import GraphError
from ..graphs.graph import Graph
from .cluster_graph import ClusterGraph

__all__ = [
    "RedundancyOutcome",
    "find_redundant_pairs",
    "conflict_graph_arrays",
    "remove_unchosen",
    "remove_redundant_edges",
]

Edge = tuple[int, int, float]
EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class RedundancyOutcome:
    """Result of one phase's redundancy elimination.

    Attributes
    ----------
    removed:
        Edges deleted from the phase's additions.
    kept:
        Edges retained (MIS members and unimplicated edges).
    num_pairs:
        Number of mutually redundant pairs found.
    """

    removed: tuple[Edge, ...]
    kept: tuple[Edge, ...]
    num_pairs: int


def _edge_key(edge: Edge) -> EdgeKey:
    u, v, _ = edge
    return (u, v) if u < v else (v, u)


def _endpoint_distance_matrix(
    cluster_graph: ClusterGraph, endpoints: list[int], cutoff: float
) -> np.ndarray:
    """``D[i, j] = sp_H(endpoints[i], endpoints[j])`` within ``cutoff``.

    One :meth:`ClusterGraph.distance_matrix` call over the endpoint
    cross product -- the graph-metric batched oracle query, which picks
    dense blocked rows when the cutoff balls are wide and the sparse
    frontier-sharing scatter when they are tiny.  Entries beyond
    ``cutoff`` hold ``inf``.
    """
    ep_arr = np.asarray(endpoints, dtype=np.int64)
    return cluster_graph.distance_matrix(ep_arr, ep_arr, cutoff=cutoff)


def find_redundant_pairs(
    added: list[Edge],
    cluster_graph: ClusterGraph,
    t1: float,
    *,
    w_cur: float,
) -> list[tuple[Edge, Edge]]:
    """All mutually redundant pairs among this phase's added edges.

    The O(|added|^2) pairwise test runs as one broadcast over stacked
    endpoint distance rows: both endpoint pairings of the Section 2.2.5
    conditions are evaluated for every ordered pair at once, then the
    upper triangle is read off in ``(i, j)`` loop order.  The
    equivalence suite pins it bit-identical to a per-pair scalar
    reference (same float expressions in the same evaluation order).

    Parameters
    ----------
    added:
        Edges added in the current phase (all lengths in
        ``(W_{i-1}, W_i]``).
    cluster_graph:
        The frozen ``H_{i-1}`` used for the phase's queries.
    t1:
        Redundancy stretch, ``1 < t1 < t``.
    w_cur:
        Current bin boundary ``W_i``; redundancy conditions can only hold
        when ``sp_H`` terms are at most ``t1 * W_i``, so Dijkstra runs are
        cut off there.
    """
    if t1 <= 1.0:
        raise GraphError(f"t1 must be > 1, got {t1}")
    if not added:
        return []
    cutoff = t1 * w_cur
    endpoints = sorted({p for u, v, _ in added for p in (u, v)})
    D = _endpoint_distance_matrix(cluster_graph, endpoints, cutoff)
    index = {p: i for i, p in enumerate(endpoints)}
    iu = np.asarray([index[u] for u, _, _ in added], dtype=np.int64)
    iv = np.asarray([index[v] for _, v, _ in added], dtype=np.int64)
    w = np.asarray([length for _, _, length in added], dtype=np.float64)
    w_i, w_j = w[:, None], w[None, :]
    # Pairing (u, x), (v, y): s1 = sp_H(u, x), s2 = sp_H(v, y).
    s1 = D[iu[:, None], iu[None, :]]
    s2 = D[iv[:, None], iv[None, :]]
    red = (s1 + w_j + s2 <= t1 * w_i) & (s1 + w_i + s2 <= t1 * w_j)
    # Pairing (u, y), (v, x) -- the d_J minimum over both pairings.
    s1 = D[iu[:, None], iv[None, :]]
    s2 = D[iv[:, None], iu[None, :]]
    red |= (s1 + w_j + s2 <= t1 * w_i) & (s1 + w_i + s2 <= t1 * w_j)
    red &= np.tri(len(added), k=-1, dtype=bool).T  # strict upper triangle
    return [
        (added[i], added[j]) for i, j in np.argwhere(red).tolist()
    ]


def conflict_graph_arrays(
    pairs: Iterable[tuple[Edge, Edge]],
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conflict graph ``J`` as CSR arrays over sorted edge keys.

    Nodes are the implicated edges, arcs the redundant pairs: node ``i``
    is the ``i``-th implicated edge key in ascending ``(u, v)`` order.

    Returns ``(key_u, key_v, indptr, indices)`` where ``(key_u[i],
    key_v[i])`` is node ``i``'s edge key and ``(indptr, indices)`` is
    the symmetric loop-free adjacency over nodes ``0..k-1``.
    """
    pair_list = list(pairs)
    empty = np.empty(0, dtype=np.int64)
    if not pair_list:
        return empty, empty, np.zeros(1, dtype=np.int64), empty
    stride = np.int64(num_vertices)
    enc = np.empty((len(pair_list), 2), dtype=np.int64)
    for row, (e1, e2) in enumerate(pair_list):
        u1, v1 = _edge_key(e1)
        u2, v2 = _edge_key(e2)
        enc[row, 0] = u1 * stride + v1
        enc[row, 1] = u2 * stride + v2
    # Sorted unique keys give the node ids; lexicographic tuple order
    # and encoded-integer order agree because 0 <= u < v < stride.
    nodes = np.unique(enc)
    k = np.int64(nodes.size)
    a = np.searchsorted(nodes, enc[:, 0])
    b = np.searchsorted(nodes, enc[:, 1])
    arcs = np.unique(np.concatenate([a * k + b, b * k + a]))
    indptr = np.searchsorted(
        arcs, np.arange(nodes.size + 1, dtype=np.int64) * k
    )
    return nodes // stride, nodes % stride, indptr, arcs % k


def _greedy_mis(indptr: np.ndarray, indices: np.ndarray) -> list[int]:
    """Sequential greedy MIS over CSR rows: scan nodes in order, taking
    a node iff none of its neighbors was taken (maximal and
    independent)."""
    ptr = indptr.tolist()
    nbr = indices.tolist()
    taken = [False] * (len(ptr) - 1)
    for i in range(len(taken)):
        taken[i] = not any(taken[j] for j in nbr[ptr[i] : ptr[i + 1]])
    return [i for i, t in enumerate(taken) if t]


def remove_unchosen(
    spanner: Graph,
    added: list[Edge],
    key_u: np.ndarray,
    key_v: np.ndarray,
    chosen: Iterable[int],
) -> tuple[list[Edge], list[Edge]]:
    """Delete every implicated edge outside the MIS ``chosen``.

    ``(key_u, key_v)`` are the conflict-graph node keys
    :func:`conflict_graph_arrays` returns and ``chosen`` holds node
    indices into them.  Mutates ``spanner`` and returns the phase's
    additions split into ``(removed, kept)``, each in ``added`` order.
    """
    implicated = set(zip(key_u.tolist(), key_v.tolist()))
    keep = {(int(key_u[i]), int(key_v[i])) for i in chosen}
    removed: list[Edge] = []
    kept: list[Edge] = []
    for edge in added:
        key = _edge_key(edge)
        if key in implicated and key not in keep:
            spanner.remove_edge(edge[0], edge[1])
            removed.append(edge)
        else:
            kept.append(edge)
    return removed, kept


def remove_redundant_edges(
    spanner: Graph,
    added: list[Edge],
    cluster_graph: ClusterGraph,
    t1: float,
    *,
    w_cur: float,
) -> RedundancyOutcome:
    """Delete a greedy maximal independent set's complement from ``J``.

    Mutates ``spanner`` (removing the chosen edges) and reports the
    outcome.  The greedy scan visits implicated edges in ascending key
    order, so an edge survives iff no lower-keyed edge it conflicts
    with survives.
    """
    pairs = find_redundant_pairs(added, cluster_graph, t1, w_cur=w_cur)
    key_u, key_v, indptr, indices = conflict_graph_arrays(
        pairs, spanner.num_vertices
    )
    removed, kept = remove_unchosen(
        spanner, added, key_u, key_v, _greedy_mis(indptr, indices)
    )
    return RedundancyOutcome(
        removed=tuple(removed), kept=tuple(kept), num_pairs=len(pairs)
    )
