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
order, the distributed one a Luby protocol run.  All three read the
phase's additions as one :class:`~repro.graphs.graph.EdgeArrays` batch
in the query orientation step iv left them in, and answer in indices
into it: the pairs are index pairs, the conflict-graph nodes index the
batch and the removals are a boolean mask over it.

The pair search never enumerates all ``k^2`` pairs of the phase's
``k`` additions.  Both conditions of a pairing add an ``sp_H`` term
between the two edges' endpoints, so only endpoints within ``t1 * W_i``
of each other in ``H`` can make a pair redundant; the search reads
those finite endpoint distances and tests only the pairs they reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..arrayops import run_expand, sorted_find
from ..exceptions import GraphError
from ..graphs.graph import EdgeArrays, Graph
from ..graphs.paths import pair_distance_entries
from .cluster_graph import ClusterGraph

__all__ = [
    "RedundancyOutcome",
    "find_redundant_pairs",
    "conflict_graph_arrays",
    "remove_unchosen",
    "remove_redundant_edges",
]


@dataclass(frozen=True)
class RedundancyOutcome:
    """Result of one phase's redundancy elimination.

    Attributes
    ----------
    removed:
        Boolean mask over the phase's additions: the edges deleted.
        The rest are kept (MIS members and unimplicated edges).
    num_pairs:
        Number of mutually redundant pairs found.
    """

    removed: np.ndarray
    num_pairs: int


def _by_endpoint(
    ends: np.ndarray, num_ends: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group edge indices by endpoint index: the edges whose endpoint is
    ``p`` are ``order[starts[p]:starts[p + 1]]``, ascending."""
    order = np.argsort(ends, kind="stable")
    starts = np.searchsorted(ends[order], np.arange(num_ends + 1))
    return order, starts


def _pairs_through(
    p: np.ndarray,
    q: np.ndarray,
    first: tuple[np.ndarray, np.ndarray],
    second: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` with edge ``i``'s ``first`` endpoint at ``p[e]``
    and edge ``j``'s ``second`` endpoint at ``q[e]``, for some entry
    ``e``: the cartesian product of the two groups, per entry."""
    order_i, starts_i = first
    order_j, starts_j = second
    ni = starts_i[p + 1] - starts_i[p]
    nj = starts_j[q + 1] - starts_j[q]
    sizes = ni * nj
    keep = sizes > 0
    p, q, nj, sizes = p[keep], q[keep], nj[keep], sizes[keep]
    if sizes.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    entry = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    within = run_expand(np.zeros(sizes.size, dtype=np.int64), sizes)
    step_j = nj[entry]
    i = order_i[starts_i[p][entry] + within // step_j]
    j = order_j[starts_j[q][entry] + within % step_j]
    return i, j


def find_redundant_pairs(
    added: EdgeArrays,
    cluster_graph: ClusterGraph,
    t1: float,
    *,
    w_cur: float,
) -> tuple[np.ndarray, np.ndarray]:
    """All mutually redundant pairs among this phase's added edges, as
    index arrays ``(i, j)`` into the ``added`` batch.

    Every condition of a pair ``(i, j)`` adds the ``sp_H`` distance
    between an endpoint of edge ``i`` and one of edge ``j``, so a pair
    can only be redundant where those distances are within the cutoff
    ``t1 * W_i``.  One :func:`~repro.graphs.paths.pair_distance_entries`
    call returns just those finite endpoint distances; each entry
    ``(p, q)`` expands to the pairs ``(i, j)``, ``i < j``, whose first
    term ``sp_H(u_i, u_j)`` or ``sp_H(u_i, v_j)`` it is, and only those
    candidates look up their second term and test both pairings of
    the Section 2.2.5 conditions.  Every other pair has an infinite
    first term under both pairings and fails both tests.  The equivalence
    suite pins the result bit-identical, in order, to a per-pair scalar
    reference: the same float expressions in the same evaluation order,
    ``sp_H(a, b)`` always read from ``a``'s row, pairs listed ``(i, j)``,
    ``i < j``, row-major.

    Parameters
    ----------
    added:
        The batch of edges added in the current phase (all lengths in
        ``(W_{i-1}, W_i]``).
    cluster_graph:
        The frozen ``H_{i-1}`` used for the phase's queries.
    t1:
        Redundancy stretch, ``1 < t1 < t``.
    w_cur:
        Current bin boundary ``W_i``; redundancy conditions can only hold
        when ``sp_H`` terms are at most ``t1 * W_i``, so the searches are
        cut off there.
    """
    if t1 <= 1.0:
        raise GraphError(f"t1 must be > 1, got {t1}")
    us, vs, w = added
    k = w.size
    if k == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    endpoints, inverse = np.unique(
        np.concatenate([us, vs]), return_inverse=True
    )
    iu, iv = inverse[:k], inverse[k:]
    e = np.int64(endpoints.size)
    row, col, dist = pair_distance_entries(
        cluster_graph, endpoints, endpoints, cutoff=t1 * w_cur
    )
    keys = row * e + col  # sorted: entries come row-major

    def sp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sp_H(endpoints[a], endpoints[b])`` from ``a``'s row."""
        pos = sorted_find(keys, a * e + b)
        found = pos >= 0
        out = np.full(pos.size, np.inf)
        out[found] = dist[pos[found]]
        return out

    by_u = _by_endpoint(iu, endpoints.size)
    by_v = _by_endpoint(iv, endpoints.size)
    # Candidates: s1 = sp(u_i, u_j) finite (pairing (u, x), (v, y)) or
    # s1 = sp(u_i, v_j) finite (pairing (u, y), (v, x)).
    ia, ja = _pairs_through(row, col, by_u, by_u)
    ib, jb = _pairs_through(row, col, by_u, by_v)
    cand = np.concatenate([ia * k + ja, ib * k + jb])
    cand = np.unique(cand[np.concatenate([ia < ja, ib < jb])])
    i, j = cand // k, cand % k
    w_i, w_j = w[i], w[j]
    s1, s2 = sp(iu[i], iu[j]), sp(iv[i], iv[j])
    red = (s1 + w_j + s2 <= t1 * w_i) & (s1 + w_i + s2 <= t1 * w_j)
    # Pairing (u, y), (v, x) -- the d_J minimum over both pairings.
    s1, s2 = sp(iu[i], iv[j]), sp(iv[i], iu[j])
    red |= (s1 + w_j + s2 <= t1 * w_i) & (s1 + w_i + s2 <= t1 * w_j)
    return i[red], j[red]


def conflict_graph_arrays(
    added: EdgeArrays, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conflict graph ``J`` as CSR arrays over the implicated edges.

    ``(i, j)`` are redundant pairs as indices into ``added`` (what
    :func:`find_redundant_pairs` returns).  Nodes are the implicated
    edges in ascending ``(min, max)`` endpoint order, the order the
    greedy MIS scans and the Luby runs number nodes by.

    Returns ``(nodes, indptr, indices)``: node ``q`` is the added edge
    ``nodes[q]`` and ``(indptr, indices)`` is the symmetric loop-free
    adjacency over nodes ``0..len(nodes)-1``.
    """
    lo = np.minimum(added.u, added.v)
    hi = np.maximum(added.u, added.v)
    implicated = np.unique(np.concatenate([i, j]))
    nodes = implicated[np.lexsort((hi[implicated], lo[implicated]))]
    node_of = np.empty(lo.size, dtype=np.int64)
    node_of[nodes] = np.arange(nodes.size)
    a, b = node_of[i], node_of[j]
    k = np.int64(nodes.size)
    arcs = np.unique(np.concatenate([a * k + b, b * k + a]))
    indptr = np.searchsorted(arcs, np.arange(k + 1, dtype=np.int64) * k)
    return nodes, indptr, arcs % k


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
    added: EdgeArrays,
    nodes: np.ndarray,
    chosen: Iterable[int],
) -> np.ndarray:
    """Delete every implicated edge outside the MIS ``chosen``.

    ``nodes`` are the conflict-graph nodes
    :func:`conflict_graph_arrays` returns and ``chosen`` holds node
    indices into them.  Mutates ``spanner``, removing edges in ``added``
    order, and returns the removals as a boolean mask over ``added``.
    """
    removed = np.zeros(added.w.size, dtype=bool)
    removed[nodes] = True
    removed[nodes[np.fromiter(chosen, np.int64)]] = False
    for x, y in zip(added.u[removed].tolist(), added.v[removed].tolist()):
        spanner.remove_edge(x, y)
    return removed


def remove_redundant_edges(
    spanner: Graph,
    added: EdgeArrays,
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
    i, j = find_redundant_pairs(added, cluster_graph, t1, w_cur=w_cur)
    nodes, indptr, indices = conflict_graph_arrays(added, i, j)
    removed = remove_unchosen(
        spanner, added, nodes, _greedy_mis(indptr, indices)
    )
    return RedundancyOutcome(removed=removed, num_pairs=int(i.size))
