"""Query-edge selection (Section 2.2.2, equation (1)).

Every candidate edge of bin ``E_i`` has its endpoints in *different*
clusters (the cover radius ``delta*W_{i-1}`` is smaller than every edge in
the bin).  For each unordered cluster pair ``(C_a, C_b)`` exactly one
query edge is selected from ``E_i[C_a, C_b]``: the edge ``{x, y}``
(``x in C_a``, ``y in C_b``) minimizing

    ``t*|xy| - sp_{G'}(a, x) - sp_{G'}(b, y)``        (1)

If the selected edge ends up with a t-spanner path, inequality chains in
Theorem 10's proof guarantee t-spanner paths for every other edge of the
pair, so one query per cluster pair suffices.  Lemma 4 bounds the number
of selected edges incident on any cluster by a constant.

The candidates come in as one :class:`~repro.graphs.graph.EdgeArrays`
batch and the queries leave as another, in ascending cluster-pair order
and oriented ``x in C_a``: steps iv and v read them in that orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphError
from ..graphs.graph import EdgeArrays
from .cover import ClusterCover

__all__ = ["QuerySelection", "select_query_edges"]


@dataclass(frozen=True)
class QuerySelection:
    """Outcome of query-edge selection for one phase.

    Attributes
    ----------
    queries:
        The query edges as one ``(x, y, length)`` batch, one per
        cluster pair ``(C_a, C_b)``, ``a < b``, in ascending ``(a, b)``
        order, oriented so that ``x in C_a`` and ``y in C_b``.
    num_candidates:
        Candidate edges examined.
    max_queries_per_cluster:
        Largest number of selected query edges touching one cluster --
        the quantity Lemma 4 bounds by ``O(t^d ((4*delta + r)/delta)^d)``.
    """

    queries: EdgeArrays
    num_candidates: int
    max_queries_per_cluster: int


def select_query_edges(
    candidates: EdgeArrays,
    cover: ClusterCover,
    t: float,
) -> QuerySelection:
    """Pick the minimizer of equation (1) for each cluster pair.

    One array pass over the candidates: each score is evaluated as
    ``t*|xy| - d(x) - d(y)``, in that order, and each cluster pair keeps
    its least ``(score, x, y, length)``.

    Parameters
    ----------
    candidates:
        Candidate (non-covered) edges of the current bin, as one
        ``(u, v, length)`` batch in either orientation.
    cover:
        The phase's cluster cover; every candidate endpoint must be
        covered, and no candidate may have both endpoints in one cluster.
    t:
        Stretch parameter of equation (1).

    Raises
    ------
    GraphError
        If a candidate endpoint is not covered (the error names it), or
        a candidate has both endpoints in the same cluster, which would
        mean the cover radius does not match the bin (a violation of the
        ``delta < 1`` invariant from Section 2.2.2).
    """
    if t < 1.0:
        raise GraphError(f"t must be >= 1, got {t}")
    u, v, length = candidates
    k = length.size
    if k == 0:
        return QuerySelection(
            queries=candidates, num_candidates=0, max_queries_per_cluster=0
        )
    # Each endpoint's center, -1 when it is out of range or uncovered.
    ends = np.concatenate([u, v])
    inside = (ends >= 0) & (ends < cover.center.size)
    ab = np.full(2 * k, -1, dtype=np.int64)
    ab[inside] = cover.center[ends[inside]]
    a, b = ab[:k], ab[k:]
    bad = (a < 0) | (b < 0) | (a == b)
    if bad.any():
        i = int(np.argmax(bad))
        x, y = int(u[i]), int(v[i])
        cover.center_of(x)  # an uncovered endpoint raises, named
        cover.center_of(y)
        raise GraphError(
            f"candidate edge ({x}, {y}) has both endpoints in cluster "
            f"{int(a[i])}; cover radius {cover.radius:.6g} is too large for "
            f"this bin (edge length {float(length[i]):.6g})"
        )
    # Normalize the pair key and keep (x, y) aligned so x in C_a.
    swap = a > b
    x, y = np.where(swap, v, u), np.where(swap, u, v)
    a, b = np.minimum(a, b), np.maximum(a, b)
    score = t * length - cover.dist[x] - cover.dist[y]
    # Per cluster pair, the least (score, x, y, length): the first of
    # its run in this order is the deterministic minimizer, and the
    # winners come out in ascending (a, b) order.
    order = np.lexsort((length, y, x, score, b, a))
    a, b = a[order], b[order]
    first = np.ones(k, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    win = order[first]
    return QuerySelection(
        queries=EdgeArrays(x[win], y[win], length[win]),
        num_candidates=k,
        max_queries_per_cluster=int(
            np.bincount(np.concatenate([a[first], b[first]])).max()
        ),
    )
