"""Shortest-path search primitives.

The relaxed greedy algorithm issues two kinds of path queries:

* full single-source Dijkstra (cluster-cover construction, Section 2.2.1);
* *bounded* Dijkstra with a distance cutoff -- most queries only need to
  know whether some path of length ``<= t * |xy|`` exists, so the search
  may stop as soon as the frontier passes the cutoff (this is the lazy
  early-exit that makes the sequential algorithm fast).

The distributed algorithm's hop-bounded gathering (Theorem 9 / Section
3) is the flooding protocol of :mod:`repro.distributed.protocols.flooding`.

The dict-based primitives remain the reference implementations for single
queries (the cluster cover grows its few non-trivial balls with
:func:`dijkstra`).  The array kernels answer whole batches of sources
over :meth:`repro.graphs.graph.Graph.csr`:

* :func:`multi_source_distances` -- dense ``(k, n)`` rows from one
  C-level :func:`scipy.sparse.csgraph.dijkstra` call; best when balls
  are wide (the O(n) row setup amortizes);
* :func:`multi_source_ball_lists` -- the sparse *frontier-sharing*
  search: every source relaxes together as one flat frontier, total
  work O(ball mass); best in the tiny-cutoff regimes that dominate the
  relaxed greedy phases;
* :func:`nearest_source_distances` -- one ``(n,)`` row of distances to
  the nearest source, the region a phase's queries can read;
* :func:`pair_distances` and :func:`pair_distance_entries` -- the pair
  forms (aligned endpoint pairs, and the finite entries of a
  sources x targets cross product) built on the first two.  Exact pair
  distances (stretch) escalate too: a doubling cutoff from the graph's
  longest edge searches only the pairs left unresolved;
* :func:`untouched_ellipses`, :func:`three_hop_within` and
  :func:`detour_lower_bounds` -- no search at all.  The first tells
  which pairs no edge of a change log comes near (so the paths that
  joined them before the change still stand), the second which pairs a
  path of two or three edges already joins within their limits; the
  third bounds each edge's detour from below by one hop plus the
  straight line to the far end.  Churn repair settles with them the
  searches whose verdict they already decide.

All of them read the same cached matrix, which the first kernel call
after a mutation rebuilds, so dense and sparse searches relax identical
float weights.  :func:`prefer_batched_sources` probes one ball to pick
the dense-vs-sparse side of that trade per call.  Steps iii-v reach it
only through the pair kernels, the covers run the sparse search alone,
and the distributed proximity graph is the one caller that picks for
itself.  A graph reaches the array kernels and the probe only through
``num_vertices`` and ``csr()``, so the step iii cluster graph, held as
a matrix alone, uses them as they are.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..arrayops import (
    cell_neighbour_pairs,
    run_expand,
    segment_min,
    sorted_find,
)
from ..exceptions import GraphError
from .components import component_labels
from .graph import Graph, csr_find

__all__ = [
    "dijkstra",
    "dijkstra_distance",
    "detour_distance",
    "multi_source_ball_lists",
    "multi_source_distances",
    "nearest_source_distances",
    "pair_distances",
    "pair_distance_entries",
    "three_hop_within",
    "untouched_ellipses",
    "detour_lower_bounds",
]

#: Soft bound on floats held by one batched distance block (rows x n).
_BLOCK_ENTRIES = 4_000_000

#: Bucket count of the delta-stepping ball kernel: the cutoff range is
#: split into this many distance bands processed in ascending order.
_BALL_BUCKETS = 16


def _check_sources(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    idx = np.asarray(sources, dtype=np.int64)
    if idx.ndim != 1:
        raise GraphError("sources must be a one-dimensional sequence")
    n = graph.num_vertices
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise GraphError(f"vertex {int(bad)} out of range [0, {n})")
    return idx


def source_block_size(graph: Graph) -> int:
    """Number of sources per batched-dijkstra block that keeps one block's
    distance matrix around :data:`_BLOCK_ENTRIES` floats (memory cap).
    """
    return max(1, _BLOCK_ENTRIES // max(1, graph.num_vertices))


def prefer_batched_sources(
    graph: Graph, sources: Sequence[int], cutoff: float
) -> bool:
    """Whether a batched C-level Dijkstra beats the sparse kernels.

    The batched kernel pays O(n) dense-output setup per source; the
    sparse kernels pay O(ball size) work per source.  Probing one ball
    from the first source puts the query on the right side of that
    trade: batched wins once balls exceed roughly n/64 vertices (the
    measured numpy-vs-Python constant gap).  The probe counts that ball
    with :func:`multi_source_ball_lists` over the CSR matrix, so it
    serves any graph the kernels serve, and discards it -- re-searching
    one small ball is noise next to the k that follow.
    """
    if len(sources) <= 1 or graph.num_vertices < 256:
        return True  # too small for the constants to matter
    starts, _, _ = multi_source_ball_lists(graph, sources[:1], cutoff)
    return int(starts[1]) * 64 >= graph.num_vertices


def multi_source_distances(
    graph: Graph,
    sources: Sequence[int],
    *,
    cutoff: float | None = None,
    unweighted: bool = False,
) -> np.ndarray:
    """Shortest-path distances from each source as a ``(k, n)`` array.

    Row ``i`` holds ``sp(sources[i], .)``; unreachable vertices (or
    vertices strictly beyond ``cutoff``) hold ``inf``.  With
    ``unweighted=True`` distances are hop counts (BFS levels) instead of
    weighted lengths.  Equivalent to ``k`` calls of :func:`dijkstra` but
    executed as one C-level batch over the cached CSR snapshot.
    """
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    idx = _check_sources(graph, sources)
    n = graph.num_vertices
    if idx.size == 0:
        return np.empty((0, n), dtype=np.float64)
    limit = np.inf if cutoff is None else float(cutoff)
    if cutoff is not None and cutoff < 0.0:
        raise GraphError(f"cutoff must be >= 0, got {cutoff}")
    mat = graph.csr()
    rows = sp_dijkstra(
        mat, directed=False, indices=idx, limit=limit, unweighted=unweighted
    )
    return rows.reshape(idx.size, n)


def nearest_source_distances(
    graph: Graph, sources: Sequence[int], *, cutoff: float
) -> np.ndarray:
    """``out[v] = min_i sp(sources[i], v)``, ``inf`` beyond ``cutoff``:
    one C-level multi-source Dijkstra (scipy's ``min_only``) whose work
    is the union of the cutoff balls, not ``k * n``."""
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    idx = _check_sources(graph, sources)
    if idx.size == 0:
        return np.full(graph.num_vertices, np.inf)
    return sp_dijkstra(
        graph.csr(), directed=False, indices=idx, limit=cutoff, min_only=True
    )


def pair_distances(
    graph: Graph,
    us: np.ndarray,
    vs: np.ndarray,
    *,
    cutoff: float | None = None,
) -> np.ndarray:
    """Shortest-path distances for aligned endpoint arrays.

    ``out[i] = sp(us[i], vs[i])`` (``inf`` when unreachable, or beyond
    ``cutoff``) -- the graph-metric analogue of a distance oracle's
    batched ``pairs`` query, and the single kernel behind query
    answering, redundancy detection and stretch certification.
    Sources group into blocked dense multi-source batches when balls
    are wide; in the tiny-ball regime the frontier-sharing sparse
    search runs instead (see :func:`prefer_batched_sources`).  Both
    branches fill identical floats.  Callers holding a structured cross
    product should use :func:`pair_distance_entries` instead of
    materializing the k x t aligned arrays here.

    Without a ``cutoff`` the distances are exact: pairs in different
    components are ``inf``, the rest are searched at the graph's longest
    edge, and each rung doubles the cutoff for the pairs still unresolved
    (at most ``n - 1`` longest edges apart, so no rung is unbounded).  A
    rung whose sources fit one dense block skips the probe.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise GraphError("endpoint arrays must be aligned one-dimensional")
    _check_sources(graph, vs)
    _check_sources(graph, us)
    if cutoff is not None:
        return _pairs_within(graph, us, vs, cutoff, rung=False)
    out = np.full(us.shape[0], np.inf)
    labels = component_labels(graph)
    pending = np.flatnonzero(labels[us] == labels[vs])
    limit = float(graph.csr().data.max(initial=0.0))
    while pending.size:
        out[pending] = _pairs_within(
            graph, us[pending], vs[pending], limit, rung=True
        )
        pending = pending[np.isinf(out[pending])]
        limit *= 2.0
    return out


def _pairs_within(
    graph: Graph, us: np.ndarray, vs: np.ndarray, cutoff: float, *, rung: bool
) -> np.ndarray:
    """:func:`pair_distances` within a finite ``cutoff``: blocked dense
    rows, or the sparse search and key lookups into its balls."""
    src = np.unique(us)
    block = source_block_size(graph)
    one_block = rung and src.size <= block
    if one_block or prefer_batched_sources(graph, src, cutoff):
        out = np.empty(us.shape[0], dtype=np.float64)
        for lo in range(0, src.size, block):
            chunk = src[lo : lo + block]
            rows = multi_source_distances(graph, chunk, cutoff=cutoff)
            sel = (us >= chunk[0]) & (us <= chunk[-1])
            out[sel] = rows[np.searchsorted(chunk, us[sel]), vs[sel]]
        return out
    # Tiny balls: sparse frontier-sharing search, then key lookups.
    starts, ball_v, ball_d = multi_source_ball_lists(graph, src, cutoff)
    n = np.int64(graph.num_vertices)
    keys = (
        np.repeat(np.arange(src.size, dtype=np.int64), np.diff(starts)) * n
        + ball_v
    )
    pos = sorted_find(keys, np.searchsorted(src, us) * n + vs)
    return np.where(pos >= 0, ball_d[pos], np.inf)


def three_hop_within(
    graph: Graph, us: np.ndarray, vs: np.ndarray, limits: np.ndarray
) -> np.ndarray:
    """Whether a path of two or three edges joins each pair within its
    limit.

    ``out[i]`` is true iff a path ``u-z-v`` or ``u-z-z'-v`` (``u, v =
    us[i], vs[i]``, with ``z != v`` and ``z' != u``) has a float weight
    sum of at most ``limits[i]``, the sum taken left to right from each
    end.  Two passes over the cached CSR, each looking edges up among
    the matrix's sorted row-major keys
    (:func:`~repro.graphs.graph.csr_find`): the row of every ``us[i]``
    expands into its neighbours ``z`` and each ``(z, vs[i])`` is looked
    up; then, for the pairs still open, ``N(u) x N(v)`` expands and each
    middle edge ``(z, z')`` is looked up, once the two outer edges alone
    fit the limit (a positive middle weight only adds to their sum).

    A true entry settles the pair for every search in this module.
    Weights are positive and float rounding is monotone, so a search
    from ``us[i]`` labels each vertex of the path at most its prefix
    sum; no relaxation exceeds ``limits[i]``, so a cutoff of at least
    the limit never prunes one, and a ``vs[i]`` settled earlier has a
    label no larger.  A search from ``vs[i]`` reads the path the other
    way, and that sum is checked too.  :func:`dijkstra_distance`, the
    sparse ball kernel's fixpoint and the dense rows therefore all
    report at most ``limits[i]`` -- on this graph and on any graph that
    keeps its edges and adds more.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    limits = np.asarray(limits, dtype=np.float64)
    if us.ndim != 1 or vs.shape != us.shape or limits.shape != us.shape:
        raise GraphError(
            "pair and limit arrays must be aligned one-dimensional"
        )
    _check_sources(graph, us)
    _check_sources(graph, vs)
    mat = graph.csr()
    indptr = mat.indptr.astype(np.int64)
    data = mat.data
    out = np.zeros(us.size, dtype=bool)
    # u-z-v: each neighbour z of u, and the edge (z, v).
    deg = indptr[us + 1] - indptr[us]
    first = run_expand(indptr[us], deg)
    pair = np.repeat(np.arange(us.size, dtype=np.int64), deg)
    second = csr_find(mat, mat.indices[first], vs[pair])
    hit = second >= 0
    pair, first, second = pair[hit], first[hit], second[hit]
    out[pair[data[first] + data[second] <= limits[pair]]] = True
    # u-z-z'-v on the open pairs: every (z, z') of N(u) x N(v).
    open_ = np.flatnonzero(~out)
    ou, ov, lim = us[open_], vs[open_], limits[open_]
    du = indptr[ou + 1] - indptr[ou]
    dv = indptr[ov + 1] - indptr[ov]
    run = np.repeat(dv, du)
    first = np.repeat(run_expand(indptr[ou], du), run)
    third = run_expand(np.repeat(indptr[ov], du), run)
    pair = np.repeat(np.arange(open_.size, dtype=np.int64), du * dv)
    z, z2 = mat.indices[first], mat.indices[third]
    keep = (
        (z != ov[pair])
        & (z2 != ou[pair])
        & (data[first] + data[third] <= lim[pair])
    )
    pair, first, third = pair[keep], first[keep], third[keep]
    middle = csr_find(mat, z[keep], z2[keep])
    hit = middle >= 0
    pair, first, middle, third = (
        pair[hit], first[hit], middle[hit], third[hit]
    )
    a, b, c = data[first], data[middle], data[third]
    within = (a + b + c <= lim[pair]) & (c + b + a <= lim[pair])
    out[open_[pair[within]]] = True
    return out


def untouched_ellipses(
    coords: np.ndarray,
    log_u: np.ndarray,
    log_v: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Whether no logged edge enters each pair's ellipse.

    ``out[i]`` is false iff some edge ``(p, q) = (log_u[j], log_v[j])``
    has ``min(|xp| + |pq| + |qy|, |xq| + |pq| + |py|) <= limits[i]``,
    with ``x, y = us[i], vs[i]``: every length is the square root of
    the squared coordinate differences of two ``coords`` rows, summed
    axis by axis, and each sum is taken left to right.  No graph is
    read.

    On a graph whose weights are the Euclidean lengths between those
    rows, every edge of a path from ``x`` to ``y`` no longer than
    ``limits[i]`` passes that test.  So where ``out[i]`` is true,
    removing or re-weighting the logged edges leaves every such path
    standing; callers widen their limits by a relative slack for the
    rounding of the path sums.

    A cell join, not a pairs x log product
    (:func:`~repro.arrayops.cell_neighbour_pairs`): each pair looks up
    the cells around its midpoint ``m`` for the logged edges whose first
    endpoint lies there, and the exact test runs on those matches only.
    A touching edge has both endpoints within ``limits[i] / 2`` of
    ``m``, since ``|pm| <= (|xp| + |py|) / 2``, so cells half the
    largest limit wide miss none.
    """
    coords = np.asarray(coords, dtype=np.float64)
    log_u = np.asarray(log_u, dtype=np.int64)
    log_v = np.asarray(log_v, dtype=np.int64)
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    limits = np.asarray(limits, dtype=np.float64)
    if us.ndim != 1 or vs.shape != us.shape or limits.shape != us.shape:
        raise GraphError(
            "pair and limit arrays must be aligned one-dimensional"
        )
    if log_u.ndim != 1 or log_v.shape != log_u.shape:
        raise GraphError("logged edge arrays must be aligned one-dimensional")
    out = np.ones(us.size, dtype=bool)
    if us.size == 0 or log_u.size == 0:
        return out
    axes = np.ascontiguousarray(coords.T)

    def dist(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        sq = np.zeros(i.size)
        for row in axes:
            diff = row[i] - row[j]
            sq += diff * diff
        return np.sqrt(sq)

    mid = 0.5 * (coords[us] + coords[vs])
    pair, edge = map(
        np.concatenate,
        zip(*cell_neighbour_pairs(mid, coords[log_u], 0.5 * limits.max())),
    )
    x, y, p, q = us[pair], vs[pair], log_u[edge], log_v[edge]
    pq = dist(p, q)
    through = np.minimum(
        dist(x, p) + pq + dist(q, y), dist(x, q) + pq + dist(p, y)
    )
    out[pair[through <= limits[pair]]] = False
    return out


def detour_lower_bounds(
    graph: Graph, coords: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """A lower bound on each edge's detour, from one hop and coordinates.

    For a graph whose every weight is the Euclidean distance between
    its endpoints' ``coords`` rows (or more), ``out[i]`` bounds the
    ``us[i]``-``vs[i]`` distance avoiding their direct edge
    (:func:`detour_distance`).  With ``a, b = us[i], vs[i]``::

        max(min over z in N(a) - {b} of w(a, z) + |zb|,
            min over z' in N(b) - {a} of w(z', b) + |az'|)

    A detour leaves ``a`` through some neighbour ``z != b`` and still
    has at least ``|zb|`` to go; it enters ``b`` the same way from the
    other end.  An endpoint with no other neighbour gives ``inf``.
    Removing edges only lengthens detours and shrinks neighbourhoods,
    so a bound taken before a run of removals holds after them.  The
    bound and the search both round their sums, so it holds within a
    relative ``1e-9``: callers compare it with that slack.

    One pass per endpoint over the cached CSR: each row expands into
    its neighbours, each adds the einsum/sqrt distance to the far
    endpoint, and :func:`~repro.arrayops.segment_min` takes the row
    minima.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.float64)
    if us.ndim != 1 or vs.shape != us.shape:
        raise GraphError("endpoint arrays must be aligned one-dimensional")
    if coords.ndim != 2 or coords.shape[0] != graph.num_vertices:
        raise GraphError(
            f"coords must hold one row per vertex ({graph.num_vertices}), "
            f"got shape {coords.shape}"
        )
    _check_sources(graph, us)
    _check_sources(graph, vs)
    mat = graph.csr()
    indptr = mat.indptr.astype(np.int64)

    def leave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        deg = indptr[a + 1] - indptr[a]
        entry = run_expand(indptr[a], deg)
        far = np.repeat(b, deg)
        z = mat.indices[entry]
        diff = coords[z] - coords[far]
        reach = mat.data[entry] + np.sqrt(np.einsum("ij,ij->i", diff, diff))
        reach[z == far] = np.inf
        bounds = np.zeros(a.size + 1, dtype=np.int64)
        np.cumsum(deg, out=bounds[1:])
        return segment_min(reach, bounds)

    return np.maximum(leave(us, vs), leave(vs, us))


def pair_distance_entries(
    graph: Graph,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The finite entries of ``D[i, j] = sp(sources[i], targets[j])``.

    The cross-product form of :func:`pair_distances`, returned as
    ``(row, col, dist)`` arrays holding only the entries within
    ``cutoff``, sorted by ``(row, col)``: every ``(i, j)`` not listed
    is beyond the cutoff or unreachable.  Dense blocked multi-source
    rows gather the target columns when balls are wide; in the
    tiny-cutoff regime the frontier-sharing sparse search maps each
    ball onto the target columns instead (O(ball mass), no per-cell
    work).  Both branches return identical arrays.  ``targets`` must be
    distinct (columns are keyed by target id); a repeated target raises
    :class:`GraphError` naming the first entry that repeats an earlier
    one.
    """
    src = np.asarray(sources, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    _check_sources(graph, tgt)
    order = np.argsort(tgt, kind="stable")
    repeats = order[1:][tgt[order[1:]] == tgt[order[:-1]]]
    if repeats.size:
        raise GraphError(
            f"targets must be distinct: vertex {int(tgt[repeats.min()])} "
            "is repeated"
        )
    if prefer_batched_sources(graph, src, cutoff):
        rows_l = [np.empty(0, dtype=np.int64)]
        cols_l = [np.empty(0, dtype=np.int64)]
        dist_l = [np.empty(0, dtype=np.float64)]
        block = source_block_size(graph)
        for lo in range(0, src.size, block):
            sub = multi_source_distances(
                graph, src[lo : lo + block], cutoff=cutoff
            )[:, tgt]
            ii, jj = np.nonzero(np.isfinite(sub))
            rows_l.append(ii + lo)
            cols_l.append(jj)
            dist_l.append(sub[ii, jj])
        return tuple(map(np.concatenate, (rows_l, cols_l, dist_l)))
    starts, ball_v, ball_d = multi_source_ball_lists(graph, src, cutoff)
    pos_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    pos_of[tgt] = np.arange(tgt.size, dtype=np.int64)
    rows_idx = np.repeat(np.arange(src.size, dtype=np.int64), np.diff(starts))
    cols = pos_of[ball_v]
    hit = cols >= 0
    rows_idx, cols, dist = rows_idx[hit], cols[hit], ball_d[hit]
    # Balls list vertices by id, the entries go by target position.
    order = np.argsort(rows_idx * np.int64(tgt.size) + cols, kind="stable")
    return rows_idx[order], cols[order], dist[order]


def _ball_search_setup(graph: Graph, sources: Sequence[int], cutoff: float):
    """Shared preamble of the sparse ball kernels: validated sources
    plus the cached CSR arrays widened to int64/float64."""
    idx = _check_sources(graph, sources)
    if cutoff < 0.0:
        raise GraphError(f"cutoff must be >= 0, got {cutoff}")
    mat = graph.csr()
    indptr = np.asarray(mat.indptr, dtype=np.int64)
    indices = np.asarray(mat.indices, dtype=np.int64)
    weights = np.asarray(mat.data, dtype=np.float64)
    return idx, indptr, indices, weights


def _relax_frontier(
    f_keys: np.ndarray,
    f_d: np.ndarray,
    n: np.int64,
    cutoff: float,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One relaxation sweep: expand every frontier ``(key, dist)`` pair
    through its CSR row, prune past the cutoff, and reduce to the
    minimum per key.  Returns sorted ``(keys, dists)``.
    """
    fv = f_keys % n
    deg = indptr[fv + 1] - indptr[fv]
    eidx = run_expand(indptr[fv], deg)
    nd = np.repeat(f_d, deg) + weights[eidx]
    nk = (f_keys - fv)[np.repeat(
        np.arange(f_keys.size, dtype=np.int64), deg
    )] + indices[eidx]
    keep = nd <= cutoff
    nk, nd = nk[keep], nd[keep]
    if nk.size == 0:
        return nk, nd
    # Minimum per (slot, vertex) among this sweep's relaxations; the
    # sort is over the sweep's candidates only, never the label table.
    order = np.argsort(nk, kind="stable")
    nk, nd = nk[order], nd[order]
    first = np.ones(nk.size, dtype=bool)
    first[1:] = nk[1:] != nk[:-1]
    nd = np.minimum.reduceat(nd, np.flatnonzero(first))
    return nk[first], nd


def multi_source_ball_lists(
    graph: Graph, sources: Sequence[int], cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse bounded multi-source search: every ball in one pass.

    The frontier-sharing kernel of the construction pipeline, run as
    *bucketed delta-stepping*: the ``[0, cutoff]`` range splits into
    :data:`_BALL_BUCKETS` distance bands processed in ascending order,
    and each band's frontier of ``(source-slot, vertex, dist)`` pairs
    relaxes over the CSR snapshot until the band drains (short edges
    re-enter the current band, longer ones land in later ones).  Total
    work is O(ball mass) like the label-correcting reference, but each
    label now settles after O(1) expansions instead of once per
    improvement, and the label table grows by *linear merges*
    (``np.insert`` at presorted positions) -- the reference's
    O(B log B) full re-sort of the table per round is gone, which is
    what the ROADMAP's construction-scaling item asked for.  Stale
    band entries (labels improved after enqueue) are dropped lazily on
    dequeue by comparing against the table.

    Converges to the exact Dijkstra fixpoint over the same float
    weights as the label-correcting reference the tests keep -- both
    take minima over the identical multiset of head-to-tail float path
    sums (positive weights make the cutoff prefix-prune lossless and
    keep band targets monotone) -- so the output is bit-identical to
    the reference, to :func:`dijkstra` and to
    :func:`multi_source_distances`; the equivalence suite pins all
    three.

    Returns
    -------
    (starts, vertices, dists)
        CSR-style segments: ``vertices[starts[i]:starts[i+1]]`` is the
        ball of ``sources[i]`` -- every vertex with ``sp(sources[i], v)
        <= cutoff`` -- sorted ascending, with aligned ``dists``.
    """
    idx, indptr, indices, weights = _ball_search_setup(graph, sources, cutoff)
    k = idx.size
    n = np.int64(graph.num_vertices)
    if k == 0:
        return (
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    best_keys = np.arange(k, dtype=np.int64) * n + idx
    best_d = np.zeros(k, dtype=np.float64)
    delta = cutoff / _BALL_BUCKETS if cutoff > 0.0 else 1.0
    pend: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(_BALL_BUCKETS)
    ]
    pend[0].append((best_keys.copy(), best_d.copy()))
    for band in range(_BALL_BUCKETS):
        while pend[band]:
            chunks, pend[band] = pend[band], []
            f_keys = np.concatenate([c[0] for c in chunks])
            f_d = np.concatenate([c[1] for c in chunks])
            # Lazy stale-drop: an entry whose label improved after it
            # was enqueued no longer matches the table and is skipped
            # (every enqueued key is already in the table, so the
            # lookup never misses).
            pos = np.searchsorted(best_keys, f_keys)
            live = best_d[pos] == f_d
            f_keys, f_d = f_keys[live], f_d[live]
            if f_keys.size == 0:
                continue
            # Dedupe same-band duplicates of one key (equal dists).
            order = np.argsort(f_keys, kind="stable")
            f_keys, f_d = f_keys[order], f_d[order]
            first = np.ones(f_keys.size, dtype=bool)
            first[1:] = f_keys[1:] != f_keys[:-1]
            f_keys, f_d = f_keys[first], f_d[first]
            nk, nd = _relax_frontier(
                f_keys, f_d, n, cutoff, indptr, indices, weights
            )
            if nk.size == 0:
                continue
            # Compare against the label table (strict improvement only).
            pos = np.searchsorted(best_keys, nk)
            in_range = pos < best_keys.size
            safe = np.where(in_range, pos, 0)
            known = in_range & (best_keys[safe] == nk)
            improved = known & (nd < best_d[safe])
            best_d[safe[improved]] = nd[improved]
            fresh = ~known
            if fresh.any():
                ins = np.searchsorted(best_keys, nk[fresh])
                best_keys = np.insert(best_keys, ins, nk[fresh])
                best_d = np.insert(best_d, ins, nd[fresh])
            out_k = np.concatenate([nk[improved], nk[fresh]])
            out_d = np.concatenate([nd[improved], nd[fresh]])
            if out_k.size == 0:
                continue
            # Positive weights keep targets monotone: nd > f_d >=
            # band * delta, so no entry lands in a drained band.
            target = np.minimum(
                (out_d / delta).astype(np.int64), _BALL_BUCKETS - 1
            )
            for b in np.flatnonzero(
                np.bincount(target, minlength=_BALL_BUCKETS)
            ).tolist():
                sel = target == b
                pend[b].append((out_k[sel], out_d[sel]))
    slots = best_keys // n
    starts = np.searchsorted(slots, np.arange(k + 1, dtype=np.int64))
    return starts, best_keys % n, best_d


def dijkstra(
    graph: Graph,
    source: int,
    *,
    cutoff: float | None = None,
    targets: set[int] | None = None,
) -> dict[int, float]:
    """Single-source shortest-path distances from ``source``.

    Parameters
    ----------
    graph:
        Graph with positive edge weights.
    source:
        Start vertex.
    cutoff:
        If given, vertices at distance strictly greater than ``cutoff``
        are not reported and the search stops once the frontier exceeds
        it.  This is the workhorse of every bounded query in the paper
        (cover radius ``delta*W``, query threshold ``t*|xy|`` ...).
    targets:
        If given, the search additionally stops once every target has been
        settled; only settled vertices are reported.

    Returns
    -------
    dict[int, float]
        Mapping ``vertex -> distance`` for every settled vertex (always
        includes ``source`` at distance 0).
    """
    graph._check_vertex(source)
    adj = graph._adj  # bound once: the loop pops thousands of times
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    remaining = set(targets) if targets is not None else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    inf = float("inf")
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u].items():
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if cutoff is not None:
        return {v: d for v, d in dist.items() if v in settled and d <= cutoff}
    return {v: d for v, d in dist.items() if v in settled}


def dijkstra_distance(
    graph: Graph, source: int, target: int, *, cutoff: float | None = None
) -> float:
    """Distance from ``source`` to ``target``.

    Returns ``inf`` when ``target`` is unreachable, or unreachable within
    ``cutoff``.  (Callers comparing against a threshold pass the threshold
    as ``cutoff`` and compare with ``<=``; an ``inf`` then simply fails
    the comparison, which is exactly the paper's query semantics.)

    This is the innermost kernel of the maintenance engine's promotion
    verdicts (a few hundred calls per churn epoch, after the
    :func:`three_hop_within` settlement), so the target-directed loop
    is inlined rather than delegating to
    :func:`dijkstra`: it returns the moment ``target`` reaches the top
    of the heap and skips the settled-dict filtering a full
    single-source call pays on exit.  Identical floats either way.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        return 0.0
    adj = graph._adj
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    inf = float("inf")
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == target:
            return d
        settled.add(u)
        for v, w in adj[u].items():
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return inf


def detour_distance(
    graph: Graph, source: int, target: int, *, cutoff: float | None = None
) -> float:
    """Distance from ``source`` to ``target`` avoiding their direct edge.

    Equals the ``source``-``target`` distance in ``G - st``: a shortest
    path through the edge ``st`` either *is* that edge or revisits an
    endpoint, so forbidding the single direct relaxation is equivalent
    to deleting the edge -- without paying the remove/re-add mutation
    (and the CSR rebuild it costs the next array kernel) on a live
    graph.  The maintenance engine's redundancy phase asks exactly this
    question for every surviving spanner edge, so the mutation-free form
    is the hot path.  Returns ``inf`` beyond ``cutoff`` or when no detour
    exists; the search is target-directed like :func:`dijkstra_distance`.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    adj = graph._adj
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    inf = float("inf")
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if u == target:
            return d
        settled.add(u)
        for v, w in adj[u].items():
            if u == source and v == target:
                continue  # the forbidden direct edge
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return inf
