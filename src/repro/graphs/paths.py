"""Shortest-path and hop-bounded search primitives.

The relaxed greedy algorithm issues three kinds of path queries:

* full single-source Dijkstra (cluster-cover construction, Section 2.2.1);
* *bounded* Dijkstra with a distance cutoff -- most queries only need to
  know whether some path of length ``<= t * |xy|`` exists, so the search
  may stop as soon as the frontier passes the cutoff (this is the lazy
  early-exit that makes the sequential algorithm fast);
* hop-bounded BFS (the distributed algorithm's "gather information from
  ``<= k`` hops away" primitive, Theorem 9 / Section 3).

The dict-based primitives remain the reference implementations for single
queries.  Three array kernels answer whole batches of sources over
:meth:`repro.graphs.graph.Graph.csr`:

* :func:`multi_source_distances` -- dense ``(k, n)`` rows from one
  C-level :func:`scipy.sparse.csgraph.dijkstra` call; best when balls
  are wide (the O(n) row setup amortizes);
* :func:`multi_source_ball_lists` -- the sparse *frontier-sharing*
  search: every source relaxes together as one flat frontier, total
  work O(ball mass); best in the tiny-cutoff regimes that dominate the
  relaxed greedy phases;
* :func:`grow_balls_in_order` -- the sequential ball-growing kernel of
  the cluster cover, batching speculative candidate balls through
  either search while committing centers in exact scan order.

All of them read the same cached matrix, which the first kernel call
after a mutation rebuilds, so dense and sparse searches relax identical
float weights.  :func:`prefer_batched_sources` probes one ball to pick
the dense-vs-sparse side of that trade per call site.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Sequence

import numpy as np

from ..arrayops import run_expand
from ..exceptions import GraphError, NotReachableError
from .graph import Graph

__all__ = [
    "dijkstra",
    "dijkstra_distance",
    "detour_distance",
    "bfs_hops",
    "k_hop_neighborhood",
    "k_hop_subgraph",
    "shortest_path_tree",
    "grow_balls_in_order",
    "multi_source_ball_lists",
    "multi_source_ball_lists_reference",
    "multi_source_distances",
    "multi_source_trees",
    "pair_distances",
    "pair_distance_matrix",
    "NO_PREDECESSOR",
]

#: Sentinel scipy's csgraph uses for "no predecessor" in tree arrays.
NO_PREDECESSOR = -9999

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
    graph: Graph, sources: Sequence[int], cutoff: float | None
) -> bool:
    """Whether a batched C-level Dijkstra beats the sparse/dict kernels.

    The batched kernel pays O(n) dense-output setup per source; the
    sparse kernels pay O(ball size) work per source.  Probing one ball
    from the first source puts the query on the right side of that
    trade: batched wins once balls exceed roughly n/64 vertices (the
    measured numpy-vs-Python constant gap), and always wins for
    unbounded queries.  The probe ball is discarded -- re-searching one
    small ball in the scalar fallback is noise next to the k that follow.
    """
    if cutoff is None:
        return True
    if len(sources) <= 1 or graph.num_vertices < 256:
        return True  # too small for the constants to matter
    ball = dijkstra(graph, sources[0], cutoff=cutoff)
    return len(ball) * 64 >= graph.num_vertices


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
    answering and redundancy detection.  Sources group into blocked
    dense multi-source batches when balls are wide; with a ``cutoff``
    in the tiny-ball regime the frontier-sharing sparse search runs
    instead (see :func:`prefer_batched_sources`).  Both branches fill
    identical floats.  Callers holding a structured cross product
    should use :func:`pair_distance_matrix` instead of materializing
    the k x t aligned arrays here.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise GraphError("endpoint arrays must be aligned one-dimensional")
    _check_sources(graph, vs)
    src = np.unique(us)
    if cutoff is None or prefer_batched_sources(graph, src, cutoff):
        out = np.empty(us.shape[0], dtype=np.float64)
        block = source_block_size(graph)
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
    want = np.searchsorted(src, us) * n + vs
    pos = np.searchsorted(keys, want)
    in_range = pos < keys.size
    safe = np.where(in_range, pos, 0)
    found = in_range & (keys[safe] == want)
    return np.where(found, ball_d[safe], np.inf)


def pair_distance_matrix(
    graph: Graph,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    cutoff: float | None = None,
) -> np.ndarray:
    """``D[i, j] = sp(sources[i], targets[j])`` within ``cutoff``.

    The cross-product form of :func:`pair_distances`: one call fills a
    whole ``(k, t)`` distance matrix (``inf`` beyond ``cutoff`` or when
    unreachable).  Dense blocked multi-source rows gather the target
    columns when balls are wide; in the tiny-cutoff regime the
    frontier-sharing sparse search scatters each ball into its row
    instead (O(ball mass), no per-cell lookups).  Both branches fill
    identical floats.  ``targets`` must not contain duplicates (the
    scatter keys columns by target id).
    """
    src = np.asarray(sources, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    _check_sources(graph, tgt)
    if cutoff is None or prefer_batched_sources(graph, src, cutoff):
        out = np.empty((src.size, tgt.size), dtype=np.float64)
        block = source_block_size(graph)
        for lo in range(0, src.size, block):
            rows = multi_source_distances(
                graph, src[lo : lo + block], cutoff=cutoff
            )
            out[lo : lo + rows.shape[0]] = rows[:, tgt]
        return out
    out = np.full((src.size, tgt.size), np.inf, dtype=np.float64)
    starts, ball_v, ball_d = multi_source_ball_lists(graph, src, cutoff)
    pos_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    pos_of[tgt] = np.arange(tgt.size, dtype=np.int64)
    rows_idx = np.repeat(np.arange(src.size, dtype=np.int64), np.diff(starts))
    cols = pos_of[ball_v]
    hit = cols >= 0
    out[rows_idx[hit], cols[hit]] = ball_d[hit]
    return out


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
    weights as :func:`multi_source_ball_lists_reference` -- both take
    minima over the identical multiset of head-to-tail float path sums
    (positive weights make the cutoff prefix-prune lossless and keep
    band targets monotone) -- so the output is bit-identical to the
    reference, to :func:`dijkstra` and to
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
            for b in np.unique(target).tolist():
                sel = target == b
                pend[b].append((out_k[sel], out_d[sel]))
    slots = best_keys // n
    starts = np.searchsorted(slots, np.arange(k + 1, dtype=np.int64))
    return starts, best_keys % n, best_d


def multi_source_ball_lists_reference(
    graph: Graph, sources: Sequence[int], cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-correcting reference of :func:`multi_source_ball_lists`.

    All ``sources`` relax together as one flat frontier (expand every
    frontier pair through its CSR row, keep improvements, repeat until
    no label improves), re-sorting the whole label table on every
    merge.  Kept as the semantic anchor the bucketed kernel is pinned
    bit-identical against.

    Converges to the exact Dijkstra fixpoint over the same float
    weights (both compute the minimum over head-to-tail float path
    sums; positive weights make the cutoff prefix-prune lossless), so
    distances are bit-identical to :func:`dijkstra` /
    :func:`multi_source_distances`.
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
    # Known labels, keyed slot * n + vertex (sorted; slots ascend).
    best_keys = np.arange(k, dtype=np.int64) * n + idx
    best_d = np.zeros(k, dtype=np.float64)
    f_keys = best_keys.copy()
    f_d = best_d.copy()
    while f_keys.size:
        nk, nd = _relax_frontier(
            f_keys, f_d, n, cutoff, indptr, indices, weights
        )
        if nk.size == 0:
            break
        # Compare against the known labels (strict improvement only).
        pos = np.searchsorted(best_keys, nk)
        in_range = pos < best_keys.size
        safe = np.where(in_range, pos, 0)
        known = in_range & (best_keys[safe] == nk)
        improved = known & (nd < best_d[safe])
        best_d[safe[improved]] = nd[improved]
        fresh = ~known
        if fresh.any():
            merged = np.concatenate([best_keys, nk[fresh]])
            merged_d = np.concatenate([best_d, nd[fresh]])
            order = np.argsort(merged, kind="stable")
            best_keys, best_d = merged[order], merged_d[order]
        f_keys = np.concatenate([nk[improved], nk[fresh]])
        f_d = np.concatenate([nd[improved], nd[fresh]])
    slots = best_keys // n
    starts = np.searchsorted(slots, np.arange(k + 1, dtype=np.int64))
    return starts, best_keys % n, best_d


def grow_balls_in_order(
    graph: Graph,
    radius: float,
    order: np.ndarray,
    *,
    universe_mask: np.ndarray | None = None,
    batch_start: int = 4,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Batched sequential ball growing (the Section 2.2.1 kernel).

    Replays the paper's sequential center selection -- scan ``order``,
    the first still-uncovered vertex becomes a center, its cutoff-
    ``radius`` Dijkstra ball claims every still-uncovered vertex --
    but grows *speculative batches* of balls at once: the next ``b``
    uncovered candidates are solved in one C-level multi-source Dijkstra
    over the CSR snapshot, then committed strictly in order (a candidate
    claimed by an earlier ball of the same batch is discarded, wasting
    only its row).  The batch width adapts to the observed speculation
    success, so the kernel degrades gracefully when balls overlap.

    Bit-for-bit equal to the scalar reference (both compute the same
    Dijkstra fixpoint over the same float weights and commit in the same
    order); the equivalence suite pins this on randomized inputs.

    Parameters
    ----------
    graph:
        Graph to grow balls in (balls expand over *all* vertices).
    radius:
        Ball cutoff; claimed vertices satisfy ``sp(center, v) <= radius``.
    order:
        Center-candidate order (duplicates allowed; covered entries are
        skipped exactly like the scalar scan).
    universe_mask:
        Optional ``(n,)`` boolean mask restricting which vertices may be
        claimed (balls still grow through non-universe vertices).  An
        uncovered ``order`` entry outside the universe raises
        :class:`GraphError`, mirroring the scalar reference.
    batch_start:
        Initial speculative batch width.

    Returns
    -------
    (centers, center_of, dist)
        ``centers`` in selection order; ``center_of[v]`` is the claiming
        center (-1 if unclaimed); ``dist[v]`` is ``sp(center_of[v], v)``
        (``inf`` if unclaimed).
    """
    n = graph.num_vertices
    order_arr = np.asarray(order, dtype=np.int64)
    if order_arr.ndim != 1:
        raise GraphError("order must be a one-dimensional sequence")
    # An order entry outside the universe is never claimable, so the
    # scalar scan always reaches and rejects the first such entry.
    invalid = (order_arr < 0) | (order_arr >= n)
    safe = np.where(invalid, 0, order_arr)
    if universe_mask is not None:
        invalid |= ~universe_mask[safe]
    if invalid.any():
        bad = int(order_arr[int(np.argmax(invalid))])
        raise GraphError(f"order contains vertex {bad} outside the universe")

    centers: list[int] = []
    center_of = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf, dtype=np.float64)
    covered = np.zeros(n, dtype=bool)
    cand_pos = np.full(n, -1, dtype=np.int64)
    # Wide balls favor the dense C-level rows, tiny balls the sparse
    # frontier-sharing search; both fill identical floats.
    dense = prefer_batched_sources(graph, order_arr.tolist(), radius)
    # Sparse searches cost O(ball mass), so speculation waste is cheap
    # and the batch can start wide; dense rows pay O(n) per candidate.
    batch = max(1, batch_start) if dense else max(batch_start, 256)
    cap = max(batch, source_block_size(graph))
    pos = 0
    total = order_arr.size
    while pos < total:
        rem = order_arr[pos:]
        cand_rel = np.flatnonzero(~covered[rem])
        if cand_rel.size == 0:
            break
        take = cand_rel[:batch]
        cand = rem[take]
        if dense:
            rows = multi_source_distances(graph, cand, cutoff=radius)
            bi, bv = np.nonzero(np.isfinite(rows))
            bd = rows[bi, bv]
        else:
            starts, bv, bd = multi_source_ball_lists(graph, cand, radius)
            bi = np.repeat(
                np.arange(cand.size, dtype=np.int64), np.diff(starts)
            )
        # Drop already-claimed vertices (balls still grew through them).
        live = ~covered[bv]
        bi, bv, bd = bi[live], bv[live], bd[live]

        # In-batch sequential center selection: candidate i is claimed
        # iff some earlier *center* j < i of this batch has i in its
        # ball.  Walk each candidate's (short) container list in order.
        cand_pos[cand] = np.arange(cand.size, dtype=np.int64)
        ci = cand_pos[bv]
        cont = (ci >= 0) & (bi < ci)
        if not cont.any():
            # No candidate lies in an earlier candidate's ball: the whole
            # batch commits as centers -- the common tiny-ball case.
            is_center = np.ones(cand.size, dtype=bool)
        else:
            cont_i, cont_j = ci[cont], bi[cont]
            order_c = np.lexsort((cont_j, cont_i))
            cont_i, cont_j = cont_i[order_c], cont_j[order_c]
            is_center = np.ones(cand.size, dtype=bool)
            # Only candidates with containers can lose; walk their
            # (short, ascending) container lists in candidate order.
            bounds = np.flatnonzero(
                np.concatenate(([True], cont_i[1:] != cont_i[:-1]))
            )
            ends = np.append(bounds[1:], cont_i.size)
            for i, lo, hi in zip(
                np.unique(cont_i).tolist(), bounds.tolist(), ends.tolist()
            ):
                for j in cont_j[lo:hi]:
                    if is_center[j]:
                        is_center[i] = False
                        break
        cand_pos[cand] = -1  # reset the scratch map
        centers.extend(cand[is_center].tolist())

        # Claims: every live ball vertex joins the *first* center (in
        # batch order) whose ball reaches it -- exactly the sequential
        # first-wins rule.
        win = is_center[bi]
        av, aj, ad = bv[win], bi[win], bd[win]
        if universe_mask is not None:
            in_u = universe_mask[av]
            av, aj, ad = av[in_u], aj[in_u], ad[in_u]
        order_a = np.lexsort((aj, av))
        av, aj, ad = av[order_a], aj[order_a], ad[order_a]
        first = np.ones(av.size, dtype=bool)
        first[1:] = av[1:] != av[:-1]
        av, aj, ad = av[first], aj[first], ad[first]
        center_of[av] = cand[aj]
        dist[av] = ad
        covered[av] = True

        pos += int(take[-1]) + 1
        # Adapt speculation width to the hit rate just observed.
        committed = int(np.count_nonzero(is_center))
        if committed == cand.size:
            batch = min(batch * 4, cap)
        elif 2 * committed < cand.size:
            batch = max(1, batch // 2)
    return centers, center_of, dist


def multi_source_trees(
    graph: Graph, sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Batched shortest-path trees: ``(dist, predecessors)`` arrays.

    Both are ``(k, n)``; ``predecessors[i, v]`` is the parent of ``v`` on
    a shortest path from ``sources[i]`` (:data:`NO_PREDECESSOR` for the
    source itself and for unreachable vertices).  Array analogue of
    :func:`shortest_path_tree` for whole batches of sources.
    """
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    idx = _check_sources(graph, sources)
    n = graph.num_vertices
    if idx.size == 0:
        return (
            np.empty((0, n), dtype=np.float64),
            np.empty((0, n), dtype=np.int32),
        )
    dist, pred = sp_dijkstra(
        graph.csr(), directed=False, indices=idx, return_predecessors=True
    )
    return dist.reshape(idx.size, n), pred.reshape(idx.size, n)


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
    verdicts (tens of thousands of calls per churn epoch), so the
    target-directed loop is inlined rather than delegating to
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


def bfs_hops(
    graph: Graph, source: int, *, max_hops: int | None = None
) -> dict[int, int]:
    """Hop counts from ``source`` via BFS.

    Parameters
    ----------
    max_hops:
        If given, exploration stops at this hop radius.

    Returns
    -------
    dict[int, int]
        ``vertex -> hops`` for every vertex within the radius.
    """
    graph._check_vertex(source)
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if max_hops is not None and hops[u] >= max_hops:
            continue
        for v in graph.neighbors(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def k_hop_neighborhood(graph: Graph, source: int, k: int) -> set[int]:
    """Vertices within ``k`` hops of ``source`` (including ``source``)."""
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    return set(bfs_hops(graph, source, max_hops=k))


def k_hop_subgraph(graph: Graph, source: int, k: int) -> Graph:
    """Subgraph induced by the ``k``-hop neighborhood of ``source``.

    This is the "local view" a node obtains after ``k`` communication
    rounds in the LOCAL model (Section 3); vertex ids are preserved.
    """
    return graph.subgraph(k_hop_neighborhood(graph, source, k))


def shortest_path_tree(
    graph: Graph, source: int, *, cutoff: float | None = None
) -> tuple[dict[int, float], dict[int, int]]:
    """Dijkstra with parent pointers.

    Returns
    -------
    (dist, parent)
        ``dist`` as in :func:`dijkstra`; ``parent`` maps each settled
        vertex (except ``source``) to its predecessor on a shortest path.
    """
    graph._check_vertex(source)
    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in graph.neighbor_items(u):
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    dist = {v: d for v, d in dist.items() if v in settled}
    parent = {v: p for v, p in parent.items() if v in dist}
    return dist, parent


def reconstruct_path(
    parent: dict[int, int], source: int, target: int
) -> list[int]:
    """Vertex sequence from ``source`` to ``target`` using ``parent``.

    Raises
    ------
    NotReachableError
        If ``target`` was not reached by the search that built ``parent``.
    """
    if target == source:
        return [source]
    if target not in parent:
        raise NotReachableError(f"no recorded path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def reconstruct_path_array(
    pred_row: np.ndarray, source: int, target: int
) -> list[int]:
    """Vertex sequence from ``source`` to ``target`` using one
    predecessor row of :func:`multi_source_trees`.

    Raises
    ------
    NotReachableError
        If ``target`` is unreachable from ``source`` in the tree.
    """
    if target == source:
        return [source]
    if int(pred_row[target]) == NO_PREDECESSOR:
        raise NotReachableError(f"no recorded path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        path.append(int(pred_row[path[-1]]))
    path.reverse()
    return path


__all__.extend(["reconstruct_path", "reconstruct_path_array"])
