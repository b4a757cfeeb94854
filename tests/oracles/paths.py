"""Path references: the label-correcting bounded multi-source ball
search, the dense-row exact pair distances stretch was measured with
before the escalating pair kernel, hop-count BFS for the hop-bounded
protocol and analysis checks, and the per-pair definitions of the three
settlement kernels churn repair uses."""

from __future__ import annotations

from collections import deque
from typing import Sequence

import math

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.exceptions import GraphError
from repro.graphs.analysis import StretchReport
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    _ball_search_setup,
    _relax_frontier,
    source_block_size,
)


def multi_source_ball_lists_reference(
    graph: Graph, sources: Sequence[int], cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-correcting reference of
    :func:`repro.graphs.paths.multi_source_ball_lists`.

    All ``sources`` relax together as one flat frontier (expand every
    frontier pair through its CSR row, keep improvements, repeat until
    no label improves), re-sorting the whole label table on every
    merge.  Kept as the semantic anchor the bucketed kernel is pinned
    bit-identical against.

    Converges to the exact Dijkstra fixpoint over the same float
    weights (both compute the minimum over head-to-tail float path
    sums; positive weights make the cutoff prefix-prune lossless), so
    distances are bit-identical to ``dijkstra`` /
    ``multi_source_distances``.
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


def edge_shortest_paths_reference(
    graph: Graph, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> np.ndarray:
    """Dense-row reference of :func:`repro.graphs.paths.pair_distances`
    without a cutoff: ``sp(us[i], vs[i])`` for every pair.

    Cross-component pairs are ``inf`` from the component labels; the
    rest are resolved by blocked multi-source Dijkstra rows of ``n``
    floats with a distance limit starting at 4x ``ws.max()`` and
    growing 4x per round, the last round unbounded.  ``ws`` only sets
    the first limit: the distances are exact for any ``ws``.
    """
    mat = graph.csr()
    n = graph.num_vertices
    sp = np.full(us.shape[0], np.inf)
    if n == 0 or us.shape[0] == 0:
        return sp
    _, labels = connected_components(mat, directed=False)
    unresolved = labels[us] == labels[vs]
    if not unresolved.any():
        return sp
    block = source_block_size(graph)
    limit = 4.0 * float(ws.max())
    while unresolved.any():
        pending = np.flatnonzero(unresolved)
        sources = np.unique(us[pending])
        if limit >= n * float(ws.max()):
            limit = np.inf  # final escalation: nothing can be farther
        for lo in range(0, sources.size, block):
            src = sources[lo : lo + block]
            rows = sp_dijkstra(mat, directed=False, indices=src, limit=limit)
            rows = rows.reshape(src.size, n)
            take = pending[np.isin(us[pending], src)]
            sp[take] = rows[np.searchsorted(src, us[take]), vs[take]]
        unresolved[pending] = ~np.isfinite(sp[pending])
        if not math.isfinite(limit):
            break
        limit *= 4.0
    return sp


def stretch_report_reference(base: Graph, spanner: Graph) -> StretchReport:
    """:func:`repro.graphs.analysis.measure_stretch` on the distances of
    :func:`edge_shortest_paths_reference`."""
    us, vs, ws = base.edges_arrays()
    if us.size == 0:
        return StretchReport(1.0, 1.0, None, 0)
    ratios = edge_shortest_paths_reference(spanner, us, vs, ws) / ws
    worst = int(np.argmax(ratios))
    return StretchReport(
        max_stretch=float(ratios[worst]),
        mean_stretch=float(ratios.mean()),
        worst_edge=(int(us[worst]), int(vs[worst])),
        num_edges_checked=int(us.size),
    )


def bfs_hops(
    graph: Graph, source: int, *, max_hops: int | None = None
) -> dict[int, int]:
    """``vertex -> hops`` from ``source`` for every vertex within
    ``max_hops`` (every reachable vertex when it is ``None``)."""
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
    """Vertices within ``k`` hops of ``source``, ``source`` included: the
    ball a node learns in ``k`` LOCAL-model rounds."""
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    return set(bfs_hops(graph, source, max_hops=k))


def short_path_sums(graph: Graph, u: int, v: int) -> list[tuple]:
    """The float sums :func:`repro.graphs.paths.three_hop_within` reads
    for one pair, one tuple per path: ``(w(u, z) + w(z, v),)`` for each
    path ``u-z-v``, and for each path ``u-z-z'-v`` (``z != v``,
    ``z' != u``) its sums taken left to right from ``u`` and from
    ``v``."""
    paths = []
    for z, a in graph.neighbor_items(u):
        if z == v:
            continue
        if graph.has_edge(z, v):
            paths.append((a + graph.weight(z, v),))
        for z2, b in graph.neighbor_items(z):
            if z2 != u and graph.has_edge(z2, v):
                c = graph.weight(z2, v)
                paths.append((a + b + c, c + b + a))
    return paths


def three_hop_reference(graph: Graph, us, vs, limits) -> np.ndarray:
    """:func:`repro.graphs.paths.three_hop_within` by definition: some
    path of :func:`short_path_sums` has every one of its sums within
    the limit."""
    return np.array(
        [
            any(
                max(sums) <= limit
                for sums in short_path_sums(graph, int(u), int(v))
            )
            for u, v, limit in zip(us, vs, limits)
        ],
        dtype=bool,
    )


def detour_bound_reference(graph: Graph, coords, a: int, b: int) -> float:
    """:func:`repro.graphs.paths.detour_lower_bounds` of one pair, by its
    formula: the larger of ``min w(a, z) + |zb|`` over ``z in N(a) - {b}``
    and ``min w(z', b) + |az'|`` over ``z' in N(b) - {a}``."""
    def leave(x: int, y: int) -> float:
        return min(
            (
                w + math.dist(coords[z], coords[y])
                for z, w in graph.neighbor_items(x)
                if z != y
            ),
            default=math.inf,
        )

    return max(leave(a, b), leave(b, a))


def ellipse_sums(coords, log_u, log_v, us, vs) -> np.ndarray:
    """The ``(pairs, log)`` matrix of ``min(|xp| + |pq| + |qy|, |xq| +
    |pq| + |py|)`` that :func:`repro.graphs.paths.untouched_ellipses`
    compares with each pair's limit, by brute force over every pair and
    every logged edge, in the kernel's arithmetic: squared coordinate
    differences summed axis by axis, then the square root, and each
    ellipse sum taken left to right."""
    coords = np.asarray(coords, dtype=np.float64)
    x = np.asarray(us, dtype=np.int64)[:, None]
    y = np.asarray(vs, dtype=np.int64)[:, None]
    p = np.asarray(log_u, dtype=np.int64)[None, :]
    q = np.asarray(log_v, dtype=np.int64)[None, :]

    def dist(a, b):
        sq = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for axis in range(coords.shape[1]):
            diff = coords[a, axis] - coords[b, axis]
            sq += diff * diff
        return np.sqrt(sq)

    pq = dist(p, q)
    return np.minimum(
        dist(x, p) + pq + dist(q, y), dist(x, q) + pq + dist(p, y)
    )


def untouched_reference(coords, log_u, log_v, us, vs, limits) -> np.ndarray:
    """:func:`repro.graphs.paths.untouched_ellipses` by definition: no
    logged edge has an :func:`ellipse_sums` entry within the pair's
    limit."""
    sums = ellipse_sums(coords, log_u, log_v, us, vs)
    limits = np.asarray(limits, dtype=np.float64)
    return ~(sums <= limits[:, None]).any(axis=1)
