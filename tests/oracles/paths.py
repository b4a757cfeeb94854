"""Path references: the label-correcting bounded multi-source ball
search, and hop-count BFS for the hop-bounded protocol and analysis
checks."""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import _ball_search_setup, _relax_frontier


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
