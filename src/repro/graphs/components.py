"""Connected components.

Phase 0 of the relaxed greedy algorithm (Section 2.1) partitions the
short-edge graph ``G_0`` into connected components; Lemma 1 guarantees each
component induces a clique in ``G``.  The components are computed as
array kernels (union-find labels over the CSR snapshot), with the output
contract of the original BFS implementation preserved exactly.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["connected_components", "component_labels"]


def component_labels(graph: Graph) -> np.ndarray:
    """Component label per vertex as an int array.

    Labels are renumbered so that label ``k`` is the component containing
    the ``k``-th smallest "first vertex" -- the order BFS-from-lowest-id
    discovery would produce.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    from scipy.sparse.csgraph import connected_components as cc

    _, raw = cc(graph.csr(), directed=False)
    # Renumber by first occurrence so labels match discovery order.
    _, first = np.unique(raw, return_index=True)
    order = np.empty(first.size, dtype=np.int64)
    order[np.argsort(first)] = np.arange(first.size)
    return order[raw]


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, largest-first.

    Isolated vertices form singleton components.  Ties in size keep
    discovery order (increasing smallest member), matching the reference
    BFS implementation.
    """
    labels = component_labels(graph)
    if labels.size == 0:
        return []
    counts = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    comps = [
        members[bounds[k] : bounds[k + 1]].tolist()
        for k in range(counts.size)
    ]
    comps.sort(key=len, reverse=True)
    return comps
