"""Minimum spanning trees (well, forests).

Theorem 13's lightness guarantee is relative to ``w(MST(G))``; every weight
experiment needs an MST baseline.  :func:`kruskal_mst` builds the forest
itself; :func:`mst_weight` -- the quantity every lightness measurement
actually needs -- runs as an array kernel over the CSR snapshot (all
minimum spanning forests share one total weight, so no tie-breaking
convention is involved).

On a disconnected graph both functions work on the minimum spanning
*forest*, which is the right comparison object since any spanner of a
disconnected graph is disconnected the same way.
"""

from __future__ import annotations

from .graph import Graph
from .unionfind import UnionFind

__all__ = ["kruskal_mst", "mst_weight"]


def kruskal_mst(graph: Graph) -> Graph:
    """Minimum spanning forest via Kruskal's algorithm.

    Ties are broken by edge ``(u, v)`` ids so output is deterministic.
    """
    forest = Graph(graph.num_vertices)
    dsu = UnionFind(graph.num_vertices)
    for w, u, v in sorted((w, u, v) for u, v, w in graph.edges()):
        if dsu.union(u, v):
            forest.add_edge(u, v, w)
    return forest


def mst_weight(graph: Graph) -> float:
    """Total weight of a minimum spanning forest of ``graph``.

    Computed with :func:`scipy.sparse.csgraph.minimum_spanning_tree` over
    the cached CSR snapshot; :func:`kruskal_mst` is the reference the
    equivalence tests pin this against.
    """
    if graph.num_edges == 0:
        return 0.0
    from scipy.sparse.csgraph import minimum_spanning_tree

    return float(minimum_spanning_tree(graph.csr()).sum())
