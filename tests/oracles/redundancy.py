"""Scalar reference of the mutually-redundant pair search (Section 2.2.5)."""

from __future__ import annotations

from typing import Callable

from oracles.cluster_graph import as_graph

from repro.core.cluster_graph import ClusterGraph
from repro.exceptions import GraphError
from repro.graphs.paths import dijkstra

Edge = tuple[int, int, float]


def distances_from(
    cluster_graph: ClusterGraph, x: int, *, cutoff: float | None = None
) -> dict[int, float]:
    """All ``sp_H(x, .)`` distances within ``cutoff``: the dict
    Dijkstra over ``H`` materialized as a :class:`Graph` (the scalar
    form of the batched kernels)."""
    return dijkstra(as_graph(cluster_graph), x, cutoff=cutoff)


def _mutually_redundant(
    e1: Edge,
    e2: Edge,
    h_dist: Callable[[int, int], float],
    t1: float,
) -> bool:
    """Check both endpoint pairings of the Section 2.2.5 conditions."""
    u, v, w1 = e1
    x, y, w2 = e2
    for p, q in (((u, x), (v, y)), ((u, y), (v, x))):
        s1 = h_dist(*p)
        s2 = h_dist(*q)
        if s1 + w2 + s2 <= t1 * w1 and s1 + w1 + s2 <= t1 * w2:
            return True
    return False


def find_redundant_pairs_reference(
    added: list[Edge],
    cluster_graph: ClusterGraph,
    t1: float,
    *,
    w_cur: float,
) -> list[tuple[Edge, Edge]]:
    """Scalar reference: per-endpoint dict rows + Python double loop.

    The semantic anchor :func:`repro.core.redundancy.find_redundant_pairs`
    is pinned against.
    """
    if t1 <= 1.0:
        raise GraphError(f"t1 must be > 1, got {t1}")
    if not added:
        return []
    cutoff = t1 * w_cur
    endpoints = sorted({p for u, v, _ in added for p in (u, v)})
    rows = {
        p: distances_from(cluster_graph, p, cutoff=cutoff) for p in endpoints
    }

    def h_dist(a: int, b: int) -> float:
        return rows[a].get(b, float("inf"))

    pairs: list[tuple[Edge, Edge]] = []
    for i, e1 in enumerate(added):
        for e2 in added[i + 1 :]:
            if _mutually_redundant(e1, e2, h_dist, t1):
                pairs.append((e1, e2))
    return pairs
