"""Cluster covers (Section 2.2.1).

A *cluster cover* of a graph ``J`` with radius ``rho`` is a set of clusters
``{C_{u_1}, C_{u_2}, ...}`` such that every cluster has shortest-path
radius at most ``rho`` around its center, every vertex belongs to a
cluster, and any two centers are more than ``rho`` apart in shortest-path
distance.  Phase ``i`` of the relaxed greedy algorithm covers the current
partial spanner ``G'_{i-1}`` with radius ``delta * W_{i-1}``.

A :class:`ClusterCover` holds it vertex by vertex, as the paper defines
it: each vertex's center and its distance to that center, as two
``(n,)`` arrays.  Two constructions are provided:

* :func:`build_cluster_cover` -- the paper's sequential ball-growing
  (repeatedly Dijkstra from an uncovered vertex);
* :func:`cover_from_centers` -- assignment given externally chosen centers
  (the distributed algorithm obtains centers as an MIS of the proximity
  graph ``J`` and attaches every other node to its highest-id center
  within range, Section 3.2.1).

Both search only from the vertices :func:`short_edge_mask` marks: a
ball of radius ``rho`` crosses no longer edge, so every other vertex is
its own center at distance 0 (and an isolated node of ``J``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import GraphError
from ..graphs.graph import Graph
from ..graphs.paths import dijkstra, multi_source_ball_lists

__all__ = [
    "ClusterCover",
    "build_cluster_cover",
    "build_cluster_cover_reference",
    "cover_from_centers",
    "short_edge_mask",
]


@dataclass(frozen=True, eq=False)
class ClusterCover:
    """A cluster cover of some graph, held vertex by vertex.

    Attributes
    ----------
    radius:
        Cover radius ``rho``.
    centers:
        Cluster centers, in construction order.
    center:
        Read-only ``(n,)`` array: the center of the one cluster each
        vertex belongs to (the definition permits overlap; uniqueness is
        what both the selection step and the cluster graph need), ``-1``
        outside the covered universe.
    dist:
        Read-only ``(n,)`` array: ``sp(center[v], v)`` within the
        covered graph, at most ``radius``; ``inf`` outside the universe.
    """

    radius: float
    centers: tuple[int, ...]
    center: np.ndarray
    dist: np.ndarray

    def __post_init__(self) -> None:
        # Read-only views: nothing writes to a cover through it.
        center = np.asarray(self.center, dtype=np.int64).view()
        dist = np.asarray(self.dist, dtype=np.float64).view()
        if center.ndim != 1 or center.shape != dist.shape:
            raise GraphError("center and dist must be aligned (n,) arrays")
        center.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dist", dist)

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the cover."""
        return len(self.centers)

    def center_of(self, v: int) -> int:
        """Center of the cluster that vertex ``v`` belongs to."""
        c = int(self.center[v]) if 0 <= v < self.center.size else -1
        if c < 0:
            raise GraphError(f"vertex {v} is not covered")
        return c


def short_edge_mask(graph: Graph, radius: float) -> np.ndarray:
    """``(n,)`` mask of the vertices touching an edge no longer than
    ``radius`` -- the only vertices within ``radius`` of another."""
    eu, ev, ew = graph.edges_arrays()
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[eu[ew <= radius]] = True
    mask[ev[ew <= radius]] = True
    return mask


def build_cluster_cover(
    graph: Graph,
    radius: float,
    *,
    vertices: Iterable[int] | None = None,
    order: Sequence[int] | None = None,
) -> ClusterCover:
    """Sequential ball-growing cluster cover (Section 2.2.1).

    Repeatedly: pick the first uncovered vertex (in ``order``, default by
    id), run Dijkstra from it on ``graph`` with cutoff ``radius``, and
    claim every still-uncovered vertex reached.  Centers are only ever
    chosen among uncovered vertices, which yields the required
    ``sp(center_i, center_j) > radius`` separation.

    Only the vertices :func:`short_edge_mask` marks can share a cluster,
    so :func:`build_cluster_cover_reference` grows balls from those
    alone, in their relative ``order``; every other universe vertex the
    scan reaches is its own center at distance 0, set with array
    operations.  Centers (in scan order), center and distance arrays
    equal the reference's on the whole universe, errors included.

    Parameters
    ----------
    graph:
        The graph to cover (the partial spanner ``G'_{i-1}`` in phase i).
    radius:
        Cover radius ``rho = delta * W_{i-1}``; must be >= 0.
    vertices:
        Subset to cover (default: every vertex of ``graph``).  Balls
        still grow through vertices outside it.
    order:
        Explicit center-candidate order, for deterministic experiments.
    """
    if radius < 0.0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    n = graph.num_vertices
    universe = (
        np.arange(n, dtype=np.int64)
        if vertices is None
        else np.fromiter(vertices, np.int64)
    )
    if universe.size and (universe.min() < 0 or universe.max() >= n):
        raise GraphError(f"universe vertices must lie in [0, {n})")
    todo = universe
    if order is not None:
        todo = np.asarray(order, dtype=np.int64)
        # Nothing outside the universe is ever claimed, so the scan
        # stops at the first such entry of the order.
        outside = ~np.isin(todo, universe)
        if outside.any():
            bad = int(todo[np.argmax(outside)])
            raise GraphError(
                f"order contains vertex {bad} outside the universe"
            )
    grows = np.zeros(n, dtype=bool)
    grows[universe] = True
    grows &= short_edge_mask(graph, radius)
    sub = build_cluster_cover_reference(
        graph, radius, vertices=np.flatnonzero(grows).tolist(),
        order=todo[grows[todo]].tolist(),
    )
    center, dist = sub.center.copy(), sub.dist.copy()
    alone = todo[~grows[todo]]
    center[alone] = alone
    dist[alone] = 0.0
    missing = np.unique(universe[center[universe] < 0])[:5]
    if missing.size:
        raise GraphError(f"vertices never covered: {missing.tolist()} ...")
    # A center is chosen at its first position in the scan.
    firsts, first_pos = np.unique(todo, return_index=True)
    is_center = center[firsts] == firsts
    centers = firsts[is_center][np.argsort(first_pos[is_center])]
    return ClusterCover(radius, tuple(centers.tolist()), center, dist)


def build_cluster_cover_reference(
    graph: Graph,
    radius: float,
    *,
    vertices: Iterable[int] | None = None,
    order: Sequence[int] | None = None,
) -> ClusterCover:
    """Scalar ball growing over the whole universe (one dict Dijkstra
    per center).

    The kernel :func:`build_cluster_cover` runs on the short-edge
    vertices, and the semantic anchor it is pinned against.
    """
    if radius < 0.0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    universe = list(vertices) if vertices is not None else list(graph.vertices())
    todo = order if order is not None else universe
    universe_set = set(universe)
    centers: list[int] = []
    assignment: dict[int, int] = {}
    distance: dict[int, float] = {}
    for u in todo:
        if u in assignment:
            continue
        if u not in universe_set:
            raise GraphError(f"order contains vertex {u} outside the universe")
        centers.append(u)
        for v, d in dijkstra(graph, u, cutoff=radius).items():
            if v in universe_set and v not in assignment:
                assignment[v] = u
                distance[v] = d
    missing = universe_set - assignment.keys()
    if missing:  # an order that skips a vertex never claims it
        raise GraphError(f"vertices never covered: {sorted(missing)[:5]} ...")
    center = np.full(graph.num_vertices, -1, dtype=np.int64)
    dist = np.full(graph.num_vertices, np.inf)
    # Both dicts were filled together, so their values align.
    claimed = np.fromiter(assignment, np.int64, len(assignment))
    center[claimed] = np.fromiter(assignment.values(), np.int64, claimed.size)
    dist[claimed] = np.fromiter(distance.values(), np.float64, claimed.size)
    return ClusterCover(radius, tuple(centers), center, dist)


def cover_from_centers(
    graph: Graph,
    radius: float,
    centers: np.ndarray | Iterable[int],
    *,
    vertices: Iterable[int] | None = None,
) -> ClusterCover:
    """Cover with externally chosen centers (distributed MIS path).

    Every non-center vertex attaches to the **highest-id** center within
    shortest-path distance ``radius`` (mirroring Section 3.2.1: "each node
    v attaches itself to the neighbor in I with the highest identifier").
    Only centers :func:`short_edge_mask` marks reach another vertex, so
    only they are searched from, in one frontier-sharing search.
    ``centers`` is an index array (what the distributed build passes:
    the MIS mask's nonzero positions) or any iterable of vertex ids.

    Raises
    ------
    GraphError
        If some vertex has no center within ``radius`` -- i.e. ``centers``
        is not a dominating set of the proximity graph, meaning the MIS
        that produced it was not maximal.
    """
    if radius < 0.0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    n = graph.num_vertices
    in_universe = np.ones(n, dtype=bool)
    if vertices is not None:
        universe = np.fromiter(vertices, np.int64)
        if universe.size and (universe.min() < 0 or universe.max() >= n):
            raise GraphError(f"universe vertices must lie in [0, {n})")
        in_universe[:] = False
        in_universe[universe] = True
    center_arr = (
        centers.astype(np.int64, copy=False)
        if isinstance(centers, np.ndarray)
        else np.fromiter(centers, np.int64)
    )
    if center_arr.size and (
        center_arr.min() < 0
        or center_arr.max() >= n
        or not in_universe[center_arr].all()
    ):
        raise GraphError("centers must lie inside the covered universe")
    is_center = np.zeros(n, dtype=bool)
    is_center[center_arr] = True
    center_arr = np.flatnonzero(is_center)
    searched = np.flatnonzero(is_center & short_edge_mask(graph, radius))
    starts, ball_v, ball_d = multi_source_ball_lists(graph, searched, radius)
    src = np.repeat(np.arange(searched.size, dtype=np.int64), np.diff(starts))
    keep = in_universe[ball_v]
    src, ball_v, ball_d = src[keep], ball_v[keep], ball_d[keep]
    # Highest-id claim per vertex: searched centers ascend, so the last
    # slot of each vertex's run is its highest-id center.
    order = np.lexsort((src, ball_v))
    src, ball_v, ball_d = src[order], ball_v[order], ball_d[order]
    last = np.ones(ball_v.size, dtype=bool)
    last[:-1] = ball_v[1:] != ball_v[:-1]
    center = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    center[ball_v[last]] = searched[src[last]]
    dist[ball_v[last]] = ball_d[last]
    # Centers always belong to their own cluster, the unsearched ones
    # alone.
    center[center_arr] = center_arr
    dist[center_arr] = 0.0
    missing = np.flatnonzero(in_universe & (center < 0))
    if missing.size:
        raise GraphError(
            f"{missing.size} vertices beyond radius {radius} of every center "
            f"(e.g. {missing[:5].tolist()}); centers do not dominate"
        )
    return ClusterCover(radius, tuple(center_arr.tolist()), center, dist)
