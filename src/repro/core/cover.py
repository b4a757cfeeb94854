"""Cluster covers (Section 2.2.1).

A *cluster cover* of a graph ``J`` with radius ``rho`` is a set of clusters
``{C_{u_1}, C_{u_2}, ...}`` such that every cluster has shortest-path
radius at most ``rho`` around its center, every vertex belongs to a
cluster, and any two centers are more than ``rho`` apart in shortest-path
distance.  Phase ``i`` of the relaxed greedy algorithm covers the current
partial spanner ``G'_{i-1}`` with radius ``delta * W_{i-1}``.

Two constructions are provided:

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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import GraphError
from ..graphs.graph import Graph
from ..graphs.paths import (
    dijkstra,
    multi_source_ball_lists,
    multi_source_distances,
    prefer_batched_sources,
    source_block_size,
)

__all__ = [
    "ClusterCover",
    "build_cluster_cover",
    "build_cluster_cover_reference",
    "cover_from_centers",
    "short_edge_mask",
]


@dataclass(frozen=True)
class ClusterCover:
    """A cluster cover of some graph.

    Attributes
    ----------
    radius:
        Cover radius ``rho``.
    centers:
        Cluster centers, in construction order.
    assignment:
        ``vertex -> center`` (each vertex is assigned to exactly one
        cluster even though the definition permits overlap; uniqueness is
        what both the selection step and the cluster graph need).
    center_distance:
        ``vertex -> sp(center(vertex), vertex)`` within the covered graph;
        at most ``radius`` for every vertex.
    members:
        ``center -> sorted member list`` (inverse of ``assignment``).
    """

    radius: float
    centers: tuple[int, ...]
    assignment: dict[int, int]
    center_distance: dict[int, float]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the cover."""
        return len(self.centers)

    @property
    def members(self) -> dict[int, tuple[int, ...]]:
        """``center -> sorted member tuple`` (inverse of ``assignment``).

        Built lazily on first access -- the construction hot paths never
        need the inverse -- with one lexsort over the assignment arrays.
        """
        got = self._cache.get("members")
        if got is None:
            got = {c: () for c in self.centers}
            if self.assignment:
                vs = np.fromiter(
                    self.assignment.keys(), np.int64, len(self.assignment)
                )
                cs = np.fromiter(
                    self.assignment.values(), np.int64, len(self.assignment)
                )
                order = np.lexsort((vs, cs))
                vs, cs = vs[order], cs[order]
                bounds = np.flatnonzero(
                    np.concatenate(([True], cs[1:] != cs[:-1], [True]))
                )
                vlist = vs.tolist()
                for i, lo in enumerate(bounds[:-1].tolist()):
                    got[int(cs[lo])] = tuple(vlist[lo : bounds[i + 1]])
            self._cache["members"] = got
        return got

    def index_arrays(
        self, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(center_of, dist_to_center)`` arrays of this cover.

        ``center_of[v]`` is -1 and ``dist_to_center[v]`` is ``inf`` for
        vertices outside the covered universe.  Cached per vertex count
        (read-only); the array consumers of the construction pipeline --
        cluster-graph assembly, query selection -- index these instead of
        doing per-vertex dict lookups.
        """
        cached = self._cache.get(num_vertices)
        if cached is not None:
            return cached
        center_of = np.full(num_vertices, -1, dtype=np.int64)
        dist = np.full(num_vertices, np.inf, dtype=np.float64)
        if self.assignment:
            vs = np.fromiter(
                self.assignment.keys(), np.int64, len(self.assignment)
            )
            cs = np.fromiter(
                self.assignment.values(), np.int64, len(self.assignment)
            )
            ds = np.fromiter(
                (self.center_distance[v] for v in self.assignment),
                np.float64,
                len(self.assignment),
            )
            center_of[vs] = cs
            dist[vs] = ds
        center_of.setflags(write=False)
        dist.setflags(write=False)
        self._cache[num_vertices] = (center_of, dist)
        return center_of, dist

    @classmethod
    def from_rows(
        cls,
        radius: float,
        vertices: Sequence[int],
        center_of: np.ndarray,
        dist_to_center: np.ndarray,
    ) -> "ClusterCover":
        """Assemble a cover for ``vertices`` from dense row arrays.

        The inverse of :meth:`index_arrays`, restricted to a region:
        ``center_of[v]`` / ``dist_to_center[v]`` supply the assignment
        for every requested vertex (rows may mix derivation epochs, as
        the maintenance engine's persistent per-bin cover cache does).
        Centers are listed in first-appearance order over ``vertices``;
        a vertex with no row (``center_of[v] < 0``) raises.
        """
        idx = np.asarray(vertices, dtype=np.int64)
        cs = center_of[idx]
        missing = np.flatnonzero(cs < 0)
        if missing.size:
            raise GraphError(
                f"vertex {int(idx[missing[0]])} has no cover row"
            )
        vlist = idx.tolist()
        clist = cs.tolist()
        assignment = dict(zip(vlist, clist))
        center_distance = dict(zip(vlist, dist_to_center[idx].tolist()))
        centers = list(dict.fromkeys(clist))
        return _finalize(radius, centers, assignment, center_distance)

    def center_of(self, v: int) -> int:
        """Center of the cluster that vertex ``v`` belongs to."""
        try:
            return self.assignment[v]
        except KeyError:
            raise GraphError(f"vertex {v} is not covered") from None

    def distance_to_center(self, v: int) -> float:
        """Shortest-path distance from ``v`` to its cluster center."""
        try:
            return self.center_distance[v]
        except KeyError:
            raise GraphError(f"vertex {v} is not covered") from None


def _finalize(
    radius: float,
    centers: list[int],
    assignment: dict[int, int],
    center_distance: dict[int, float],
) -> ClusterCover:
    return ClusterCover(
        radius=radius,
        centers=tuple(centers),
        assignment=assignment,
        center_distance=center_distance,
    )


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
    operations.  Centers (in scan order), assignment and float distances
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
    universe = np.asarray(
        range(n) if vertices is None else list(vertices), dtype=np.int64
    )
    todo = universe if order is None else np.asarray(order, dtype=np.int64)
    if universe.size and (universe.min() < 0 or universe.max() >= n):
        raise GraphError(f"universe vertices must lie in [0, {n})")
    # Nothing outside the universe is ever claimed, so the scan stops at
    # the first such entry of the order.
    outside = ~np.isin(todo, universe)
    if outside.any():
        bad = int(todo[np.argmax(outside)])
        raise GraphError(f"order contains vertex {bad} outside the universe")
    grows = np.zeros(n, dtype=bool)
    grows[universe] = True
    grows &= short_edge_mask(graph, radius)
    sub = build_cluster_cover_reference(
        graph, radius, vertices=np.flatnonzero(grows).tolist(),
        order=todo[grows[todo]].tolist(),
    )
    center_of, dist = (a.copy() for a in sub.index_arrays(n))
    alone = todo[~grows[todo]]
    center_of[alone] = alone
    dist[alone] = 0.0
    missing = np.unique(universe[center_of[universe] < 0])[:5]
    if missing.size:
        raise GraphError(f"vertices never covered: {missing.tolist()} ...")
    # A center is chosen at its first position in the scan.
    firsts, first_pos = np.unique(todo, return_index=True)
    is_center = center_of[firsts] == firsts
    centers = firsts[is_center][np.argsort(first_pos[is_center])]
    claimed = np.flatnonzero(center_of >= 0)
    keys = claimed.tolist()
    cover = _finalize(
        radius,
        centers.tolist(),
        dict(zip(keys, center_of[claimed].tolist())),
        dict(zip(keys, dist[claimed].tolist())),
    )
    # The arrays ARE the cover index: seed the cache so the cluster-graph
    # assembly skips the dict round trip.
    center_of.setflags(write=False)
    dist.setflags(write=False)
    cover._cache[n] = (center_of, dist)
    return cover


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
    vertices, the maintenance engine's cover kernel, and the semantic
    anchor both are pinned against.
    """
    if radius < 0.0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    universe = list(vertices) if vertices is not None else list(graph.vertices())
    todo = order if order is not None else universe
    universe_set = set(universe)
    centers: list[int] = []
    assignment: dict[int, int] = {}
    center_distance: dict[int, float] = {}
    for u in todo:
        if u in assignment:
            continue
        if u not in universe_set:
            raise GraphError(f"order contains vertex {u} outside the universe")
        centers.append(u)
        for v, d in dijkstra(graph, u, cutoff=radius).items():
            if v in universe_set and v not in assignment:
                assignment[v] = u
                center_distance[v] = d
    missing = universe_set - assignment.keys()
    if missing:  # pragma: no cover - defensive; cannot happen (u covers itself)
        raise GraphError(f"vertices never covered: {sorted(missing)[:5]} ...")
    return _finalize(radius, centers, assignment, center_distance)


def cover_from_centers(
    graph: Graph,
    radius: float,
    centers: Iterable[int],
    *,
    vertices: Iterable[int] | None = None,
) -> ClusterCover:
    """Cover with externally chosen centers (distributed MIS path).

    Every non-center vertex attaches to the **highest-id** center within
    shortest-path distance ``radius`` (mirroring Section 3.2.1: "each node
    v attaches itself to the neighbor in I with the highest identifier").
    Only centers :func:`short_edge_mask` marks reach another vertex, so
    only they are searched from.

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
    universe = set(vertices) if vertices is not None else set(range(n))
    if universe and (min(universe) < 0 or max(universe) >= n):
        raise GraphError(f"universe vertices must lie in [0, {n})")
    center_list = sorted(set(centers))
    if not set(center_list) <= universe:
        raise GraphError("centers must lie inside the covered universe")
    center_arr = np.asarray(center_list, dtype=np.int64)
    in_universe = np.zeros(n, dtype=bool)
    in_universe[list(universe)] = True
    best = np.full(n, -1, dtype=np.int64)
    best_d = np.full(n, np.inf, dtype=np.float64)
    searched = center_arr[short_edge_mask(graph, radius)[center_arr]]
    # Highest-id preference: process centers in increasing id order and
    # let later (higher) centers overwrite.  Wide-reach assignments go
    # through batched multi-source Dijkstra blocks with pure array
    # claiming; tiny-ball regimes ride the sparse frontier-sharing
    # search (see prefer_batched_sources).
    if prefer_batched_sources(graph, searched, radius):
        block = source_block_size(graph)
        for lo in range(0, searched.size, block):
            chunk = searched[lo : lo + block]
            rows = multi_source_distances(graph, chunk, cutoff=radius)
            reached = np.isfinite(rows)
            # Highest row index with a finite entry = highest-id center
            # in this (ascending) chunk that reaches the vertex; chunks
            # ascend too, so later blocks overwrite earlier claims.
            pick = rows.shape[0] - 1 - np.argmax(reached[::-1], axis=0)
            sel = np.flatnonzero(reached.any(axis=0) & in_universe)
            best[sel] = chunk[pick[sel]]
            best_d[sel] = rows[pick[sel], sel]
    else:
        # Tiny balls: sparse frontier-sharing search from the searched
        # centers, highest-id (= highest slot, they ascend) claim per vertex.
        starts, ball_v, ball_d = multi_source_ball_lists(
            graph, searched, radius
        )
        src = np.repeat(
            np.arange(searched.size, dtype=np.int64), np.diff(starts)
        )
        keep = in_universe[ball_v]
        src, ball_v, ball_d = src[keep], ball_v[keep], ball_d[keep]
        order = np.lexsort((src, ball_v))
        src, ball_v, ball_d = src[order], ball_v[order], ball_d[order]
        last = np.ones(ball_v.size, dtype=bool)
        last[:-1] = ball_v[1:] != ball_v[:-1]
        best[ball_v[last]] = searched[src[last]]
        best_d[ball_v[last]] = ball_d[last]
    # Centers always belong to their own cluster, the unsearched ones
    # alone (applied on the arrays so they can seed the cover's index
    # cache).
    best[center_arr] = center_arr
    best_d[center_arr] = 0.0
    claimed = np.flatnonzero(best >= 0)
    assignment = dict(zip(claimed.tolist(), best[claimed].tolist()))
    center_distance = dict(zip(claimed.tolist(), best_d[claimed].tolist()))
    missing = universe - assignment.keys()
    if missing:
        raise GraphError(
            f"{len(missing)} vertices beyond radius {radius} of every center "
            f"(e.g. {sorted(missing)[:5]}); centers do not dominate"
        )
    cover = _finalize(radius, list(center_list), assignment, center_distance)
    best.setflags(write=False)
    best_d.setflags(write=False)
    cover._cache[n] = (best, best_d)
    return cover
