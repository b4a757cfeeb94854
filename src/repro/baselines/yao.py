"""Yao and Theta graphs -- classical cone-based topology control.

The Yao graph [Yao 1982] partitions the plane around each node into ``k``
equal cones and keeps, per cone, the edge to the *nearest* neighbor in
that cone; the Theta graph keeps the neighbor minimizing the projection
onto the cone bisector.  Both are standard topology-control baselines: for
``k > 6`` they are spanners of the UDG restricted to each cone's
reachability, with stretch ``1/(1 - 2*sin(pi/k))`` in the complete-graph
setting, but they bound only *out*-degree, not total degree, and give no
weight guarantee -- exactly the gaps the paper's algorithm closes (E5).

These constructions are 2-D (cone partitions in higher dimensions need
Yao's simplicial machinery; the paper's own baseline comparisons [15] are
planar too).

Both builders are vectorized: the base graph's edges are pulled out as
numpy arrays once, cone assignment and per-(node, cone) minimization run
as array sorts, and the survivors are bulk-inserted -- no per-edge Python
dispatch.  Tie-breaking matches the scalar definition: Yao keeps the
lexicographic minimum ``(weight, neighbor)`` per cone, Theta the minimum
``(projection, neighbor)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import GraphError
from ..geometry.points import PointSet
from ..graphs.graph import Graph

__all__ = ["yao_graph", "theta_graph"]


def _check_2d(points: PointSet) -> None:
    if points.dim != 2:
        raise GraphError(
            f"cone-based constructions are 2-D only; got d={points.dim}"
        )


def _directed_edges(
    base: Graph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both orientations of every base edge as aligned arrays."""
    eu, ev, ew = base.edges_arrays()
    return (
        np.concatenate([eu, ev]),
        np.concatenate([ev, eu]),
        np.concatenate([ew, ew]),
    )


def _cone_indices(
    dx: np.ndarray, dy: np.ndarray, k: int
) -> np.ndarray:
    """Cone index of each direction vector (vectorized ``atan2`` binning)."""
    angle = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    idx = (angle / (2.0 * math.pi / k)).astype(np.int64)
    return np.minimum(idx, k - 1)  # guard the 2*pi boundary


def _insert_selected(
    out: Graph, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> Graph:
    """Bulk-insert selected directed edges as undirected, deduplicated.

    Duplicate selections of the same undirected edge (picked from both
    endpoints) carry the same base weight, so keeping the first is exact.
    """
    if src.shape[0] == 0:
        return out
    cu = np.minimum(src, dst)
    cv = np.maximum(src, dst)
    pair_key = cu * np.int64(out.num_vertices) + cv
    _, first = np.unique(pair_key, return_index=True)
    out.add_weighted_edges_arrays(cu[first], cv[first], w[first])
    return out


def yao_graph(base: Graph, points: PointSet, k: int = 8) -> Graph:
    """Yao graph of ``base``: nearest neighbor per cone, per node.

    Parameters
    ----------
    base:
        The communication graph (typically a UDG); only its edges are
        candidates, making this the "Yao topology control" variant used
        in ad-hoc network papers rather than the complete-graph original.
    points:
        2-D coordinates of the vertices.
    k:
        Number of cones (``>= 2``).
    """
    _check_2d(points)
    if k < 2:
        raise GraphError(f"need k >= 2 cones, got {k}")
    out = Graph(base.num_vertices)
    du, dv, dw = _directed_edges(base)
    if du.shape[0] == 0:
        return out
    coords = points.coords
    delta = coords[dv] - coords[du]
    cone = _cone_indices(delta[:, 0], delta[:, 1], k)
    # Sort so the first row of each (node, cone) group is the minimum
    # (weight, neighbor) entry -- lexsort keys are least significant first.
    order = np.lexsort((dv, dw, cone, du))
    du, dv, dw, cone = du[order], dv[order], dw[order], cone[order]
    group_first = np.empty(du.shape[0], dtype=bool)
    group_first[0] = True
    group_first[1:] = (du[1:] != du[:-1]) | (cone[1:] != cone[:-1])
    return _insert_selected(
        out, du[group_first], dv[group_first], dw[group_first]
    )


def theta_graph(base: Graph, points: PointSet, k: int = 8) -> Graph:
    """Theta graph of ``base``: per cone, keep the neighbor with the
    smallest projection onto the cone's bisector."""
    _check_2d(points)
    if k < 2:
        raise GraphError(f"need k >= 2 cones, got {k}")
    out = Graph(base.num_vertices)
    du, dv, dw = _directed_edges(base)
    if du.shape[0] == 0:
        return out
    coords = points.coords
    delta = coords[dv] - coords[du]
    cone_angle = 2.0 * math.pi / k
    cone = _cone_indices(delta[:, 0], delta[:, 1], k)
    bisector = (cone.astype(np.float64) + 0.5) * cone_angle
    projection = delta[:, 0] * np.cos(bisector) + delta[:, 1] * np.sin(
        bisector
    )
    order = np.lexsort((dw, dv, projection, cone, du))
    du, dv, dw, cone = du[order], dv[order], dw[order], cone[order]
    group_first = np.empty(du.shape[0], dtype=bool)
    group_first[0] = True
    group_first[1:] = (du[1:] != du[:-1]) | (cone[1:] != cone[:-1])
    return _insert_selected(
        out, du[group_first], dv[group_first], dw[group_first]
    )
