"""Axis-parallel grid index for fixed-radius neighbor queries.

Building a UDG / alpha-UBG naively costs ``Theta(n^2)`` distance checks.
Because every edge has length at most 1, bucketing points into an
axis-parallel grid of cell width ``h >= max edge length`` confines each
point's candidate neighbors to the ``3^d`` surrounding cells.  The same
structure implements the grid-cell partition used in the Theorem 11 degree
argument (cells of width ``alpha/sqrt(d)``).

Batch pipeline
--------------
The index is *array-native*: cell keys are computed once for the whole
point set at construction, points are bucketed by sorting their linearized
cell ids, and radius queries are answered by numpy block operations
instead of per-point Python loops.  :meth:`GridIndex.pairs_within_arrays`
is the bulk entry point -- it returns the complete ``(u, v, dist)`` edge
candidate set as three aligned numpy arrays with each unordered pair
reported exactly once (``u < v``, rows sorted lexicographically), and each
distance measured exactly once.  The legacy iterator
:meth:`GridIndex.all_pairs_within` is a thin wrapper over the array path,
so both share one distance computation per pair and agree bit-for-bit.

Determinism contract: for a fixed point set and radius the arrays returned
by :meth:`pairs_within_arrays` are identical run-to-run (pure floor/sort
arithmetic, no hashing of float coordinates), which the graph builders in
:mod:`repro.graphs.build` rely on for reproducible construction.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..arrayops import offset_cube, run_expand
from ..exceptions import GraphError
from .points import PointSet

__all__ = ["GridIndex"]


class GridIndex:
    """Uniform grid over a :class:`PointSet` for radius queries.

    Parameters
    ----------
    points:
        The point set to index.
    cell_width:
        Side length of each grid cell; must be positive.  Radius queries
        with ``radius <= cell_width`` inspect only adjacent cells.
    """

    __slots__ = (
        "_points",
        "_cell_width",
        "_keys",
        "_kmin",
        "_kmax",
        "_strides",
        "_linear",
        "_order",
        "_uids",
        "_starts",
        "_counts",
    )

    def __init__(self, points: PointSet, cell_width: float) -> None:
        if cell_width <= 0.0:
            raise GraphError(f"cell_width must be positive, got {cell_width}")
        self._points = points
        self._cell_width = float(cell_width)
        # Cell keys for every point, computed once (array-native core).
        keys = np.floor(points.coords / self._cell_width).astype(np.int64)
        self._keys = keys
        n = keys.shape[0]
        if n == 0:
            dim = points.dim
            self._kmin = np.zeros(dim, dtype=np.int64)
            self._kmax = np.zeros(dim, dtype=np.int64)
            self._strides = np.ones(dim, dtype=np.int64)
            self._linear = np.empty(0, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._uids = np.empty(0, dtype=np.int64)
            self._starts = np.zeros(1, dtype=np.int64)
            self._counts = np.empty(0, dtype=np.int64)
            return
        # Linearize keys over the occupied bounding box of cells: the
        # mapping key -> sum((key - kmin) * stride) is injective on the
        # box, so linear ids identify cells exactly.
        self._kmin = keys.min(axis=0)
        self._kmax = keys.max(axis=0)
        extents = self._kmax - self._kmin + 1
        # Row-major strides: stride[i] = prod(extents[i+1:]).
        strides = np.concatenate(
            [np.cumprod(extents[::-1])[::-1][1:], np.ones(1, dtype=np.int64)]
        )
        self._strides = strides.astype(np.int64)
        self._linear = (keys - self._kmin) @ self._strides
        # Stable sort keeps points within a cell in ascending-index order,
        # which the sorted outputs of the query methods rely on.
        self._order = np.argsort(self._linear, kind="stable")
        sorted_ids = self._linear[self._order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundary[1:])
        first = np.flatnonzero(boundary)
        self._uids = sorted_ids[first]
        self._starts = np.concatenate(
            [first, np.asarray([n], dtype=np.int64)]
        ).astype(np.int64)
        self._counts = np.diff(self._starts)

    @property
    def cell_width(self) -> float:
        """Grid cell side length."""
        return self._cell_width

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return int(self._uids.shape[0])

    def cell_of(self, idx: int) -> tuple[int, ...]:
        """Grid cell key containing point ``idx``."""
        return tuple(int(c) for c in self._keys[idx])

    def points_in_cell(self, key: tuple[int, ...]) -> list[int]:
        """Indices of points stored in cell ``key`` (empty list if none)."""
        key_arr = np.asarray(key, dtype=np.int64)
        if key_arr.shape != self._kmin.shape:
            return []
        if np.any(key_arr < self._kmin) or np.any(key_arr > self._kmax):
            return []
        linear = int((key_arr - self._kmin) @ self._strides)
        pos = int(np.searchsorted(self._uids, linear))
        if pos >= self._uids.shape[0] or self._uids[pos] != linear:
            return []
        lo, hi = int(self._starts[pos]), int(self._starts[pos + 1])
        return self._order[lo:hi].tolist()

    def _positive_offsets(self, reach: int) -> np.ndarray:
        """All offsets in ``[-reach, reach]^d`` that are lexicographically
        positive (first nonzero component > 0): visiting ``(cell, cell +
        off)`` for these offsets covers every unordered pair of distinct
        cells within Chebyshev distance ``reach`` exactly once."""
        offsets = offset_cube(self._kmin.shape[0], reach)
        nonzero = offsets != 0
        any_nonzero = nonzero.any(axis=1)
        first_nonzero = np.where(
            any_nonzero, nonzero.argmax(axis=1), 0
        )
        first_sign = offsets[np.arange(offsets.shape[0]), first_nonzero]
        return offsets[any_nonzero & (first_sign > 0)]

    def _cell_lookup(
        self, linear_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map linear cell ids to ``(found_mask, cell_rank)``."""
        pos = np.searchsorted(self._uids, linear_ids)
        pos_clipped = np.minimum(pos, max(self._uids.shape[0] - 1, 0))
        if self._uids.shape[0] == 0:
            return np.zeros(linear_ids.shape[0], dtype=bool), pos_clipped
        found = self._uids[pos_clipped] == linear_ids
        found &= pos < self._uids.shape[0]
        return found, pos_clipped

    def _candidate_pairs(self, reach: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate point pairs ``(u_idx, v_idx)`` from all cell pairs
        within Chebyshev distance ``reach`` (no distance filtering yet)."""
        n = self._keys.shape[0]
        if n < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        us: list[np.ndarray] = []
        vs: list[np.ndarray] = []

        # Intra-cell pairs: for each sorted position p with r points after
        # it in the same cell, pair p with each of those r positions.
        cell_rank = np.repeat(
            np.arange(self._counts.shape[0], dtype=np.int64), self._counts
        )
        pos = np.arange(n, dtype=np.int64)
        local = pos - self._starts[cell_rank]
        remaining = self._counts[cell_rank] - local - 1
        u_pos = np.repeat(pos, remaining)
        v_pos = run_expand(pos + 1, remaining)
        us.append(self._order[u_pos])
        vs.append(self._order[v_pos])

        # Cross-cell pairs: one lexicographically-positive offset per
        # unordered cell pair; each point pairs with the full bucket of
        # its offset-neighbor cell.
        offsets = self._positive_offsets(reach)
        for off in offsets:
            shifted = self._keys + off
            valid = np.all(
                (shifted >= self._kmin) & (shifted <= self._kmax), axis=1
            )
            if not valid.any():
                continue
            src = np.flatnonzero(valid)
            nbr_linear = self._linear[src] + int(off @ self._strides)
            found, rank = self._cell_lookup(nbr_linear)
            if not found.any():
                continue
            src = src[found]
            rank = rank[found]
            cnt = self._counts[rank]
            us.append(np.repeat(src, cnt))
            vs.append(self._order[run_expand(self._starts[rank], cnt)])

        return np.concatenate(us), np.concatenate(vs)

    def pairs_within_arrays(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All unordered pairs within ``radius``, as aligned numpy arrays.

        Returns ``(u, v, dist)`` with ``u < v`` elementwise, rows sorted
        lexicographically by ``(u, v)``, and each Euclidean distance
        measured exactly once.  This is the bulk fast path the graph
        builders consume; :meth:`all_pairs_within` wraps it.
        """
        if radius < 0.0:
            raise GraphError(f"radius must be >= 0, got {radius}")
        reach = max(1, int(np.ceil(radius / self._cell_width)))
        cand_u, cand_v = self._candidate_pairs(reach)
        if cand_u.shape[0] == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        coords = self._points.coords
        diff = coords[cand_u] - coords[cand_v]
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        keep = dist_sq <= radius * radius
        u = cand_u[keep]
        v = cand_v[keep]
        dist = np.sqrt(dist_sq[keep])
        swap = u > v
        if swap.any():
            u2 = np.where(swap, v, u)
            v2 = np.where(swap, u, v)
            u, v = u2, v2
        order = np.lexsort((v, u))
        return u[order], v[order], dist[order]

    def neighbors_within(self, idx: int, radius: float) -> list[int]:
        """Indices of points within Euclidean ``radius`` of point ``idx``.

        The point itself is excluded.  Results are sorted for determinism.
        """
        if radius < 0.0:
            raise GraphError(f"radius must be >= 0, got {radius}")
        n = self._keys.shape[0]
        if n <= 1:
            return []
        reach = max(1, int(np.ceil(radius / self._cell_width)))
        key = self._keys[idx]
        shifted = key + offset_cube(key.shape[0], reach)
        valid = np.all(
            (shifted >= self._kmin) & (shifted <= self._kmax), axis=1
        )
        if not valid.any():
            return []
        nbr_linear = (shifted[valid] - self._kmin) @ self._strides
        found, rank = self._cell_lookup(nbr_linear)
        if not found.any():
            return []
        rank = rank[found]
        cand = self._order[
            run_expand(self._starts[rank], self._counts[rank])
        ]
        cand = cand[cand != idx]
        if cand.shape[0] == 0:
            return []
        coords = self._points.coords
        diff = coords[cand] - coords[idx]
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        close = cand[dist_sq <= radius * radius]
        close.sort()
        return close.tolist()

    def all_pairs_within(self, radius: float) -> Iterator[tuple[int, int, float]]:
        """Yield every unordered pair ``(u, v, distance)`` with
        ``distance <= radius`` exactly once (``u < v``).

        Legacy iterator API: a thin wrapper over
        :meth:`pairs_within_arrays`, so each distance is measured once on
        the array path and simply re-emitted here.
        """
        u, v, dist = self.pairs_within_arrays(radius)
        yield from zip(u.tolist(), v.tolist(), dist.tolist())
