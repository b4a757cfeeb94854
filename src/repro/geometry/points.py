"""Point sets in d-dimensional Euclidean space.

The paper's network model places nodes at points of ``R^d``; the algorithm
itself only consumes pairwise distances (Section 1.1), but workload
generation, the UBG builders and the baselines all need coordinates.
:class:`PointSet` is a thin, immutable wrapper over a float64 numpy array
of shape ``(n, d)`` providing exactly the distance queries the rest of the
library needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import GraphError

__all__ = ["PointSet"]


class PointSet:
    """An immutable set of ``n`` labelled points in ``R^d``.

    Points are labelled ``0 .. n-1``; these labels double as vertex ids in
    every graph built from the point set.

    Parameters
    ----------
    coords:
        Array-like of shape ``(n, d)`` with ``d >= 1``.  A copy is taken and
        frozen, so the point set can be safely shared between graphs.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[Sequence[float]] | np.ndarray) -> None:
        arr = np.asarray(coords, dtype=np.float64)
        if arr.ndim != 2:
            raise GraphError(
                f"coords must be a 2-D array of shape (n, d); got ndim={arr.ndim}"
            )
        if arr.shape[1] < 1:
            raise GraphError("points need at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise GraphError("coordinates must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._coords = arr

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._coords.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._coords)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self._coords[idx]

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)}, d={self.dim})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._coords.shape == other._coords.shape and bool(
            np.array_equal(self._coords, other._coords)
        )

    def __hash__(self) -> int:
        return hash((self._coords.shape, self._coords.tobytes()))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Euclidean dimension ``d``."""
        return self._coords.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """The read-only ``(n, d)`` coordinate array."""
        return self._coords

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance ``|uv|`` between points ``u`` and ``v``.

        Computed with the same einsum reduction as the batch methods
        (:meth:`distances_between` et al.) so scalar and vectorized
        queries agree bit-for-bit -- BLAS ``dot`` may use FMA and round
        differently in the last ulp.
        """
        diff = self._coords[u] - self._coords[v]
        return float(np.sqrt(np.einsum("i,i->", diff, diff)))

    def sq_distances_between(
        self, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Squared distances ``|u_i v_i|^2`` for aligned index arrays.

        The batch graph-construction pipeline uses this to measure whole
        candidate-pair arrays in one numpy call.
        """
        diff = self._coords[np.asarray(u)] - self._coords[np.asarray(v)]
        return np.einsum("ij,ij->i", diff, diff)

    def distances_between(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Distances ``|u_i v_i|`` for aligned index arrays (vectorized)."""
        return np.sqrt(self.sq_distances_between(u, v))

    def oracle(self):
        """This point set as a batched :class:`~repro.core.oracle.DistanceOracle`.

        Scalar calls route through :meth:`distance` and batched ``pairs``
        through :meth:`distances_between` -- the same einsum reduction,
        so the two views agree bit-for-bit per pair.  Passing the bound
        method ``points.distance`` to any algorithm is equivalent (the
        core upgrades it via :func:`repro.core.oracle.as_oracle`); this
        accessor just makes the protocol form explicit.
        """
        from ..core.oracle import BoundMethodOracle

        return BoundMethodOracle(self.distance, self.distances_between)

    def scaled(self, factor: float) -> "PointSet":
        """A new point set with every coordinate multiplied by ``factor``."""
        if factor <= 0:
            raise GraphError(f"scale factor must be positive, got {factor}")
        return PointSet(self._coords * factor)

    def subset(self, indices: Sequence[int]) -> "PointSet":
        """A new point set containing only ``indices`` (relabelled 0..k-1)."""
        return PointSet(self._coords[list(indices)])
