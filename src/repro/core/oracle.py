"""Batched pairwise-distance oracles (the Section 1.1 knowledge model).

The paper's algorithm never touches coordinates: every phase -- the
covered-edge filter of Lemma 3, cluster covers, the distributed
Section 3.2 build -- consults only pairwise distances between named
vertices.  Historically this library modelled that knowledge as a bare
``Callable[[int, int], float]``, which forced every array kernel to fall
back to per-pair Python calls for any oracle that was not literally a
bound :meth:`repro.geometry.PointSet.distance`.

This module promotes the oracle to a small protocol:

* ``oracle(u, v) -> float`` -- the scalar query (unchanged contract);
* ``oracle.pairs(u_idx, v_idx) -> float64[k]`` -- the batched query over
  aligned index arrays, elementwise **bit-for-bit equal** to the scalar
  query for every pair (the equivalence suite pins this for each shipped
  oracle).

:func:`as_oracle` upgrades any legacy callable: oracles already
implementing the protocol pass through, a bound ``PointSet.distance``
is recognized and paired with the point set's vectorized
``distances_between``, and everything else is wrapped in
:class:`ScalarOracleAdapter`, whose ``pairs`` evaluates the scalar
callable per pair (correct for arbitrary user oracles, just not
vectorized).  The array kernels take one path for every oracle; the
scalar references they are pinned against live with the tests.

Shipped protocol implementations: :func:`as_oracle` over ``PointSet``
(Euclidean), :func:`repro.extensions.doubling_metric.lp_metric`
(l_p norms), :func:`repro.extensions.energy.energy_cost_oracle`
(``c * |uv|^gamma``) and
:class:`repro.extensions.fault_tolerance.FaultMaskedOracle`
(witness exclusion under vertex faults).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "DistanceOracle",
    "ScalarOracleAdapter",
    "BoundMethodOracle",
    "as_oracle",
]


@runtime_checkable
class DistanceOracle(Protocol):
    """Pairwise distance oracle over integer vertex ids.

    The scalar call and the batched ``pairs`` method must agree
    bit-for-bit per pair; array kernels rely on that to substitute one
    flattened ``pairs`` call for a loop of scalar calls without
    perturbing any verdict.
    """

    def __call__(self, u: int, v: int) -> float:
        """Distance between vertices ``u`` and ``v``."""
        ...

    def pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Distances ``d(u[i], v[i])`` for aligned int index arrays."""
        ...


class ScalarOracleAdapter:
    """Protocol adapter for a bare ``(u, v) -> float`` callable.

    ``pairs`` evaluates the wrapped callable once per pair -- the exact
    scalar semantics, so adapted oracles are always *correct* under the
    batched kernels, merely not vectorized.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int, int], float]) -> None:
        self._fn = fn

    def __call__(self, u: int, v: int) -> float:
        return self._fn(u, v)

    def pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        fn = self._fn
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.empty(u.shape[0], dtype=np.float64)
        for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
            out[i] = fn(a, b)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarOracleAdapter({self._fn!r})"


class BoundMethodOracle:
    """Protocol view pairing a scalar bound method with its owner's
    aligned-array batch method (e.g. ``PointSet.distance`` with
    ``PointSet.distances_between``)."""

    __slots__ = ("_scalar", "_batch")

    def __init__(
        self,
        scalar: Callable[[int, int], float],
        batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        self._scalar = scalar
        self._batch = batch

    def __call__(self, u: int, v: int) -> float:
        return self._scalar(u, v)

    def pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._batch(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundMethodOracle({self._scalar!r})"


def as_oracle(dist: Callable[[int, int], float]) -> DistanceOracle:
    """Upgrade ``dist`` to the :class:`DistanceOracle` protocol.

    * objects already exposing a callable ``pairs`` pass through
      unchanged (they are protocol instances);
    * a bound :meth:`repro.geometry.PointSet.distance` is paired with
      its owner's ``distances_between`` (the einsum batch path that is
      bit-for-bit equal per pair);
    * any other callable is wrapped in :class:`ScalarOracleAdapter`.
    """
    if callable(getattr(dist, "pairs", None)):
        return dist  # already protocol-shaped
    owner = getattr(dist, "__self__", None)
    if owner is not None and getattr(dist, "__func__", None) is getattr(
        type(owner), "distance", None
    ):
        batch = getattr(owner, "distances_between", None)
        if callable(batch):
            return BoundMethodOracle(dist, batch)
    return ScalarOracleAdapter(dist)
