"""Spanners for abstract (doubling) metric spaces -- the paper's Section 4.

The paper's future-work section conjectures that for low-dimensional
doubling metrics an ``O(log n log* n)``-round algorithm yielding a
``(1+eps)``-spanner of constant degree exists, noting that the presented
techniques *almost* carry over: the only Euclidean-specific ingredient on
the stretch side is the covered-edge filter (it needs angles), and the
only one on the weight side is the leapfrog property.

This module implements that program's feasible half:

* :func:`build_metric_ubg` -- the unit-ball graph of an arbitrary finite
  metric (edges between points at distance <= ``alpha``; gray zone
  decided by a policy like the geometric builders);
* :func:`build_metric_spanner` -- the relaxed greedy algorithm with the
  covered-edge filter disabled.  Every remaining component (binning,
  cluster covers, equation (1) selection, the cluster graph, redundancy
  removal) is purely metric, so Theorem 10's stretch argument carries
  over verbatim; degree and weight are measured rather than proven,
  which is exactly the open part of the paper's conjecture.  Experiment
  X1 tracks both on doubling workloads (l1/linf normed points).
"""

from __future__ import annotations

from typing import Callable

from ..core.covered import DistanceOracle
from ..core.relaxed_greedy import RelaxedGreedySpanner, SpannerResult
from ..exceptions import GraphError
from ..graphs.build import GrayZonePolicy
from ..graphs.graph import Graph
from ..params import SpannerParams

__all__ = [
    "build_metric_ubg",
    "build_metric_spanner",
    "lp_metric",
    "LpMetricOracle",
]


class LpMetricOracle:
    """Batched l_p distance oracle over a coordinate array.

    Implements the :class:`~repro.core.oracle.DistanceOracle` protocol:
    the scalar call routes through the same vectorized ``pairs``
    reductions on a one-element batch (numpy's scalar ``pow`` rounds
    differently from the vectorized loop in the last ulp), so the two
    views agree bit-for-bit per pair -- which is what lets the doubling
    extension ride the flattened covered-filter witness scan.
    """

    __slots__ = ("_arr", "_p")

    def __init__(self, coords, p: float) -> None:
        import numpy as np

        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2:
            raise GraphError("coords must be 2-D")
        if p != float("inf") and p < 1:
            raise GraphError(f"p must be >= 1, got {p}")
        self._arr = arr
        self._p = p

    def __call__(self, u: int, v: int) -> float:
        import numpy as np

        return float(
            self.pairs(
                np.asarray([u], dtype=np.int64),
                np.asarray([v], dtype=np.int64),
            )[0]
        )

    def pairs(self, u, v):
        import numpy as np

        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        diff = np.abs(self._arr[u] - self._arr[v])
        if self._p == float("inf"):
            return np.max(diff, axis=1)
        return np.sum(diff ** self._p, axis=1) ** (1.0 / self._p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LpMetricOracle(n={self._arr.shape[0]}, p={self._p})"


def lp_metric(coords, p: float) -> DistanceOracle:
    """Distance oracle for the l_p norm over a coordinate array.

    ``p = float('inf')`` gives the Chebyshev metric.  Points in a fixed
    dimension under any l_p norm form a doubling metric -- the workload
    family for the X1 experiment.  The returned object implements the
    batched oracle protocol (see :class:`LpMetricOracle`).
    """
    return LpMetricOracle(coords, p)


def build_metric_ubg(
    n: int,
    dist: DistanceOracle,
    alpha: float = 1.0,
    *,
    decide_gray: Callable[[int, int, float], bool] | None = None,
) -> Graph:
    """Unit-ball graph of a finite metric given by ``dist``.

    Pairs at distance <= ``alpha`` are edges; pairs in ``(alpha, 1]`` are
    decided by ``decide_gray`` (default: keep); pairs beyond 1 never.
    Quadratic in ``n`` -- abstract metrics admit no grid acceleration.
    """
    if not 0.0 < alpha <= 1.0:
        raise GraphError(f"alpha must be in (0, 1], got {alpha}")
    graph = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            d = dist(u, v)
            if d <= 0.0:
                raise GraphError(f"coincident points {u}, {v} unsupported")
            if d > 1.0:
                continue
            if d <= alpha or decide_gray is None or decide_gray(u, v, d):
                graph.add_edge(u, v, d)
    return graph


def build_metric_spanner(
    graph: Graph,
    dist: DistanceOracle,
    epsilon: float,
    *,
    alpha: float = 1.0,
) -> SpannerResult:
    """Relaxed greedy spanner over an abstract metric (angle-free).

    Parameters mirror :func:`repro.core.relaxed_greedy.build_spanner`;
    the covered-edge filter is disabled (its angle test presumes
    Euclidean geometry).  The output is a certified ``(1+epsilon)``-
    spanner for *any* metric; on doubling metrics the X1 experiment shows
    degree and lightness staying in the constant bands the paper
    conjectures.
    """
    params = SpannerParams.from_epsilon(epsilon, alpha=alpha)
    builder = RelaxedGreedySpanner(params, use_covered_filter=False)
    return builder.build(graph, dist)
