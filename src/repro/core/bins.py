"""Geometric edge binning (Section 2).

The relaxed greedy algorithm replaces ``SEQ-GREEDY``'s total edge order by
a coarse partition into ``O(log n)`` weight bins::

    W_i = r^i * alpha / n
    I_0 = (0, alpha/n],   I_i = (W_{i-1}, W_i]   for i >= 1
    m   = ceil(log_r(n / alpha))

Edges inside a bin may be processed in *any* order (and updated lazily),
which is what makes the distributed implementation possible.  Because no
edge of an alpha-UBG is longer than 1 and ``W_m >= 1``, every edge lands in
exactly one of ``I_0 .. I_m``.

Since a bin's edges are processed as a set, a bin is one
:class:`~repro.graphs.graph.EdgeArrays` batch: :meth:`EdgeBinning.assign`
splits the graph's edge arrays into one batch per bin, and every later
step of the phase selects from that batch by mask or index array.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import GraphError, ParameterError
from ..graphs.graph import EdgeArrays
from ..params import SpannerParams

__all__ = ["EdgeBinning"]


class EdgeBinning:
    """Assigns edge lengths to the bins ``I_0 .. I_m``.

    Parameters
    ----------
    r:
        Geometric growth rate, ``> 1``.
    alpha:
        Quasi-UBG parameter; ``W_0 = alpha / n``.
    n:
        Number of vertices of the graph being binned.
    upper:
        Upper bound on edge lengths (1.0 for the paper's normalized model).
        ``m`` is chosen so that ``W_m >= upper``.
    """

    __slots__ = (
        "_r", "_alpha", "_n", "_upper", "_w0", "_m", "_log_r", "_bounds"
    )

    def __init__(
        self, r: float, alpha: float, n: int, *, upper: float = 1.0
    ) -> None:
        if r <= 1.0:
            raise ParameterError(f"r must be > 1, got {r}")
        if not 0.0 < alpha <= upper:
            raise ParameterError(
                f"need 0 < alpha <= upper; got alpha={alpha}, upper={upper}"
            )
        if n < 1:
            raise GraphError(f"n must be >= 1, got {n}")
        self._r = r
        self._alpha = alpha
        self._n = n
        self._upper = upper
        self._w0 = alpha / n
        self._log_r = math.log(r)
        ratio = upper / self._w0
        self._m = max(0, math.ceil(math.log(ratio) / self._log_r))
        # Guard against floating point shortfall at the top boundary.
        while self.boundary(self._m) < upper:
            self._m += 1
        self._bounds: np.ndarray | None = None

    @classmethod
    def for_params(
        cls, params: SpannerParams, n: int, *, upper: float = 1.0
    ) -> "EdgeBinning":
        """Binning induced by a validated :class:`SpannerParams`."""
        return cls(params.r, params.alpha, n, upper=upper)

    @property
    def num_bins(self) -> int:
        """Index ``m`` of the last bin (bins are ``0 .. m``)."""
        return self._m

    @property
    def r(self) -> float:
        """Growth rate."""
        return self._r

    def boundary(self, i: int) -> float:
        """Bin boundary ``W_i = r^i * alpha / n``."""
        if i < 0:
            raise GraphError(f"bin index must be >= 0, got {i}")
        return (self._r**i) * self._w0

    def bin_of(self, length: float) -> int:
        """Index of the bin containing ``length``.

        Raises
        ------
        GraphError
            If ``length`` is not in ``(0, W_m]``.
        """
        if length <= 0.0:
            raise GraphError(f"edge length must be positive, got {length}")
        if length <= self._w0:
            return 0
        idx = math.ceil(math.log(length / self._w0) / self._log_r)
        idx = max(1, idx)
        # Floating point can land us one bin off either way; fix up exactly.
        while idx > 1 and self.boundary(idx - 1) >= length:
            idx -= 1
        while self.boundary(idx) < length:
            idx += 1
        if idx > self._m:
            raise GraphError(
                f"length {length} exceeds top bin boundary {self.boundary(self._m)}"
            )
        return idx

    def _boundaries(self) -> np.ndarray:
        """All bin boundaries ``W_0 .. W_m`` as one array.

        Built from the exact :meth:`boundary` expression per entry so
        the vectorized :meth:`bins_of` reproduces the scalar
        :meth:`bin_of` bit for bit.
        """
        if self._bounds is None:
            self._bounds = np.asarray(
                [self.boundary(i) for i in range(self._m + 1)],
                dtype=np.float64,
            )
            self._bounds.setflags(write=False)
        return self._bounds

    def bins_of(self, lengths: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bin_of` over a length array.

        ``bin_of`` reduces to "the smallest ``i`` with ``W_i >= length``
        (0 for ``length <= W_0``)", which is one ``searchsorted`` against
        the exact boundary table; error reporting matches the scalar
        walk (the first offending length in input order raises).
        """
        lengths = np.asarray(lengths, dtype=np.float64)
        bad = ~(lengths > 0.0)  # catches non-positive and NaN
        bounds = self._boundaries()
        idx = np.searchsorted(bounds, lengths, side="left")
        over = (idx > self._m) & ~bad
        if bad.any() or over.any():
            i = int(np.argmax(bad | over))
            if bad[i]:
                raise GraphError(
                    f"edge length must be positive, got {lengths[i]}"
                )
            raise GraphError(
                f"length {lengths[i]} exceeds top bin boundary "
                f"{self.boundary(self._m)}"
            )
        return idx

    def assign(self, edges: EdgeArrays) -> dict[int, EdgeArrays]:
        """Split an edge batch into one batch per bin.

        ``edges`` is an :class:`~repro.graphs.graph.EdgeArrays` batch,
        typically ``graph.edges_arrays()``.  Only non-empty bins appear
        in the result, with ascending keys; the relaxed greedy algorithm
        skips empty phases outright (their cluster covers would never be
        queried).  Bin indices come from one vectorized :meth:`bins_of`
        call, and each bin's batch keeps the input edge order.
        """
        bins = self.bins_of(edges.w)
        order = np.argsort(bins, kind="stable")
        sorted_bins = bins[order]
        starts = np.flatnonzero(np.diff(sorted_bins, prepend=-1))
        ends = np.append(starts[1:], order.size)
        return {
            int(sorted_bins[lo]): edges.take(order[lo:hi])
            for lo, hi in zip(starts.tolist(), ends.tolist())
        }
