"""Parameter derivation for the relaxed greedy spanner algorithm.

The paper's algorithm is controlled by a small family of interdependent
constants.  Given the desired stretch ``t = 1 + epsilon`` and the network
model constants (``alpha``, dimension ``d``), Theorems 10 and 13 impose:

``t1``
    auxiliary stretch used by redundancy elimination, ``1 < t1 < t``;
``delta``
    cluster-cover radius factor; Theorem 10 needs ``delta <= (t - t1)/4``
    and Theorem 13 needs ``delta < (t1 - 1)/(6 + 2*t1)`` so that
    ``t_delta = t1*(1 - 2*delta)/(1 + 6*delta) > 1``;
``r``
    geometric bin growth rate, ``1 < r < (t_delta + 1)/2`` (Theorem 13);
``theta``
    cone half-angle for the covered-edge test, ``0 < theta < pi/4`` with
    ``t >= 1/(cos(theta) - sin(theta))`` (Lemma 3);
``beta``
    bucketing base used only in the weight analysis (Theorem 13).

:class:`SpannerParams` is the single source of truth for these values.  It
can be constructed directly (all fields validated) or derived from a target
``epsilon`` with :meth:`SpannerParams.from_epsilon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .exceptions import ParameterError

__all__ = ["SpannerParams", "max_cone_angle", "binning_rate_bound"]

#: Fraction of each feasible interval actually used, to stay strictly inside
#: open constraints in the presence of floating point rounding.
_SAFETY = 0.9

#: Fraction of the maximum admissible cone angle used for ``theta``.
_THETA_SAFETY = 0.95


def max_cone_angle(t: float) -> float:
    """Largest cone half-angle ``theta`` admissible for stretch ``t``.

    Lemma 3 (Czumaj--Zhao) requires ``0 < theta < pi/4`` and
    ``t >= 1/(cos(theta) - sin(theta))``.  Using
    ``cos(theta) - sin(theta) = sqrt(2)*cos(theta + pi/4)`` the binding value
    is ``theta_max = arccos(1/(sqrt(2)*t)) - pi/4``.

    Parameters
    ----------
    t:
        Target stretch factor, must be > 1.

    Returns
    -------
    float
        ``theta_max`` in radians, guaranteed to lie in ``(0, pi/4)``.
    """
    if t <= 1.0:
        raise ParameterError(f"stretch t must be > 1, got {t}")
    theta = math.acos(1.0 / (math.sqrt(2.0) * t)) - math.pi / 4.0
    return min(theta, math.pi / 4.0)


def _check_model(alpha: float, dim: int) -> None:
    """Reject a model outside ``0 < alpha <= 1``, ``dim >= 2``."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if dim < 2:
        raise ParameterError(f"dim must be >= 2, got {dim}")


def binning_rate_bound(t1: float, delta: float) -> float:
    """Upper bound ``(t_delta + 1)/2`` on the bin growth rate ``r``.

    ``t_delta = t1*(1 - 2*delta)/(1 + 6*delta)`` is the stretch that
    survives the cluster-graph approximation of Lemma 7.  Theorem 13
    requires ``1 < r < (t_delta + 1)/2``; this helper returns the upper
    bound (the caller must stay strictly below it).
    """
    t_delta = t1 * (1.0 - 2.0 * delta) / (1.0 + 6.0 * delta)
    return (t_delta + 1.0) / 2.0


@dataclass(frozen=True)
class SpannerParams:
    """Validated parameter bundle for the relaxed greedy algorithm.

    Attributes
    ----------
    t:
        Target stretch factor (``t = 1 + epsilon``), strictly > 1.
    t1:
        Redundancy-elimination stretch, ``1 < t1 < t``.
    delta:
        Cluster-cover radius factor (cover radius is ``delta * W_{i-1}``).
    r:
        Geometric growth rate of the bin boundaries ``W_i = r^i * alpha/n``.
    theta:
        Cone half-angle for the covered-edge test, radians.
    beta:
        Bucketing base from Theorem 13's weight proof (analysis only).
    alpha:
        Quasi-UBG parameter: pairs closer than ``alpha`` are always edges,
        pairs farther than 1 never are.  ``0 < alpha <= 1``.
    dim:
        Euclidean dimension ``d >= 2`` of the model (used by workloads and
        by the degree-bound constants; the algorithm itself is
        coordinate-free).
    """

    t: float
    t1: float
    delta: float
    r: float
    theta: float
    beta: float
    alpha: float = 1.0
    dim: int = 2

    # Derived, filled by __post_init__.
    t_delta: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.validate()
        t_delta = self.t1 * (1.0 - 2.0 * self.delta) / (1.0 + 6.0 * self.delta)
        object.__setattr__(self, "t_delta", t_delta)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_epsilon(
        cls,
        epsilon: float,
        *,
        alpha: float = 1.0,
        dim: int = 2,
        t1_fraction: float = 0.75,
    ) -> "SpannerParams":
        """Derive a full parameter bundle from a target ``epsilon``.

        The derivation follows DESIGN.md section 5:

        * ``t  = 1 + epsilon``
        * ``t1 = 1 + t1_fraction * epsilon``
        * ``delta = 0.9 * min{(t - t1)/4, (t1 - 1)/(6 + 2*t1)}``
        * ``r = 1 + 0.9*((t_delta + 1)/2 - 1)``
        * ``theta = 0.95 * theta_max(t)``
        * ``beta`` = midpoint of its admissible interval.

        Parameters
        ----------
        epsilon:
            Desired stretch slack; the output graph is a ``(1+epsilon)``-
            spanner.  Must be finite and > 0.
        alpha:
            Quasi-UBG parameter in ``(0, 1]``.
        dim:
            Euclidean dimension, ``>= 2``.
        t1_fraction:
            Where to place ``t1`` inside ``(1, t)`` as a fraction of
            ``epsilon``; must lie strictly in ``(0, 1)``.
        """
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise ParameterError(
                f"epsilon must be finite and > 0, got {epsilon}"
            )
        _check_model(alpha, dim)
        if not 0.0 < t1_fraction < 1.0:
            raise ParameterError(
                f"t1_fraction must be in (0, 1), got {t1_fraction}"
            )
        t = 1.0 + epsilon
        t1 = 1.0 + t1_fraction * epsilon
        delta = _SAFETY * min((t - t1) / 4.0, (t1 - 1.0) / (6.0 + 2.0 * t1))
        r_hi = binning_rate_bound(t1, delta)
        r = 1.0 + _SAFETY * (r_hi - 1.0)
        theta = _THETA_SAFETY * max_cone_angle(t)
        beta = cls._derive_beta(t, alpha)
        return cls(
            t=t, t1=t1, delta=delta, r=r, theta=theta, beta=beta,
            alpha=alpha, dim=dim,
        )

    @staticmethod
    def _derive_beta(t: float, alpha: float) -> float:
        """Midpoint of the admissible interval for ``beta`` (Theorem 13)."""
        if t * alpha < 1.0:
            hi = min(2.0, 1.0 / (1.0 - t * alpha))
        else:
            hi = 2.0
        return (1.0 + hi) / 2.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ParameterError` if any theorem precondition fails."""
        _check_model(self.alpha, self.dim)
        if self.t <= 1.0:
            raise ParameterError(f"t must be > 1, got {self.t}")
        if not 1.0 < self.t1 < self.t:
            raise ParameterError(
                f"t1 must satisfy 1 < t1 < t; got t1={self.t1}, t={self.t}"
            )
        if self.delta <= 0.0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")
        if self.delta > (self.t - self.t1) / 4.0:
            raise ParameterError(
                f"Theorem 10 needs delta <= (t - t1)/4 = "
                f"{(self.t - self.t1) / 4.0:.6g}; got {self.delta:.6g}"
            )
        if self.delta >= (self.t1 - 1.0) / (6.0 + 2.0 * self.t1):
            raise ParameterError(
                "Theorem 13 needs delta < (t1 - 1)/(6 + 2*t1) = "
                f"{(self.t1 - 1.0) / (6.0 + 2.0 * self.t1):.6g}; "
                f"got {self.delta:.6g}"
            )
        t_delta = self.t1 * (1.0 - 2.0 * self.delta) / (1.0 + 6.0 * self.delta)
        if t_delta <= 1.0:
            raise ParameterError(
                f"derived t_delta = {t_delta:.6g} must be > 1"
            )
        if not 1.0 < self.r < (t_delta + 1.0) / 2.0:
            raise ParameterError(
                f"Theorem 13 needs 1 < r < (t_delta + 1)/2 = "
                f"{(t_delta + 1.0) / 2.0:.6g}; got {self.r:.6g}"
            )
        theta_max = max_cone_angle(self.t)
        if not 0.0 < self.theta <= theta_max:
            raise ParameterError(
                f"Lemma 3 needs 0 < theta <= {theta_max:.6g} rad for "
                f"t = {self.t}; got {self.theta:.6g}"
            )
        if not 1.0 < self.beta < 2.0:
            raise ParameterError(f"beta must lie in (1, 2), got {self.beta}")
        if self.t * self.alpha < 1.0 and self.beta >= 1.0 / (
            1.0 - self.t * self.alpha
        ):
            raise ParameterError(
                "Theorem 13 needs beta < 1/(1 - t*alpha) when t*alpha < 1; "
                f"got beta={self.beta:.6g}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Stretch slack ``t - 1``."""
        return self.t - 1.0

    def w0(self, n: int) -> float:
        """Smallest bin boundary ``W_0 = alpha/n`` for an ``n``-node graph."""
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        return self.alpha / n

    def w(self, i: int, n: int) -> float:
        """Bin boundary ``W_i = r^i * alpha/n``."""
        if i < 0:
            raise ParameterError(f"bin index must be >= 0, got {i}")
        return (self.r**i) * self.w0(n)

    def num_bins(self, n: int) -> int:
        """Number of long-edge bins ``m = ceil(log_r(n/alpha))``.

        Every edge of an ``n``-node alpha-UBG has length in
        ``I_0 ∪ I_1 ∪ ... ∪ I_m``.
        """
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        if n == 1:
            return 0
        return max(0, math.ceil(math.log(n / self.alpha) / math.log(self.r)))

    def cover_radius(self, i: int, n: int) -> float:
        """Cluster-cover radius ``delta * W_{i-1}`` used in phase ``i >= 1``."""
        if i < 1:
            raise ParameterError(f"cover radius defined for phases >= 1, got {i}")
        return self.delta * self.w(i - 1, n)

    def query_hop_bound(self) -> int:
        """Hop bound of Theorem 9: ``ceil(2*(2*delta + 1)/alpha)``.

        A shortest path certifying ``sp_H(x, y) <= t*|xy|`` lies within this
        many hops of ``x`` in the underlying graph ``G``, independent of the
        phase index.
        """
        return math.ceil(2.0 * (2.0 * self.delta + 1.0) / self.alpha)

    def cluster_hop_bound(self, i: int, n: int) -> int:
        """Hops needed to explore a cluster in phase ``i``:
        ``ceil(2*delta*W_{i-1}/alpha)`` (Section 3.2.1), at least 1."""
        return max(1, math.ceil(2.0 * self.cover_radius(i, n) / self.alpha))

    def cluster_graph_hop_bound(self, i: int, n: int) -> int:
        """Hops needed to build cluster-graph edges in phase ``i``:
        ``ceil(2*(2*delta + 1)*W_{i-1}/alpha)`` (Section 3.2.3), at least 1."""
        radius = (2.0 * self.delta + 1.0) * self.w(i - 1, n)
        return max(1, math.ceil(2.0 * radius / self.alpha))

    def with_alpha(self, alpha: float) -> "SpannerParams":
        """Return a copy with a different ``alpha`` (re-validated)."""
        return replace(self, alpha=alpha, beta=self._derive_beta(self.t, alpha))

    def describe(self) -> str:
        """Human-readable one-line summary of the parameter bundle."""
        return (
            f"SpannerParams(t={self.t:.4g}, t1={self.t1:.4g}, "
            f"delta={self.delta:.4g}, r={self.r:.4g}, "
            f"theta={math.degrees(self.theta):.3g}deg, beta={self.beta:.4g}, "
            f"alpha={self.alpha:.4g}, d={self.dim}, t_delta={self.t_delta:.4g})"
        )
