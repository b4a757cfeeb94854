"""Coordinate-free angle computations.

Section 1.1 of the paper stresses that the algorithm "does not need to know
the locations of nodes ... just the pairwise Euclidean distances".  The only
geometric predicate the algorithm uses is the covered-edge test
``angle(v, u, z) <= theta`` (Section 2.2.2), and the angle at a triangle
vertex is determined by the three side lengths via the law of cosines.
This module implements that computation, plus Yao's cone-count bound
used in the Theorem 11 degree analysis.
"""

from __future__ import annotations

import math

from ..exceptions import GraphError

__all__ = ["angle_from_sides", "yao_cone_count"]


def angle_from_sides(opposite: float, side_a: float, side_b: float) -> float:
    """Angle (radians) opposite to ``opposite`` in a triangle.

    Given a triangle with side lengths ``opposite``, ``side_a`` and
    ``side_b``, returns the angle between the sides ``side_a`` and
    ``side_b`` (i.e. the angle facing ``opposite``) using the law of
    cosines::

        cos(angle) = (side_a^2 + side_b^2 - opposite^2) / (2*side_a*side_b)

    The cosine is clamped to ``[-1, 1]`` so that distances that violate the
    triangle inequality by floating-point epsilon still produce an angle.

    Precondition on precision: the angle is that of the triangle with
    exactly these three sides.  Sides rounded from coordinates define a
    slightly different triangle, and ``acos`` turns the rounding into an
    angle error of about ``sqrt(6*eps) * opposite / sqrt(side_a*side_b)``
    (``eps`` the float64 machine epsilon).  For sides of similar length
    that is ~4e-8 rad; for a needle with sides 1 and 1e-5 it is ~1e-5 rad.

    Parameters
    ----------
    opposite, side_a, side_b:
        Triangle side lengths; ``side_a`` and ``side_b`` must be positive.

    Returns
    -------
    float
        Angle in radians, in ``[0, pi]``.
    """
    if side_a <= 0.0 or side_b <= 0.0:
        raise GraphError(
            f"adjacent sides must be positive; got {side_a}, {side_b}"
        )
    if opposite < 0.0:
        raise GraphError(f"opposite side must be >= 0; got {opposite}")
    cos_val = (side_a * side_a + side_b * side_b - opposite * opposite) / (
        2.0 * side_a * side_b
    )
    cos_val = max(-1.0, min(1.0, cos_val))
    return math.acos(cos_val)


def yao_cone_count(theta: float, dim: int) -> int:
    """Yao's bound on the number of ``theta``-cones covering the unit ball.

    Theorem 11's degree analysis partitions the unit ball around a vertex
    into ``T`` cones of half-angle ``theta`` such that any two points in a
    cone subtend an angle at most ``theta`` at the apex.  Yao [20] shows

        ``T = O(d^{3/2} * sin^{-d}(theta/2) * log(d * sin^{-1}(theta/2)))``.

    We return that expression rounded up; it is used only to report the
    theoretical degree constant alongside measured degrees, never to drive
    the algorithm.

    Parameters
    ----------
    theta:
        Cone half-angle in radians, ``0 < theta < pi``.
    dim:
        Euclidean dimension ``d >= 2``.
    """
    if not 0.0 < theta < math.pi:
        raise GraphError(f"theta must lie in (0, pi); got {theta}")
    if dim < 2:
        raise GraphError(f"dimension must be >= 2; got {dim}")
    inv_sin = 1.0 / math.sin(theta / 2.0)
    count = dim**1.5 * inv_sin**dim * max(1.0, math.log(dim * inv_sin))
    return math.ceil(count)
