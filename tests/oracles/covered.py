"""Scalar reference of the covered-edge filter (Section 2.2.2).

One witness loop per edge and orientation, with scalar oracle calls:
the semantic anchor :func:`repro.core.covered.split_covered` is pinned
against.
"""

from __future__ import annotations

from repro.core.oracle import DistanceOracle
from repro.exceptions import GraphError
from repro.geometry.angles import angle_from_sides
from repro.graphs.graph import Graph


def _has_witness(
    u: int,
    v: int,
    length: float,
    spanner: Graph,
    dist: DistanceOracle,
    alpha: float,
    theta: float,
) -> bool:
    """Witness search for the (u -> v) orientation of the covered test."""
    for z, _ in spanner.neighbor_items(u):
        if z == v:
            continue
        uz = dist(u, z)
        if uz > length or uz <= 0.0:
            continue  # Lemma 3 needs |uz| <= |uv|
        vz = dist(v, z)
        if vz > alpha:
            continue  # {v, z} must be a guaranteed network edge
        if angle_from_sides(vz, length, uz) <= theta:
            return True
    return False


def is_covered(
    u: int,
    v: int,
    length: float,
    spanner: Graph,
    dist: DistanceOracle,
    *,
    alpha: float,
    theta: float,
) -> bool:
    """Whether edge ``{u, v}`` (of Euclidean length ``length``) is covered.

    Parameters
    ----------
    u, v:
        Edge endpoints.
    length:
        Euclidean length ``|uv|``; must be positive.
    spanner:
        The partial spanner ``G'_{i-1}`` whose edges act as witnesses.
    dist:
        Distance oracle over vertex ids (scalar calls only).
    alpha:
        Quasi-UBG parameter (witness leg must satisfy ``|vz| <= alpha``).
    theta:
        Cone half-angle; caller is responsible for Lemma 3's constraint
        (use :class:`repro.params.SpannerParams`).
    """
    if length <= 0.0:
        raise GraphError(f"edge length must be positive, got {length}")
    return _has_witness(u, v, length, spanner, dist, alpha, theta) or _has_witness(
        v, u, length, spanner, dist, alpha, theta
    )


def split_covered_reference(
    edges: list[tuple[int, int, float]],
    spanner: Graph,
    dist: DistanceOracle,
    *,
    alpha: float,
    theta: float,
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int, float]]]:
    """Scalar reference partition: one :func:`is_covered` call per edge.

    The semantic anchor the flattened witness scan of
    :func:`repro.core.covered.split_covered` is pinned against.
    """
    candidates: list[tuple[int, int, float]] = []
    covered: list[tuple[int, int, float]] = []
    for u, v, w in edges:
        if is_covered(u, v, w, spanner, dist, alpha=alpha, theta=theta):
            covered.append((u, v, w))
        else:
            candidates.append((u, v, w))
    return candidates, covered
