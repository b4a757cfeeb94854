"""Geometric substrate: points, metrics, angles, grids, sampling.

Everything in :mod:`repro.core` is coordinate-free (it consumes pairwise
distances only, per Section 1.1 of the paper); this package supplies the
coordinates, distance queries and point processes that workloads and
baselines need.
"""

from .angles import angle_from_sides, yao_cone_count
from .doubling import DoublingReport, estimate_doubling_dimension
from .grid import GridIndex
from .metrics import EdgeMetric, EnergyMetric, EuclideanMetric
from .points import PointSet
from .sampling import (
    annulus_points,
    clustered_points,
    corridor_points,
    grid_jitter_points,
    make_rng,
    side_for_expected_degree,
    uniform_points,
)

__all__ = [
    "PointSet",
    "GridIndex",
    "EdgeMetric",
    "EuclideanMetric",
    "EnergyMetric",
    "angle_from_sides",
    "yao_cone_count",
    "DoublingReport",
    "estimate_doubling_dimension",
    "make_rng",
    "side_for_expected_degree",
    "uniform_points",
    "clustered_points",
    "grid_jitter_points",
    "corridor_points",
    "annulus_points",
]
