"""Tests for the GridIndex fixed-radius query structure.

Each vertex's neighbours are read off the one radius query the builders
run, :meth:`GridIndex.pairs_within_arrays`, and compared with a brute
force scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.geometry.grid import GridIndex
from repro.geometry.points import PointSet


def neighbors_within(index: GridIndex, idx: int, radius: float) -> list[int]:
    u, v, _ = index.pairs_within_arrays(radius)
    return sorted(v[u == idx].tolist() + u[v == idx].tolist())


def brute_neighbors(points: PointSet, idx: int, radius: float) -> list[int]:
    out = []
    for other in range(len(points)):
        if other != idx and points.distance(idx, other) <= radius:
            out.append(other)
    return out


class TestGridIndex:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(GraphError):
            GridIndex(PointSet([[0.0, 0.0]]), 0.0)

    def test_rejects_negative_radius(self):
        index = GridIndex(PointSet([[0.0, 0.0]]), 1.0)
        with pytest.raises(GraphError):
            index.pairs_within_arrays(-1.0)

    def test_simple_pair(self):
        ps = PointSet([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        index = GridIndex(ps, 1.0)
        assert neighbors_within(index, 0, 1.0) == [1]

    def test_boundary_inclusive(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0]])
        assert neighbors_within(GridIndex(ps, 1.0), 0, 1.0) == [1]

    def test_radius_larger_than_cell(self):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.uniform(0, 4, size=(40, 2)))
        index = GridIndex(ps, 0.5)
        for u in (0, 7, 21):
            assert neighbors_within(index, u, 1.7) == brute_neighbors(
                ps, u, 1.7
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 25),
        st.floats(0.1, 3.0),
        st.integers(0, 10_000),
    )
    def test_matches_bruteforce(self, n, radius, seed):
        """Property: grid query == brute force, all points, any radius."""
        rng = np.random.default_rng(seed)
        ps = PointSet(rng.uniform(0, 5, size=(n, 2)))
        index = GridIndex(ps, cell_width=1.0)
        for u in range(n):
            assert neighbors_within(index, u, radius) == brute_neighbors(
                ps, u, radius
            )

    def test_works_in_3d(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.uniform(0, 2, size=(25, 3)))
        index = GridIndex(ps, 1.0)
        for u in (0, 12, 24):
            assert neighbors_within(index, u, 1.0) == brute_neighbors(
                ps, u, 1.0
            )
