"""Tests for repro.geometry.points.PointSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import GraphError
from repro.geometry.points import PointSet

coords_strategy = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 4)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestConstruction:
    def test_basic(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        assert len(ps) == 2 and ps.dim == 2

    def test_rejects_1d(self):
        with pytest.raises(GraphError):
            PointSet([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(GraphError):
            PointSet([[0.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(GraphError):
            PointSet([[0.0, float("inf")]])

    def test_coords_are_readonly(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0

    def test_source_array_copied(self):
        src = np.zeros((2, 2))
        ps = PointSet(src)
        src[0, 0] = 9.0
        assert ps[0][0] == 0.0


class TestDistances:
    def test_345_triangle(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        assert ps.distance(0, 1) == pytest.approx(5.0)

    def test_sq_distance(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        assert ps.sq_distances_between([0], [1])[0] == pytest.approx(25.0)

    @settings(max_examples=30, deadline=None)
    @given(coords_strategy)
    def test_metric_axioms(self, coords):
        ps = PointSet(coords)
        n = len(ps)
        for u in range(min(n, 4)):
            assert ps.distance(u, u) == 0.0
            for v in range(min(n, 4)):
                assert ps.distance(u, v) == pytest.approx(ps.distance(v, u))
                for w in range(min(n, 4)):
                    assert ps.distance(u, w) <= (
                        ps.distance(u, v) + ps.distance(v, w) + 1e-9
                    )


class TestTransforms:
    def test_scaled(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0]]).scaled(3.0)
        assert ps.distance(0, 1) == pytest.approx(3.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            PointSet([[0.0, 0.0]]).scaled(0.0)

    def test_subset_relabels(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        sub = ps.subset([0, 2])
        assert len(sub) == 2 and sub.distance(0, 1) == pytest.approx(2.0)


class TestEquality:
    def test_equal_and_hash(self):
        a = PointSet([[0.0, 1.0]])
        b = PointSet([[0.0, 1.0]])
        assert a == b and hash(a) == hash(b)

    def test_not_equal_different_coords(self):
        assert PointSet([[0.0, 1.0]]) != PointSet([[0.0, 2.0]])

    def test_repr(self):
        assert "n=1" in repr(PointSet([[0.0, 1.0]]))
