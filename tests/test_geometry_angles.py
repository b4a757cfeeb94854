"""Tests for coordinate-free angle computation (law of cosines)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.geometry.angles import angle_at_vertex, angle_from_sides, yao_cone_count

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestAngleFromSides:
    def test_right_angle(self):
        # 3-4-5 triangle: angle between the 3 and 4 legs is 90 degrees.
        assert angle_from_sides(5.0, 3.0, 4.0) == pytest.approx(math.pi / 2)

    def test_equilateral(self):
        assert angle_from_sides(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3)

    def test_degenerate_collinear(self):
        assert angle_from_sides(2.0, 1.0, 1.0) == pytest.approx(math.pi)

    def test_zero_opposite(self):
        assert angle_from_sides(0.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_rejects_zero_adjacent(self):
        with pytest.raises(GraphError):
            angle_from_sides(1.0, 0.0, 1.0)

    def test_rejects_negative_opposite(self):
        with pytest.raises(GraphError):
            angle_from_sides(-1.0, 1.0, 1.0)

    def test_clamps_fp_violation(self):
        # Slightly-too-long opposite side from rounding: angle stays pi.
        assert angle_from_sides(2.0000000001, 1.0, 1.0) == pytest.approx(
            math.pi
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(finite, finite),
        st.tuples(finite, finite),
        st.tuples(finite, finite),
    )
    # A needle: |pq| rounds to fl(1 - 1e-5), and the triangle with those
    # three float sides has an angle of 3.0e-6 rad, not 0.
    @example((0.0, 0.0), (1.0, 0.0), (1e-5, 0.0))
    def test_matches_coordinate_angle(self, apex, p, q):
        """Property: law-of-cosines angle == coordinate angle (the
        Section 1.1 'distances only' computation is exact), within the
        side-rounding error stated by ``angle_from_sides``."""
        apex, p, q = np.array(apex), np.array(p), np.array(q)
        da = float(np.linalg.norm(p - apex))
        db = float(np.linalg.norm(q - apex))
        if da < 1e-6 or db < 1e-6:
            return  # degenerate rays
        dpq = float(np.linalg.norm(p - q))
        expected = angle_at_vertex(apex, p, q)
        computed = angle_from_sides(dpq, da, db)
        eps = np.finfo(float).eps
        rounding = math.sqrt(6.0 * eps) * dpq / math.sqrt(da * db)
        assert computed == pytest.approx(expected, abs=1e-6 + rounding)


class TestAngleAtVertex:
    def test_right_angle(self):
        assert angle_at_vertex(
            np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(math.pi / 2)

    def test_rejects_zero_ray(self):
        with pytest.raises(GraphError):
            angle_at_vertex(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))

    def test_works_in_3d(self):
        assert angle_at_vertex(
            np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])
        ) == pytest.approx(math.pi / 2)


class TestYaoConeCount:
    def test_positive_integer(self):
        assert yao_cone_count(0.3, 2) >= 1

    def test_grows_with_dimension(self):
        assert yao_cone_count(0.3, 3) > yao_cone_count(0.3, 2)

    def test_grows_as_theta_shrinks(self):
        assert yao_cone_count(0.05, 2) > yao_cone_count(0.5, 2)

    def test_rejects_bad_theta(self):
        with pytest.raises(GraphError):
            yao_cone_count(0.0, 2)
        with pytest.raises(GraphError):
            yao_cone_count(math.pi, 2)

    def test_rejects_bad_dim(self):
        with pytest.raises(GraphError):
            yao_cone_count(0.3, 1)
