"""Tests for point-process generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.geometry.sampling import (
    annulus_points,
    clustered_points,
    corridor_points,
    grid_jitter_points,
    make_rng,
    side_for_expected_degree,
    uniform_points,
)


class TestMakeRng:
    def test_passthrough_generator(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_seed_determinism(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)


class TestSideForExpectedDegree:
    def test_two_d(self):
        # Sanity: larger target degree -> smaller box.
        assert side_for_expected_degree(100, 12.0) < side_for_expected_degree(
            100, 4.0
        )

    def test_density_held_as_n_grows(self):
        s1 = side_for_expected_degree(100, 8.0)
        s2 = side_for_expected_degree(400, 8.0)
        # Area ratio should track n ratio.
        assert (s2 / s1) ** 2 == pytest.approx(399 / 99, rel=0.01)

    def test_rejects_bad_input(self):
        with pytest.raises(GraphError):
            side_for_expected_degree(1, 8.0)
        with pytest.raises(GraphError):
            side_for_expected_degree(10, 0.0)


class TestUniform:
    def test_count_and_dim(self):
        ps = uniform_points(50, dim=3, seed=0)
        assert len(ps) == 50 and ps.dim == 3

    def test_deterministic_with_seed(self):
        assert uniform_points(10, seed=4) == uniform_points(10, seed=4)

    def test_different_seeds_differ(self):
        assert uniform_points(10, seed=1) != uniform_points(10, seed=2)

    def test_explicit_side_respected(self):
        ps = uniform_points(100, side=2.0, seed=0)
        lo, hi = ps.coords.min(axis=0), ps.coords.max(axis=0)
        assert (hi <= 2.0).all() and (lo >= 0.0).all()

    def test_rejects_zero_points(self):
        with pytest.raises(GraphError):
            uniform_points(0)

    def test_rejects_bad_side(self):
        with pytest.raises(GraphError):
            uniform_points(5, side=-1.0)

    def test_expected_degree_calibration(self):
        """Average UDG degree lands near the requested value."""
        from repro.graphs.build import build_udg

        ps = uniform_points(400, seed=8, expected_degree=8.0)
        g = build_udg(ps)
        avg = 2 * g.num_edges / 400
        assert 5.0 <= avg <= 11.0  # boundary effects shave a little


class TestClustered:
    def test_count(self):
        assert len(clustered_points(80, seed=0)) == 80

    def test_clusters_are_denser_than_uniform(self):
        from repro.graphs.build import build_udg

        c = clustered_points(200, seed=3, cluster_std=0.2, num_clusters=4)
        u = uniform_points(200, seed=3)
        assert build_udg(c).num_edges > build_udg(u).num_edges

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(GraphError):
            clustered_points(10, num_clusters=0)

    def test_points_stay_in_box_without_collisions(self):
        """Out-of-box noise must fold back by reflection, never clip:
        clipping used to collapse outliers onto box corners, producing
        zero-distance pairs that break graph construction."""
        for seed in range(6):
            ps = clustered_points(
                60, seed=seed, cluster_std=3.0, side=2.0, num_clusters=2
            )
            lo, hi = ps.coords.min(axis=0), ps.coords.max(axis=0)
            assert (lo >= 0.0).all() and (hi <= 2.0).all()
            assert len(np.unique(ps.coords, axis=0)) == len(ps)


class TestGridJitter:
    def test_count(self):
        assert len(grid_jitter_points(30, seed=0)) == 30

    def test_zero_jitter_is_lattice(self):
        ps = grid_jitter_points(9, spacing=1.0, jitter=0.0, seed=0)
        coords = {tuple(np.round(p, 6)) for p in ps}
        assert len(coords) == 9
        assert all(c[0] in (0.0, 1.0, 2.0) for c in coords)

    def test_rejects_bad_spacing(self):
        with pytest.raises(GraphError):
            grid_jitter_points(5, spacing=0.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(GraphError):
            grid_jitter_points(5, jitter=-0.1)


class TestCorridor:
    def test_shape(self):
        ps = corridor_points(40, length=20.0, width=1.0, seed=0)
        lo, hi = ps.coords.min(axis=0), ps.coords.max(axis=0)
        assert hi[0] <= 20.0 and hi[1] <= 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(GraphError):
            corridor_points(5, length=-1.0)


class TestAnnulus:
    def test_points_inside_annulus(self):
        ps = annulus_points(60, inner=2.0, outer=4.0, seed=0)
        center = np.array([4.0, 4.0])  # shifted by +outer
        for p in ps:
            r = float(np.linalg.norm(p - center))
            assert 2.0 - 1e-9 <= r <= 4.0 + 1e-9

    def test_rejects_bad_radii(self):
        with pytest.raises(GraphError):
            annulus_points(5, inner=3.0, outer=2.0)
