"""Tests for geometric edge binning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.edges import batch, tuples

from repro.core.bins import EdgeBinning
from repro.exceptions import GraphError, ParameterError
from repro.params import SpannerParams


class TestConstruction:
    def test_rejects_r_at_most_one(self):
        with pytest.raises(ParameterError):
            EdgeBinning(1.0, 1.0, 10)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            EdgeBinning(1.1, 0.0, 10)
        with pytest.raises(ParameterError):
            EdgeBinning(1.1, 2.0, 10)  # alpha > upper

    def test_rejects_bad_n(self):
        with pytest.raises(GraphError):
            EdgeBinning(1.1, 1.0, 0)

    def test_for_params(self):
        p = SpannerParams.from_epsilon(0.5)
        b = EdgeBinning.for_params(p, 100)
        assert b.r == p.r
        assert b.boundary(0) == pytest.approx(p.w0(100))


class TestBoundaries:
    def test_w0(self):
        b = EdgeBinning(1.5, 0.8, 40)
        assert b.boundary(0) == pytest.approx(0.02)

    def test_geometric_growth(self):
        b = EdgeBinning(1.5, 1.0, 10)
        assert b.boundary(3) == pytest.approx(b.boundary(2) * 1.5)

    def test_top_boundary_covers_unit(self):
        for n in (2, 7, 100, 5000):
            b = EdgeBinning(1.03, 0.7, n)
            assert b.boundary(b.num_bins) >= 1.0

    def test_interval_shape(self):
        b = EdgeBinning(2.0, 1.0, 4)
        assert b.interval(0) == (0.0, 0.25)
        assert b.interval(1) == (0.25, 0.5)
        assert b.interval(2) == (0.5, 1.0)

    def test_negative_index_rejected(self):
        with pytest.raises(GraphError):
            EdgeBinning(1.5, 1.0, 10).boundary(-1)


class TestBinOf:
    def test_short_edge_in_bin_zero(self):
        b = EdgeBinning(1.5, 1.0, 10)
        assert b.bin_of(0.05) == 0
        assert b.bin_of(0.1) == 0  # boundary inclusive

    def test_just_above_w0(self):
        b = EdgeBinning(1.5, 1.0, 10)
        assert b.bin_of(0.100001) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            EdgeBinning(1.5, 1.0, 10).bin_of(0.0)

    def test_rejects_above_unit(self):
        b = EdgeBinning(1.5, 1.0, 10)
        with pytest.raises(GraphError):
            b.bin_of(b.boundary(b.num_bins) * 1.5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(1e-6, 1.0),
        st.floats(1.01, 2.0),
        st.floats(0.3, 1.0),
        st.integers(2, 2000),
    )
    def test_partition_property(self, length, r, alpha, n):
        """Property: every length in (0,1] lands in exactly the interval
        that contains it."""
        b = EdgeBinning(r, alpha, n)
        idx = b.bin_of(length)
        lo, hi = b.interval(idx)
        assert lo < length <= hi


class TestAssign:
    def test_groups_by_bin(self):
        b = EdgeBinning(2.0, 1.0, 4)  # W: 0.25, 0.5, 1.0
        edges = [(0, 1, 0.1), (1, 2, 0.3), (2, 3, 0.9), (0, 3, 0.26)]
        bins = b.assign(batch(edges))
        assert sorted(bins) == [0, 1, 2]
        assert tuples(bins[0]) == [(0, 1, 0.1)]
        assert sorted(tuples(bins[1])) == [(0, 3, 0.26), (1, 2, 0.3)]
        assert tuples(bins[2]) == [(2, 3, 0.9)]

    def test_empty_input(self):
        assert EdgeBinning(1.5, 1.0, 4).assign(batch([])) == {}

    def test_every_edge_assigned_once(self):
        import numpy as np

        rng = np.random.default_rng(0)
        edges = [
            (i, i + 1, float(rng.uniform(1e-4, 1.0))) for i in range(200)
        ]
        bins = EdgeBinning(1.1, 0.9, 300).assign(batch(edges))
        total = sum(v.w.size for v in bins.values())
        assert total == 200
