"""Bucketed delta-stepping ball kernel: bit-equality pins.

``multi_source_ball_lists`` now runs bucketed delta-stepping; this
suite pins it bit-for-bit against the retained label-correcting
reference (and, transitively, against scalar Dijkstra, which the
reference is already pinned to elsewhere) across cutoff regimes, the
empty/degenerate corners and a graph mutated after its matrix was
cached.
"""

import numpy as np
import pytest

from repro.geometry.sampling import uniform_points
from repro.graphs.build import build_udg
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    multi_source_ball_lists,
    multi_source_ball_lists_reference,
)


def _assert_bit_identical(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit-for-bit, floats included


class TestBucketedEquality:
    @pytest.mark.parametrize(
        "n,side,cutoff",
        [
            (200, 4.0, 0.7),
            (500, 8.0, 1.5),
            (300, 3.0, 0.0),  # zero cutoff: balls are the sources
            (400, 20.0, 2.5),  # sparse, many components
            (250, 5.0, 50.0),  # cutoff beyond the diameter
        ],
    )
    def test_matches_reference(self, n, side, cutoff):
        pts = uniform_points(n, seed=n % 97, side=side)
        g = build_udg(pts)
        rng = np.random.default_rng(n)
        srcs = rng.choice(n, size=min(n, 64), replace=False)
        _assert_bit_identical(
            multi_source_ball_lists(g, srcs, cutoff),
            multi_source_ball_lists_reference(g, srcs, cutoff),
        )

    def test_duplicate_sources(self):
        pts = uniform_points(120, seed=5, side=3.0)
        g = build_udg(pts)
        srcs = [4, 4, 17, 4]
        _assert_bit_identical(
            multi_source_ball_lists(g, srcs, 0.9),
            multi_source_ball_lists_reference(g, srcs, 0.9),
        )

    def test_empty_sources(self):
        g = Graph(10)
        _assert_bit_identical(
            multi_source_ball_lists(g, [], 1.0),
            multi_source_ball_lists_reference(g, [], 1.0),
        )

    def test_mutated_graph(self):
        # The kernels read the cached matrix; after overwrites, deletes
        # and appends on a warmed graph they must see the rebuilt one.
        pts = uniform_points(300, seed=31, side=4.0)
        g = build_udg(pts)
        g.csr()
        rng = np.random.default_rng(8)
        edges = list(g.edges())
        rng.shuffle(edges)
        for u, v, w in edges[:30]:
            g.add_edge(u, v, 0.5 * w)  # overwrite
        for u, v, _ in edges[30:60]:
            g.remove_edge(u, v)
        added = 0
        while added < 40:
            a, b = int(rng.integers(300)), int(rng.integers(300))
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b, float(rng.uniform(0.05, 0.4)))
                added += 1
        srcs = rng.choice(300, size=48, replace=False)
        _assert_bit_identical(
            multi_source_ball_lists(g, srcs, 1.2),
            multi_source_ball_lists_reference(g, srcs, 1.2),
        )

    def test_reentrant_band_convergence(self):
        # A long chain of short edges forces many re-relaxations inside
        # one distance band (the delta-stepping "light edge" loop).
        g = Graph(64)
        for i in range(63):
            g.add_edge(i, i + 1, 0.001)
        g.add_edge(0, 63, 0.9)  # a heavy shortcut, later improved past
        _assert_bit_identical(
            multi_source_ball_lists(g, [0], 1.0),
            multi_source_ball_lists_reference(g, [0], 1.0),
        )
