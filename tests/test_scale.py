"""Moderate-scale sanity runs.

These guard against super-linear blowups in the sequential pipeline: a
relaxed greedy build on ~1000 nodes must complete in seconds, and its
guarantees must hold at that scale too.  (The distributed simulator is
exercised at scale by the E4 bench instead -- per-phase protocol runs
dominate its cost.)
"""

import time

from repro.core.relaxed_greedy import build_spanner
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import lightness, measure_stretch
from repro.graphs.build import build_udg


class TestThousandNodes:
    def test_build_and_verify(self):
        points = uniform_points(1000, seed=12345, expected_degree=8.0)
        graph = build_udg(points)
        start = time.perf_counter()
        result = build_spanner(graph, points.distance, 0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"build took {elapsed:.1f}s"
        stretch = measure_stretch(graph, result.spanner).max_stretch
        assert stretch <= 1.5 * (1.0 + 1e-9)
        assert result.spanner.max_degree() <= 10
        assert lightness(graph, result.spanner) <= 4.0
