"""``three_hop_within``: the certificate of two or three edges is exact.

Wherever the kernel marks a pair, every search the library runs reports
the pair within its limit -- the scalar target-directed Dijkstra from
either end, the pair kernel and the sparse ball kernel's fixpoint -- so
a caller may skip that search.  The mask itself must equal the
brute-force definition (``tests/oracles/paths.py``), float sums and
near-ties included: weights are drawn from a pool of values whose sums
round, and limits sit exactly on a path sum -- of two edges, or of
three taken from either end -- or one ulp either side of it.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.paths import short_path_sums, three_hop_reference
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    dijkstra_distance,
    multi_source_ball_lists,
    pair_distances,
    three_hop_within,
)

TIES = [0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 2.0 / 3.0, 0.5, 0.25]

weights = st.one_of(
    st.sampled_from(TIES),
    st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 10))
    g = Graph(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v, draw(weights))
    k = draw(st.integers(0, 12))
    us = [draw(st.integers(0, n - 1)) for _ in range(k)]
    vs = [draw(st.integers(0, n - 1)) for _ in range(k)]
    limits = []
    for u, v in zip(us, vs):
        sums = [x for path in short_path_sums(g, u, v) for x in path]
        mode = draw(st.sampled_from(["on", "below", "above", "free"]))
        if not sums or mode == "free":
            limits.append(draw(st.floats(0.0, 5.0)))
            continue
        on = draw(st.sampled_from(sums))
        if mode == "on":
            limits.append(on)
        else:
            toward = -math.inf if mode == "below" else math.inf
            limits.append(math.nextafter(on, toward))
    return (
        g,
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(limits, dtype=np.float64),
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_mask_is_exact_and_certifies_every_search(instance):
    graph, us, vs, limits = instance
    mask = three_hop_within(graph, us, vs, limits)
    assert mask.dtype == bool and mask.shape == us.shape
    assert np.array_equal(mask, three_hop_reference(graph, us, vs, limits))
    for u, v, limit in zip(us[mask].tolist(), vs[mask].tolist(),
                           limits[mask].tolist()):
        for a, b in ((u, v), (v, u)):
            assert dijkstra_distance(graph, a, b, cutoff=limit) <= limit
            pair = pair_distances(
                graph, np.array([a]), np.array([b]), cutoff=limit
            )
            assert pair[0] <= limit
            starts, ball, dist = multi_source_ball_lists(graph, [a], limit)
            assert b in ball.tolist()
            assert dist[ball.tolist().index(b)] <= limit


def test_settled_pairs_stay_settled_as_edges_are_added():
    rng = np.random.default_rng(5)
    g = Graph(40)
    for _ in range(120):
        u, v = (int(x) for x in rng.integers(0, 40, size=2))
        if u != v:
            g.add_edge(u, v, float(rng.choice(TIES)))
    us = rng.integers(0, 40, size=300)
    vs = rng.integers(0, 40, size=300)
    limits = rng.uniform(0.2, 1.5, size=300)
    mask = three_hop_within(g, us, vs, limits)
    assert mask.any()
    for _ in range(60):
        u, v = (int(x) for x in rng.integers(0, 40, size=2))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(rng.uniform(0.05, 1.0)))
    assert three_hop_within(g, us, vs, limits)[mask].all()
    sp = pair_distances(g, us[mask], vs[mask], cutoff=float(limits.max()))
    assert (sp <= limits[mask]).all()


class TestEdgeCases:
    def test_no_pairs(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        out = three_hop_within(g, [], [], [])
        assert out.dtype == bool and out.shape == (0,)

    def test_edgeless_graph(self):
        out = three_hop_within(
            Graph(4), [0, 1, 2], [3, 2, 0], [9.0, 9.0, 9.0]
        )
        assert out.tolist() == [False, False, False]

    def test_degree_zero_source(self):
        g = Graph(4)
        g.add_edge(1, 2, 0.5)
        g.add_edge(2, 3, 0.5)
        out = three_hop_within(g, [0, 1, 3], [2, 3, 0], [5.0, 1.0, 5.0])
        assert out.tolist() == [False, True, False]

    def test_direct_edge_alone_is_no_certificate(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        assert three_hop_within(g, [0], [1], [5.0]).tolist() == [False]
        # Walks that return through an endpoint are no certificate
        # either: 0-1-2-1 and 0-3 with no way on to 1.
        g = Graph(4)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.5)
        g.add_edge(0, 3, 0.5)
        out = three_hop_within(g, [0, 1], [1, 0], [9.0, 9.0])
        assert out.tolist() == [False, False]

    def test_three_edge_path_on_its_limit(self):
        g = Graph(4)
        g.add_edge(0, 1, 0.1)
        g.add_edge(1, 2, 0.2)
        g.add_edge(2, 3, 0.3)
        # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 and 0.3 + 0.2 +
        # 0.1 to 0.6: a limit of 0.6 fits the sum from one end only.
        total = max(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1)
        below = math.nextafter(total, 0.0)
        assert below == min(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1)
        out = three_hop_within(
            g, [0, 3, 0, 3], [3, 0, 3, 0], [total, total, below, below]
        )
        assert out.tolist() == [True, True, False, False]

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(GraphError, match="aligned"):
            three_hop_within(Graph(3), [0, 1], [1], [1.0, 1.0])
        with pytest.raises(GraphError, match="aligned"):
            three_hop_within(Graph(3), [0, 1], [1, 2], [1.0])

    def test_out_of_range_vertex_named(self):
        with pytest.raises(GraphError, match="vertex 7 out of range"):
            three_hop_within(Graph(3), [0], [7], [1.0])
