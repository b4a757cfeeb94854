"""``two_hop_within``: the two-edge certificate is exact.

Wherever the kernel marks a pair, every search the library runs reports
the pair within its limit -- the scalar target-directed Dijkstra, the
pair kernel and the sparse ball kernel's fixpoint -- so a caller may
skip that search.  The mask itself must equal a brute-force
common-neighbour check, float sums and near-ties included: weights are
drawn from a pool of values whose sums round, and limits sit exactly on
a two-edge sum or one ulp either side of it.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import (
    dijkstra_distance,
    multi_source_ball_lists,
    pair_distances,
    two_hop_within,
)

TIES = [0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 2.0 / 3.0, 0.5, 0.25]

weights = st.one_of(
    st.sampled_from(TIES),
    st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False),
)


def brute_force(graph, us, vs, limits):
    """The mask by definition: some common neighbour ``z`` with the
    float sum ``w(u, z) + w(z, v)`` within the limit."""
    out = []
    for u, v, limit in zip(us, vs, limits):
        out.append(any(
            z != v and graph.has_edge(z, v)
            and w + graph.weight(z, v) <= limit
            for z, w in graph.neighbor_items(u)
        ))
    return np.array(out, dtype=bool)


def best_two_hop(graph, u, v):
    sums = [
        w + graph.weight(z, v)
        for z, w in graph.neighbor_items(u)
        if z != v and graph.has_edge(z, v)
    ]
    return min(sums) if sums else None


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
        best = best_two_hop(g, u, v)
        mode = draw(st.sampled_from(["on", "below", "above", "free"]))
        if best is None or mode == "free":
            limits.append(draw(st.floats(0.0, 5.0)))
        elif mode == "on":
            limits.append(best)
        else:
            toward = -math.inf if mode == "below" else math.inf
            limits.append(math.nextafter(best, toward))
    return (
        g,
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(limits, dtype=np.float64),
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_mask_is_exact_and_certifies_every_search(instance):
    graph, us, vs, limits = instance
    mask = two_hop_within(graph, us, vs, limits)
    assert mask.dtype == bool and mask.shape == us.shape
    assert np.array_equal(mask, brute_force(graph, us, vs, limits))
    for u, v, limit in zip(us[mask].tolist(), vs[mask].tolist(),
                           limits[mask].tolist()):
        assert dijkstra_distance(graph, u, v, cutoff=limit) <= limit
        assert dijkstra_distance(graph, v, u, cutoff=limit) <= limit
        pair = pair_distances(
            graph, np.array([u]), np.array([v]), cutoff=limit
        )
        assert pair[0] <= limit
        starts, ball, dist = multi_source_ball_lists(graph, [u], limit)
        assert v in ball.tolist()
        assert dist[ball.tolist().index(v)] <= limit


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
    mask = two_hop_within(g, us, vs, limits)
    assert mask.any()
    for _ in range(60):
        u, v = (int(x) for x in rng.integers(0, 40, size=2))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(rng.uniform(0.05, 1.0)))
    assert two_hop_within(g, us, vs, limits)[mask].all()
    sp = pair_distances(g, us[mask], vs[mask], cutoff=float(limits.max()))
    assert (sp <= limits[mask]).all()


class TestEdgeCases:
    def test_no_pairs(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        out = two_hop_within(g, [], [], [])
        assert out.dtype == bool and out.shape == (0,)

    def test_edgeless_graph(self):
        out = two_hop_within(Graph(4), [0, 1, 2], [3, 2, 0], [9.0, 9.0, 9.0])
        assert out.tolist() == [False, False, False]

    def test_degree_zero_source(self):
        g = Graph(4)
        g.add_edge(1, 2, 0.5)
        g.add_edge(2, 3, 0.5)
        out = two_hop_within(g, [0, 1, 3], [2, 3, 0], [5.0, 1.0, 5.0])
        assert out.tolist() == [False, True, False]

    def test_direct_edge_alone_is_no_certificate(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        assert two_hop_within(g, [0], [1], [5.0]).tolist() == [False]

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(GraphError, match="aligned"):
            two_hop_within(Graph(3), [0, 1], [1], [1.0, 1.0])
        with pytest.raises(GraphError, match="aligned"):
            two_hop_within(Graph(3), [0, 1], [1, 2], [1.0])

    def test_out_of_range_vertex_named(self):
        with pytest.raises(GraphError, match="vertex 7 out of range"):
            two_hop_within(Graph(3), [0], [7], [1.0])
