"""``detour_lower_bounds``: a sound keep-bound for the redundancy prune.

On graphs whose weights are the Euclidean lengths between their
endpoints -- what every spanner the library builds carries -- the bound
never exceeds the detour :func:`detour_distance` finds (within the
relative ``1e-9`` the prune allows for rounding), so an edge the bound
keeps never has a ``t1``-detour.  Points come off a fine grid or a
coarse lattice, where collinear triples make a detour exactly as long
as the bound.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.paths import detour_bound_reference
from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.paths import detour_distance, detour_lower_bounds

SLACK = 1e-9  # the prune's relative slack (cluster_graph._REGION_SLACK)


def euclidean_graph(coords, pairs):
    """The graph on ``pairs`` weighted by the einsum/sqrt lengths the
    session and the builders use."""
    g = Graph(coords.shape[0])
    for u, v in pairs:
        diff = coords[u] - coords[v]
        g.add_edge(u, v, float(np.sqrt(np.einsum("i,i->", diff, diff))))
    return g


@st.composite
def geometric_graphs(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        cells = draw(
            st.lists(
                st.tuples(*[st.integers(0, 4)] * dim),
                min_size=2, max_size=n, unique=True,
            )
        )
        coords = 0.25 * np.array(cells, dtype=np.float64)
    else:
        spots = draw(
            st.lists(
                st.tuples(*[st.integers(0, 1500)] * dim),
                min_size=2, max_size=n, unique=True,
            )
        )
        coords = np.array(spots, dtype=np.float64) / 1000.0
    m = coords.shape[0]
    pairs = [
        (u, v)
        for u in range(m)
        for v in range(u + 1, m)
        if math.dist(coords[u], coords[v]) <= 1.0
        and draw(st.booleans())
    ]
    t1 = draw(st.floats(1.0, 3.0))
    return euclidean_graph(coords, pairs), coords, t1


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(geometric_graphs())
def test_bound_is_sound_and_keeps_only_edges_without_a_detour(instance):
    graph, coords, t1 = instance
    us, vs, ws = graph.edges_arrays()
    bound = detour_lower_bounds(graph, coords, us, vs)
    assert bound.shape == us.shape
    for a, b, w, lb in zip(us.tolist(), vs.tolist(), ws.tolist(),
                           bound.tolist()):
        assert lb == pytest.approx(
            detour_bound_reference(graph, coords, a, b), rel=1e-12
        )
        assert lb <= detour_distance(graph, a, b) * (1.0 + SLACK)
        if lb > t1 * w * (1.0 + SLACK):
            assert detour_distance(graph, a, b, cutoff=t1 * w) > t1 * w


def test_collinear_detour_meets_the_bound():
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    graph = euclidean_graph(coords, [(0, 1), (1, 2), (0, 2)])
    (lb,) = detour_lower_bounds(graph, coords, [0], [2]).tolist()
    assert lb == 1.0 == detour_distance(graph, 0, 2)


def test_endpoint_without_another_neighbour_gives_inf():
    coords = np.array([[0.0, 0.0], [0.6, 0.0], [0.0, 0.6], [0.9, 0.9]])
    graph = euclidean_graph(coords, [(0, 1), (0, 2)])
    bound = detour_lower_bounds(graph, coords, [0, 1, 0], [1, 0, 3])
    assert bound.tolist() == [math.inf, math.inf, math.inf]
    assert detour_distance(graph, 0, 1) == math.inf


def test_no_pairs():
    coords = np.zeros((3, 2))
    out = detour_lower_bounds(Graph(3), coords, [], [])
    assert out.dtype == np.float64 and out.shape == (0,)


def test_bad_arguments_rejected():
    coords = np.zeros((3, 2))
    with pytest.raises(GraphError, match="aligned"):
        detour_lower_bounds(Graph(3), coords, [0, 1], [1])
    with pytest.raises(GraphError, match="one row per vertex"):
        detour_lower_bounds(Graph(3), coords[:2], [0], [1])
    with pytest.raises(GraphError, match="vertex 7 out of range"):
        detour_lower_bounds(Graph(3), coords, [0], [7])
