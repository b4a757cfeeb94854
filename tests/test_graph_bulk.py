"""Bulk edge writes against their one-edge forms.

``Graph.remove_edges_arrays`` must leave exactly what repeated
``remove_edge`` calls in batch order leave -- edges, weights, edge
count, the edge store's rows in order and the CSR matrix -- and
``add_weighted_edges_arrays`` what repeated ``add_edge`` calls leave,
for batches that mix present and new edges.  A bad batch names its
first bad edge and writes nothing, and arrays or matrices handed out
before a bulk write stay as they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def state(g):
    us, vs, ws = g.edges_arrays()
    return (
        sorted(g.edges()),
        g.num_edges,
        (us.tolist(), vs.tolist(), ws.tolist()),
        g.csr().toarray().tolist(),
    )


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=30,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.01, 2.0), min_size=len(pairs), max_size=len(pairs)
        )
    )
    g = Graph(n)
    for (u, v), w in zip(pairs, weights):
        g.add_edge(u, v, w)
    return g


def twins(g):
    return g.copy(), g.copy()


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_bulk_removal_equals_repeated_remove_edge(g, data):
    edges = [(u, v) for u, v, _ in g.edges()]
    picked = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    picked = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in picked]
    bulk, one = twins(g)
    bulk.edges_arrays()  # handed-out views force the copy-on-write path
    one.edges_arrays()
    bulk.remove_edges_arrays(
        np.array([u for u, _ in picked], dtype=np.int64),
        np.array([v for _, v in picked], dtype=np.int64),
    )
    for u, v in picked:
        one.remove_edge(u, v)
    assert state(bulk) == state(one)


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_bulk_insert_equals_repeated_add_edge(g, data):
    n = g.num_vertices
    batch = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.01, 2.0)
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        )
    )
    bulk, one = twins(g)
    bulk.edges_arrays()
    one.edges_arrays()
    if batch:
        u, v, w = (np.array(col) for col in zip(*batch))
        bulk.add_weighted_edges_arrays(u, v, w)
    for u, v, w in batch:
        one.add_edge(u, v, w)
    assert state(bulk) == state(one)


def small():
    g = Graph(5)
    for u, v, w in [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25), (3, 4, 2.0)]:
        g.add_edge(u, v, w)
    return g


@pytest.mark.parametrize(
    "us, vs, message",
    [
        ([0, 0], [1, 2], r"edge \(0, 2\) not in graph"),
        ([1, 7], [2, 3], r"vertex 7 out of range \[0, 5\)"),
        ([2, -1], [3, 0], r"vertex -1 out of range \[0, 5\)"),
        ([3, 2], [4, 2], "self-loop at vertex 2"),
        ([0, 2, 1], [1, 3, 0], r"edge \(1, 0\) not in graph"),  # repeated
        ([4, 0], [0, 1], r"edge \(4, 0\) not in graph"),  # first bad wins
    ],
    ids=["absent", "out-of-range", "negative", "self-loop", "repeated", "first"],
)
def test_bad_removal_names_the_first_bad_edge_and_writes_nothing(us, vs, message):
    g = small()
    before = state(g)
    with pytest.raises(GraphError, match=message):
        g.remove_edges_arrays(np.array(us), np.array(vs))
    assert state(g) == before


def test_misaligned_removal_rejected():
    g = small()
    with pytest.raises(GraphError, match="aligned"):
        g.remove_edges_arrays(np.array([0, 1]), np.array([1]))
    g.remove_edges_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.num_edges == 4


@pytest.mark.parametrize(
    "us, vs, left",
    [
        ([1, 0], [2, 1], [(0, 4, 3.0), (2, 3, 9.0), (3, 4, 2.0)]),
        # Only the last rows go, so no row moves, and the insert that
        # follows reuses the rows the handed-out arrays still show.
        ([4, 2], [3, 3], [(0, 1, 1.0), (0, 4, 3.0), (1, 2, 0.5), (2, 3, 9.0)]),
    ],
    ids=["rows-move", "tail-only"],
)
def test_handed_out_arrays_and_matrices_stay_unchanged(us, vs, left):
    g = small()
    arrays = g.edges_arrays()
    rows = [arr.tolist() for arr in arrays]
    mat = g.csr()
    dense = mat.toarray().tolist()
    g.remove_edges_arrays(np.array(us), np.array(vs))
    g.add_weighted_edges_arrays(np.array([2, 0]), np.array([3, 4]), np.array([9.0, 3.0]))
    assert [arr.tolist() for arr in arrays] == rows
    assert mat.toarray().tolist() == dense
    assert sorted(g.edges()) == left
