"""``untouched_ellipses``: the change-log test churn repair settles with.

The kernel's mask equals the brute-force pairs x log definition
(``tests/oracles/paths.py``) to the last ulp of every limit, on lattice
and fine-grained point sets, with negative coordinates, coordinates
offset by 10^6, in 2-D and 3-D.  And it is sound against a search: on a
graph with Euclidean weights, a pair that a path joined within its limit
before the logged edges were removed, and that the kernel calls
untouched by them, is still joined within its limit afterwards, from
either end.  The cell join underneath
(:func:`repro.arrayops.cell_neighbour_pairs`) is checked on its own
against every pair within its reach.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.paths import ellipse_sums, untouched_reference
from repro.arrayops import cell_neighbour_pairs, offset_cube
from repro.exceptions import GraphError
from repro.graphs.paths import dijkstra_distance, untouched_ellipses
from test_paths_detour_bound import euclidean_graph

SLACK = 1e-9  # the session's relative slack (cluster_graph._REGION_SLACK)


def ulps(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps up (down when negative)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, toward))
    return value


@st.composite
def instances(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 14))
    if draw(st.booleans()):  # a lattice: ties, collinear triples
        cells = draw(
            st.lists(
                st.tuples(*[st.integers(-4, 4)] * dim),
                min_size=2, max_size=n, unique=True,
            )
        )
        coords = 0.25 * np.array(cells, dtype=np.float64)
    else:
        spots = draw(
            st.lists(
                st.tuples(*[st.integers(-1500, 1500)] * dim),
                min_size=2, max_size=n, unique=True,
            )
        )
        coords = np.array(spots, dtype=np.float64) / 1000.0
    coords += draw(st.sampled_from([0.0, -3.0, 1e6]))
    m = coords.shape[0]
    vertex = st.integers(0, m - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    log = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    log_u = np.array([p for p, _ in log], dtype=np.int64)
    log_v = np.array([q for _, q in log], dtype=np.int64)
    limits = np.array(
        draw(st.lists(st.floats(0.0, 4.0), min_size=us.size,
                      max_size=us.size)),
        dtype=np.float64,
    )
    if us.size and log_u.size:
        # Put some limits exactly on an ellipse sum, or one ulp off it.
        sums = ellipse_sums(coords, log_u, log_v, us, vs)
        for i in draw(st.lists(st.integers(0, us.size - 1), max_size=6)):
            j = draw(st.integers(0, log_u.size - 1))
            limits[i] = ulps(float(sums[i, j]), draw(st.integers(-1, 1)))
    return coords, log_u, log_v, us, vs, limits


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_mask_equals_the_brute_force_reference(instance):
    got = untouched_ellipses(*instance)
    want = untouched_reference(*instance)
    assert got.dtype == bool and np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, -7.3, 1e6])
def test_limits_on_an_ellipse_sum_and_one_ulp_either_side(dim, offset):
    """Pairs whose logged edge reaches their ellipse only at its far end,
    in every direction of the grid and at many shifts, so that the edge
    and the midpoint fall in neighbouring cells across every border.
    Each limit sits on the edge's ellipse sum (touched), one ulp below
    it (untouched) or one ulp above (touched); the edge is logged both
    ways round."""
    rng = np.random.default_rng(dim)
    directions = offset_cube(dim, 1).astype(np.float64)
    directions = directions[directions.any(axis=1)]
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    points, us, vs, log_u, log_v = [], [], [], [], []
    for _ in range(12):
        for unit in directions:
            # Configurations 5 apart, each at a random place in its cell.
            base = len(points)
            shift = offset + 5.0 * base + rng.uniform(-1.0, 1.0, size=dim)
            # x, y on a short segment; p far out past x; q just off p.
            points += [
                shift,
                shift + 0.2 * unit,
                shift - 0.4 * unit,
                shift - 0.4 * unit + 1e-3 * np.roll(unit, 1),
            ]
            us.append(base)
            vs.append(base + 1)
            if len(log_u) % 2:
                log_u.append(base + 2)
                log_v.append(base + 3)
            else:
                log_u.append(base + 3)
                log_v.append(base + 2)
    coords = np.array(points)
    us, vs = np.array(us), np.array(vs)
    log_u, log_v = np.array(log_u), np.array(log_v)
    sums = ellipse_sums(coords, log_u, log_v, us, vs)
    own = sums[np.arange(us.size), np.arange(us.size)]
    for steps, touched in ((0, True), (-1, False), (1, True)):
        limits = np.array([ulps(float(s), steps) for s in own])
        # Each pair's own edge is the only one near it.
        others = sums <= limits[:, None]
        np.fill_diagonal(others, False)
        assert not others.any()
        got = untouched_ellipses(coords, log_u, log_v, us, vs, limits)
        assert np.array_equal(
            got, untouched_reference(coords, log_u, log_v, us, vs, limits)
        )
        assert (~got).all() if touched else got.all()


def test_empty_log_and_no_pairs():
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    none = np.empty(0, dtype=np.int64)
    out = untouched_ellipses(coords, none, none, [0, 1], [1, 2], [9.0, 9.0])
    assert out.tolist() == [True, True]
    out = untouched_ellipses(coords, [0], [1], none, none, np.empty(0))
    assert out.dtype == bool and out.shape == (0,)


def test_bad_arguments_rejected():
    coords = np.zeros((3, 2))
    with pytest.raises(GraphError, match="pair and limit"):
        untouched_ellipses(coords, [0], [1], [0, 1], [1], [1.0, 1.0])
    with pytest.raises(GraphError, match="logged edge"):
        untouched_ellipses(coords, [0, 1], [1], [0], [1], [1.0])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_untouched_pairs_keep_their_paths(dim, seed):
    """Remove the logged edges from a random geometric graph: every pair
    found within its limit from one end before the removal, and marked
    untouched, is still found within it from that end afterwards."""
    rng = np.random.default_rng(seed)
    n = 90 if dim == 2 else 150
    side = 2.0 if dim == 2 else 1.5
    coords = rng.uniform(-side, side, size=(n, dim))
    coords += [0.0, 1e6, -1e6][seed % 3]
    near = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if math.dist(coords[u], coords[v]) <= 1.0
    ]
    graph = euclidean_graph(coords, near)
    logged = rng.choice(len(near), size=len(near) // 12, replace=False)
    log_u = np.array([near[i][0] for i in logged])
    log_v = np.array([near[i][1] for i in logged])
    us = rng.integers(0, n, size=400)
    vs = rng.integers(0, n, size=400)
    stretch = rng.uniform(1.05, 2.0, size=400)
    limits = stretch * np.linalg.norm(coords[us] - coords[vs], axis=1)
    untouched = untouched_ellipses(
        coords, log_u, log_v, us, vs, limits * (1.0 + SLACK)
    )
    ends = [
        (int(a), int(b), float(lim))
        for u, v, lim in zip(us[untouched], vs[untouched], limits[untouched])
        for a, b in ((u, v), (v, u))
    ]
    before = [dijkstra_distance(graph, a, b, cutoff=lim) for a, b, lim in ends]
    for p, q in zip(log_u.tolist(), log_v.tolist()):
        graph.remove_edge(p, q)
    kept = 0
    for (a, b, lim), was in zip(ends, before):
        if was <= lim:
            assert dijkstra_distance(graph, a, b, cutoff=lim) <= lim
            kept += 1
    assert kept > 50 and (~untouched).sum() > 50  # neither side vacuous


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [0.0, -5.5, 1e6])
def test_cell_join_yields_every_pair_within_reach(dim, offset):
    """Every pair within ``reach`` along every axis comes out, including
    pairs exactly ``reach`` apart that sit on cell borders and a pair
    that only the cells' rounding margin keeps adjacent."""
    rng = np.random.default_rng(int(dim + abs(offset)))
    reach = 0.37
    a = offset + np.round(rng.uniform(-2, 2, size=(150, dim)) / reach) * reach
    b = a[rng.integers(0, 150, size=120)] + reach * rng.integers(
        -1, 2, size=(120, dim)
    )
    b = np.vstack([b, offset + rng.uniform(-2, 2, size=(60, dim))])
    # -1e-17 and reach are within reach (the difference rounds to it),
    # yet their quotients by reach floor two cells apart.
    a = np.vstack([a, np.eye(1, dim) * -1e-17])
    b = np.vstack([b, np.eye(1, dim) * reach])
    got = set()
    for rows, cols in cell_neighbour_pairs(a, b, reach):
        got.update(zip(rows.tolist(), cols.tolist()))
    gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    want = set(zip(*(idx.tolist() for idx in np.nonzero(gap <= reach))))
    assert want and want <= got
    assert not list(cell_neighbour_pairs(a[:0], b, reach))
