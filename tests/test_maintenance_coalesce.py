"""Event coalescing groups an epoch's events as the dense reference does,
in memory that grows with the sites.

``MaintenanceSession._coalesce`` compares only sites in neighbouring grid
cells and takes the regions with ``connected_components``; the dense
``S x S`` form it replaced lives in ``tests/oracles/maintenance.py``.
The regions, their order and each region's event order must be the
reference's, also for sites exactly ``2 * dirty_radius`` apart, and on a
full-move flocking epoch the peak traced memory may at most grow 2.5x
when the sites double (the dense form grew 3.2x, 120 to 385 MB).
"""

import tracemalloc

import numpy as np
import pytest

from oracles.maintenance import coalesce_reference
from repro.core import MaintenanceSession
from repro.experiments.workloads import make_mobility, make_workload
from repro.geometry.sampling import uniform_points


@pytest.fixture(scope="module")
def session():
    pts = uniform_points(40, dim=2, seed=0, expected_degree=8.0)
    return MaintenanceSession(pts, 0.5)


def random_sites(rng, k, dim, side, offset):
    """``k`` events of one or two sites each (a move has two)."""
    return [
        [
            offset + rng.uniform(-side, side, size=dim)
            for _ in range(rng.integers(1, 3))
        ]
        for _ in range(k)
    ]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("side", [3.0, 12.0, 40.0])
@pytest.mark.parametrize("offset", [0.0, -25.0, 1e6])
def test_random_sites_group_as_the_reference(session, dim, side, offset):
    rng = np.random.default_rng(int(dim * side) + int(offset) % 97)
    for k in (1, 2, 7, 60, 250):
        sites = random_sites(rng, k, dim, side, offset)
        assert session._coalesce(sites) == coalesce_reference(session, sites)


def test_sites_exactly_two_radii_apart(session):
    """Overlap is ``<=`` on the squared distance: balls that just touch
    merge, and one ulp farther they do not."""
    reach = 2.0 * session.dirty_radius
    assert reach == 5.0
    far = float(np.nextafter(reach, np.inf))
    chains = [
        [np.array([0.0, 0.0])],
        [np.array([reach, 0.0])],  # touches event 0
        [np.array([reach, 0.0]) + [0.0, far]],  # just misses event 1
        [np.array([3.0, 4.0]) * -1.0],  # 3-4-5: touches event 0
        [np.array([40.0, 40.0]), np.array([40.0, 40.0 + reach])],
        [np.array([40.0, 40.0 - reach])],  # touches event 4's first site
        [np.array([-20.0, 0.0]), np.array([-20.0 - far, 0.0])],
    ]
    got = session._coalesce(chains)
    assert got == coalesce_reference(session, chains)
    assert got == [[0, 1, 3], [2], [4, 5], [6]]


def flocking_sites(n):
    """The sites of one full-move flocking epoch on uniform ``n``: every
    node's old and new position."""
    w = make_workload("uniform", n, seed=3)
    model = make_mobility("flocking", w.points.coords, seed=3, speed=0.2)
    old = w.points.coords.copy()
    return [[old[node], pos] for node, pos in model.step(1.0)]


def peak_bytes(session, sites) -> int:
    tracemalloc.start()
    try:
        session._coalesce(sites)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_linearly_with_the_sites(session):
    small, large = flocking_sites(1000), flocking_sites(2000)
    assert sum(map(len, small)) == 2000 and sum(map(len, large)) == 4000
    assert peak_bytes(session, large) <= 2.5 * peak_bytes(session, small)
    assert session._coalesce(large) == [list(range(2000))]
