"""Seeds at the public boundary.

A numpy integer seed must draw exactly what the equal Python int draws,
all the way through; anything that is not an integer is refused by the
constructor that takes it, with a :class:`ParameterError` naming the
seed, instead of failing deep inside a build.
"""

import numpy as np
import pytest

from repro.arrayops import seed_state
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.distributed.engine import SynchronousNetwork
from repro.distributed.faults import FaultPlan
from repro.distributed.protocols.luby import LubyMIS
from repro.exceptions import ParameterError
from repro.experiments.workloads import make_mobility, make_workload
from repro.graphs.build import BernoulliPolicy, DecayPolicy
from repro.params import SpannerParams

NUMPY_INTS = [np.int64, np.int32, np.uint64, np.uint8]
BAD_SEEDS = [1.5, "3", None, np.float64(2.0)]


def _params():
    return SpannerParams.from_epsilon(0.5)


CONSTRUCTORS = {
    "DistributedRelaxedGreedy": lambda s: DistributedRelaxedGreedy(
        _params(), seed=s
    ),
    "FaultPlan": lambda s: FaultPlan(seed=s, crash_rate=0.3),
    "BernoulliPolicy": lambda s: BernoulliPolicy(0.5, seed=s),
    "DecayPolicy": lambda s: DecayPolicy(0.5, seed=s),
    "LubyMIS": lambda s: LubyMIS(seed=s),
}


class TestNumpyIntegerSeeds:
    @pytest.mark.parametrize("kind", NUMPY_INTS)
    def test_seed_state_reads_the_integer(self, kind):
        assert seed_state(kind(2)) == seed_state(2)

    def test_distributed_build_matches_int_seed(self):
        wl = make_workload("uniform", 200, seed=2)
        builds = [
            DistributedRelaxedGreedy(_params(), seed=s).build(
                wl.graph, wl.points.distance
            )
            for s in (2, np.int64(2))
        ]
        assert sorted(builds[0].spanner.edges()) == sorted(
            builds[1].spanner.edges()
        )
        assert builds[0].total_rounds == builds[1].total_rounds
        messages = [b.ledger.total_messages for b in builds]
        assert messages[0] == messages[1]

    def test_fault_plan_matches_int_seed(self):
        plan = FaultPlan(seed=np.int64(3), crash_rate=0.4, drop_rate=0.2)
        twin = FaultPlan(seed=3, crash_rate=0.4, drop_rate=0.2)
        assert plan == twin
        assert type(plan.seed) is int
        nodes = np.arange(300)
        got, want = plan.crash_schedules(nodes), twin.crash_schedules(nodes)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        counters = np.arange(300)
        np.testing.assert_array_equal(
            plan.drop_mask(nodes, nodes + 1, counters, 2.0),
            twin.drop_mask(nodes, nodes + 1, counters, 2.0),
        )

    def test_bernoulli_policy_matches_int_seed(self):
        wl = make_workload("uniform", 100, seed=1)
        u = np.arange(99)
        v = u + 1
        dist = np.full(99, 0.5)
        got = BernoulliPolicy(0.5, seed=np.int64(3)).decide_batch(
            wl.points, u, v, dist
        )
        want = BernoulliPolicy(0.5, seed=3).decide_batch(wl.points, u, v, dist)
        np.testing.assert_array_equal(got, want)

    def test_luby_run_matches_int_seed(self):
        indptr = np.array([0, 1, 3, 5, 6], dtype=np.int64)
        indices = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
        net = SynchronousNetwork((indptr, indices))
        assert net.run(LubyMIS(seed=np.uint64(9))) == net.run(LubyMIS(seed=9))


class TestBadSeeds:
    @pytest.mark.parametrize("owner", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_constructor_names_the_seed(self, owner, seed):
        match = f"{owner} seed must be an integer"
        with pytest.raises(ParameterError, match=match):
            CONSTRUCTORS[owner](seed)


GENERATORS = {
    "make_workload": lambda s: make_workload("uniform", 50, s),
    "make_mobility": lambda s: make_mobility(
        "flocking", np.zeros((3, 2)), seed=s
    ),
}


class TestGeneratorSeeds:
    """The workload and mobility samplers hand their seed to numpy's
    generators, which take only non-negative integers: anything else is
    refused first, with the seed named."""

    @pytest.mark.parametrize("owner", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_non_integer_seed_named(self, owner, seed):
        match = f"{owner} seed must be an integer"
        with pytest.raises(ParameterError, match=match):
            GENERATORS[owner](seed)

    @pytest.mark.parametrize("owner", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", [-1, -1000, np.int64(-3)], ids=repr)
    def test_negative_seed_named(self, owner, seed):
        match = f"{owner} seed must be >= 0, got {int(seed)}"
        with pytest.raises(ParameterError, match=match):
            GENERATORS[owner](seed)

    def test_numpy_integer_seed_draws_like_int(self):
        a = make_workload("uniform", 60, np.int32(5))
        b = make_workload("uniform", 60, 5)
        assert np.array_equal(a.points.coords, b.points.coords)
        assert type(a.seed) is int
        coords = b.points.coords
        moved = make_mobility("flocking", coords, seed=np.uint8(4)).step(0.5)
        same = make_mobility("flocking", coords, seed=4).step(0.5)
        assert [n for n, _ in moved] == [n for n, _ in same]
        assert np.array_equal(
            np.array([p for _, p in moved]), np.array([p for _, p in same])
        )
