"""Satellite pin: vectorized FaultPlan draw kernels == scalar draws.

Sweeps every named failure scenario and asserts the batch kernels
(`drop_mask`, `latencies`, `alive_at`, `crash_schedules`,
`link_down_mask`) equal the per-call scalar draws elementwise, bit for
bit.  This is the contract the batch event engine rests on: an epoch's
draws can be deferred and evaluated in one hash pass without changing
any decision.  Also pins the pure-Python scalar `counter_uniform`
against the numpy `counter_uniforms` path it mirrors.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.arrayops import counter_uniform, counter_uniforms, seed_state
from repro.distributed.faults import FaultPlan, _NODE_SPAN
from repro.exceptions import ProtocolError
from repro.experiments.failures import FAULT_REGISTRY

SCENARIOS = list(FAULT_REGISTRY)
# Sample times straddling burst windows, flap periods and crash windows.
TIMES = (0.0, 1.0, 7.5, 16.0, 23.9, 31.4, 64.0, 97.25, 260.0)


def _draw_inputs(seed: int, size: int = 400):
    rng = random.Random(seed)
    us = np.asarray([rng.randrange(2000) for _ in range(size)], np.int64)
    vs = np.asarray([rng.randrange(2000) for _ in range(size)], np.int64)
    counters = np.asarray(
        [rng.randrange(1_000_000) for _ in range(size)], np.int64
    )
    return us, vs, counters


class TestScenarioDrawEquivalence:
    @pytest.fixture(params=SCENARIOS)
    def plan(self, request):
        return FAULT_REGISTRY[request.param].plan(seed=611 + len(request.param))

    def test_drop_mask_matches_scalar(self, plan):
        us, vs, counters = _draw_inputs(plan.seed)
        for at in TIMES:
            batch = plan.drop_mask(us, vs, counters, at)
            scalar = [
                plan.dropped(int(u), int(v), int(c), at)
                for u, v, c in zip(us, vs, counters)
            ]
            assert batch.dtype == bool
            assert batch.tolist() == scalar

    def test_latencies_match_scalar(self, plan):
        us, vs, counters = _draw_inputs(plan.seed + 1)
        batch = plan.latencies(us, vs, counters)
        scalar = [
            plan.latency_of(int(u), int(v), int(c))
            for u, v, c in zip(us, vs, counters)
        ]
        assert batch.tolist() == scalar  # exact float equality intended

    def test_link_down_mask_matches_scalar(self, plan):
        us, vs, counters = _draw_inputs(plan.seed + 2)
        for at in TIMES:
            batch = plan.link_down_mask(us, vs, at)
            scalar = [
                plan.link_down(int(u), int(v), at) for u, v in zip(us, vs)
            ]
            assert batch.tolist() == scalar

    def test_alive_at_matches_scalar(self, plan):
        nodes = np.arange(3000, dtype=np.int64)
        for at in TIMES:
            batch = plan.alive_at(nodes, at)
            scalar = [not plan.dead_at(int(nd), at) for nd in nodes]
            assert batch.tolist() == scalar

    def test_crash_schedules_match_scalar(self, plan):
        nodes = np.arange(3000, dtype=np.int64)
        crash_at, recover_at = plan.crash_schedules(nodes)
        for i, node in enumerate(nodes):
            sched = plan.crash_schedule(int(node))
            if sched is None:
                assert crash_at[i] == np.inf and recover_at[i] == np.inf
            else:
                at, back = sched
                assert crash_at[i] == at
                assert recover_at[i] == (np.inf if back is None else back)


class TestKernelEdgeCases:
    def test_edge_keys_name_offending_pair(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        us = np.asarray([1, _NODE_SPAN + 7], np.int64)
        vs = np.asarray([2, 5], np.int64)
        counters = np.zeros(2, np.int64)
        with pytest.raises(ProtocolError, match=rf"\({_NODE_SPAN + 7}, 5\)"):
            plan.drop_mask(us, vs, counters, 0.0)

    def test_zero_fault_kernels_are_trivial(self):
        plan = FaultPlan.reliable()
        us, vs, counters = _draw_inputs(9, size=50)
        assert not plan.drop_mask(us, vs, counters, 5.0).any()
        assert (plan.latencies(us, vs, counters) == 1.0).all()
        assert plan.alive_at(np.arange(50), 99.0).all()
        assert all(plan.clock_rate(node) == 1.0 for node in range(50))


class TestCounterUniformScalarPath:
    def test_python_scalar_matches_numpy_batch(self):
        rng = random.Random(77)
        state = seed_state(rng.randrange(-(2**70), 2**70))
        pairs = [
            (rng.randrange(-(2**63), 2**63), rng.randrange(-(2**63), 2**63))
            for _ in range(5000)
        ]
        pairs += [(0, 0), (-1, -1), (2**63 - 1, -(2**63)), (1, 2**62)]
        a = np.asarray([p[0] for p in pairs], np.int64)
        b = np.asarray([p[1] for p in pairs], np.int64)
        batch = counter_uniforms(state, a, b)
        for i, (x, y) in enumerate(pairs):
            assert counter_uniform(state, x, y) == batch[i]

    def test_accepts_plain_int_state(self):
        state = seed_state(42)
        assert counter_uniform(int(state), 5, 9) == counter_uniform(
            state, 5, 9
        )
