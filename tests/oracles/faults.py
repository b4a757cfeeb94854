"""Per-node fault draws: one node, one hash call at a time.

The event engine primes a run's crash timeline and clock rates from the
array kernels :meth:`repro.distributed.faults.FaultPlan.crash_schedules`
and :meth:`~repro.distributed.faults.FaultPlan.clock_rates`, and the
distributed build asks who is down with
:meth:`~repro.distributed.faults.FaultPlan.alive_at`.  These are the
elementwise definitions those kernels are pinned against bit for bit.
"""

from __future__ import annotations

from repro.arrayops import counter_uniform
from repro.distributed.faults import _T_CRASH, _T_CRASH_AT, _T_DRIFT, FaultPlan


def crash_schedule(
    plan: FaultPlan, node: int
) -> tuple[float, float | None] | None:
    """``(crash_time, recover_time | None)`` for ``node``, or ``None``
    if the node never crashes under ``plan``."""
    if plan.crash_rate == 0.0:
        return None
    if counter_uniform(plan._state(_T_CRASH), node, 0) >= plan.crash_rate:
        return None
    lo, hi = plan.crash_window
    at = lo + counter_uniform(plan._state(_T_CRASH_AT), node, 0) * (hi - lo)
    back = None if plan.recover_after is None else at + plan.recover_after
    return at, back


def dead_at(plan: FaultPlan, node: int, at: float) -> bool:
    """Whether ``node`` is crashed (and not yet recovered) at global
    time ``at``."""
    sched = crash_schedule(plan, node)
    if sched is None:
        return False
    crash, back = sched
    if at < crash:
        return False
    return back is None or at < back


def clock_rate(plan: FaultPlan, node: int) -> float:
    """Node-local clock speed relative to global time (1.0 = exact)."""
    if plan.drift == 0.0:
        return 1.0
    u = counter_uniform(plan._state(_T_DRIFT), node, 0)
    return 1.0 + plan.drift * (2.0 * u - 1.0)
