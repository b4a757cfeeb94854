"""E11 -- unreliable networks: degradation vs fault intensity.

Runs the hardened protocols (Luby MIS, BFS tree) and the distributed
spanner build on the *event tier* across the registered failure
scenarios, measuring how rounds, messages and stretch degrade as drop
rate, crash rate and latency variance rise.  Shape:

* every scenario terminates with *valid* outputs on the surviving
  subgraph -- a verified MIS of the alive-induced topology, a spanning
  BFS tree over survivors reachable from the root, and stretch within
  the bound on the alive-alive base edges;
* the ``reliable`` scenario is bit-equal to the synchronous engine
  (same MIS, same BFS tree, same spanner edge set) -- the zero-fault
  anchor every other row's degradation is measured from.

Rows run on the epoch-batched event engine (the test-suite pins it
bit-equal to a one-event-at-a-time heap loop), so ``n = 10^4`` fault
rows are practical (``repro sweep --experiments E11 --faults chaos
--sizes 10000``).  The spanner-build arm and its all-pairs stretch audit
stop above ``max_build_n`` nodes (the hardened runners' internal
verification still certifies every row); each row carries its wall
clock.
"""

from __future__ import annotations

from ..distributed.dist_spanner import DistributedRelaxedGreedy
from ..distributed.engine import SynchronousNetwork
from ..distributed.protocols.bfs import BFSTree
from ..distributed.protocols.luby import LubyMIS
from ..distributed.unreliable import run_bfs_event, run_luby_mis_event
from ..exceptions import ReproError
from ..graphs.analysis import measure_stretch
from ..params import SpannerParams
from .failures import FAULT_REGISTRY, fault_scenario
from .runner import ExperimentResult, register, stopwatch
from .workloads import make_workload

__all__ = ["run"]

_QUICK_FAULTS = ("reliable", "lossy", "crashy", "chaos")


@register("E11")
def run(
    quick: bool = False,
    seed: int = 0,
    *,
    scenarios: tuple[str, ...] | None = None,
    sizes: tuple[int, ...] | None = None,
    faults: tuple[str, ...] | None = None,
    max_build_n: int = 2000,
) -> ExperimentResult:
    """Execute E11.

    ``scenarios``/``sizes`` override the workload cell (first entry of
    each is used; the sweep driver passes one cell at a time);
    ``faults`` restricts the failure scenarios to run; rows with
    ``n > max_build_n`` skip the spanner-build arm and its quadratic
    stretch audit.
    """
    n = sizes[0] if sizes else (40 if quick else 80)
    scenario = scenarios[0] if scenarios else "uniform"
    names = tuple(faults) if faults else (
        _QUICK_FAULTS if quick else tuple(FAULT_REGISTRY)
    )
    eps = 0.5
    params = SpannerParams.from_epsilon(eps)
    workload = make_workload(scenario, n, seed=seed + 61)
    graph = workload.graph
    root = 0
    include_build = n <= max_build_n
    max_events = max(5_000_000, 3_000 * n)

    cells = [(name, fault_scenario(name)) for name in names]
    plans = {name: spec.plan(seed) for name, spec in cells}

    # Zero-fault anchors from the synchronous engine (its batch tier,
    # pinned equal to the per-node tier), computed only when a reliable
    # row will actually consume them.
    needs_anchor = any(
        p.zero_fault and p.latency == 1.0 for p in plans.values()
    )
    anchor_mis = anchor_tree = sync_mis = sync_bfs = anchor_build = None
    if needs_anchor:
        sync_mis = SynchronousNetwork(graph).run(LubyMIS(seed=seed))
        anchor_mis = frozenset(
            u for u, flag in sync_mis.outputs.items() if flag
        )
        sync_bfs = SynchronousNetwork(graph).run(BFSTree(root, patience=64))
        anchor_tree = {
            u: tuple(v) if isinstance(v, (tuple, list)) else (None, None)
            for u, v in sync_bfs.outputs.items()
        }
        if include_build:
            anchor_build = DistributedRelaxedGreedy(
                params, seed=seed
            ).build(graph, workload.points.distance)

    result = ExperimentResult(
        experiment="E11",
        claim=(
            "unreliable networks: hardened protocols stay valid on the "
            "surviving subgraph; zero faults reproduce the sync tier"
        ),
        notes=(
            "event tier + FaultPlan; degradation = rounds/messages/"
            "stretch vs the reliable anchor"
        ),
    )
    for name, spec in cells:
        plan = plans[name]
        row = spec.as_row()
        row["n"] = n
        ok = True
        build = None
        stretch = None
        with stopwatch(row):
            try:
                mis = run_luby_mis_event(
                    graph, seed=seed, plan=plan, max_events=max_events
                )
                bfs = run_bfs_event(
                    graph, root, plan=plan, patience=64,
                    max_events=max_events,
                )
                if include_build:
                    build = DistributedRelaxedGreedy(
                        params, seed=seed, fault_plan=plan
                    ).build(graph, workload.points.distance)
            except ReproError as exc:  # invalid output = failed row
                row.update(error=type(exc).__name__, detail=str(exc)[:80])
                result.rows.append(row)
                result.passed = False
                continue
            if build is not None:
                crashed = set(build.crashed)
                alive = [u for u in range(n) if u not in crashed]
                stretch = measure_stretch(
                    graph.subgraph(alive), build.spanner
                ).max_stretch
        row.update(
            mis_rounds=mis.result.rounds,
            mis_messages=mis.result.messages,
            retransmissions=(
                mis.result.retransmissions
                + bfs.result.retransmissions
                + (build.retransmissions if build is not None else 0)
            ),
            recovery_rounds=(
                mis.result.recovery_rounds
                + bfs.result.recovery_rounds
                + (build.recovery_rounds if build is not None else 0)
            ),
            dropped=mis.result.dropped + bfs.result.dropped,
        )
        if build is not None:
            stretch_ok = stretch <= params.t * (1.0 + 1e-9)
            ok &= stretch_ok
            row.update(
                crashed=len(crashed),
                build_rounds=build.total_rounds,
                spanner_edges=build.spanner.num_edges,
                repair_edges=build.repair_edges,
                stretch=round(stretch, 6),
                stretch_ok=stretch_ok,
            )
        else:
            row.update(
                crashed=len(set(mis.result.crashed)),
                build_skipped=True,
            )
        if plan.zero_fault and plan.latency == 1.0:
            # The anchor row: everything must be bit-equal to the
            # synchronous engine.
            sync_equal = (
                mis.independent_set == anchor_mis
                and mis.result == sync_mis
                and bfs.tree == anchor_tree
                and bfs.result == sync_bfs
            )
            if build is not None:
                sync_equal = sync_equal and (
                    sorted(build.spanner.edge_set())
                    == sorted(anchor_build.spanner.edge_set())
                    and build.total_rounds == anchor_build.total_rounds
                )
            row["sync_equal"] = sync_equal
            ok &= sync_equal
        result.rows.append(row)
        result.passed &= ok
    return result
