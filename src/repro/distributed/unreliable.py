"""Hardened protocol runners with local repair (graceful degradation).

Entry points for executing the shipped protocols on the event tier under
a :class:`~repro.distributed.faults.FaultPlan`, returning outputs that
are *valid on the surviving subgraph* even when nodes crash mid-run:

* :func:`run_luby_mis_event` -- Luby MIS through the
  :class:`~repro.distributed.protocols.reliable.HardenedProtocol`
  synchronizer, followed by a deterministic local repair sweep
  (:func:`repair_mis`) that demotes conflicting winners and re-covers
  nodes whose chosen neighbor crashed; the result is a verified MIS of
  the alive-induced topology.
* :func:`run_bfs_event` -- BFS tree construction; :func:`repair_bfs`
  re-attaches alive nodes whose tree path died, wave by wave, yielding a
  verified spanning tree of every alive node reachable from the root
  (levels may exceed the true BFS level -- that inflation is the
  measured degradation, not an error).

Repair sweeps model the local self-healing a deployed protocol would
run (each sweep is O(1) rounds of neighborhood queries); their cost is
charged to ``RunResult.recovery_rounds``, kept separate from the main
protocol rounds.  Under a zero-fault plan both runners take the
synchronous fast path (:meth:`EventNetwork.run_sync`), so their outputs
are *equal* to the synchronous scalar tier's by construction -- the
anchor the test-suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..exceptions import ProtocolError
from .engine import RunResult
from .event_engine import EventNetwork
from .faults import FaultPlan
from .mis import verify_mis
from .protocols.bfs import BFSTree
from .protocols.luby import LubyMIS
from .protocols.reliable import harden

__all__ = [
    "EventMISRun",
    "EventBFSRun",
    "run_luby_mis_event",
    "run_bfs_event",
    "repair_mis",
    "repair_bfs",
    "verify_bfs_tree",
]


# ----------------------------------------------------------------------
# Subgraph helpers
# ----------------------------------------------------------------------
def _alive_adjacency(
    adjacency: Mapping[int, tuple[int, ...]], alive: set[int]
) -> dict[int, set[int]]:
    return {
        u: {v for v in adjacency[u] if v in alive}
        for u in adjacency
        if u in alive
    }


# ----------------------------------------------------------------------
# Repair sweeps
# ----------------------------------------------------------------------
def repair_mis(
    adjacency: Mapping[int, Iterable[int]], chosen: set[int]
) -> tuple[set[int], int]:
    """Deterministic local repair of a damaged independent set.

    Two phases of synchronous local sweeps, exactly implementable as
    O(1)-round neighborhood exchanges: (1) *demotion* -- a chosen node
    adjacent to a lower-id chosen node leaves the set; (2) *re-cover* --
    an uncovered node that is the local id-minimum among uncovered
    neighbors joins.  Returns the repaired set and the number of sweeps
    (0 when the input was already a valid MIS).
    """
    chosen = set(chosen)
    sweeps = 0
    while True:
        conflicted = {
            u
            for u in chosen
            if any(v in chosen and v < u for v in adjacency.get(u, ()))
        }
        if not conflicted:
            break
        chosen -= conflicted
        sweeps += 1
    while True:
        uncovered = {
            u
            for u in adjacency
            if u not in chosen
            and not any(v in chosen for v in adjacency[u])
        }
        if not uncovered:
            break
        joiners = {
            u
            for u in uncovered
            if all(v > u for v in adjacency[u] if v in uncovered)
        }
        chosen |= joiners
        sweeps += 1
    return chosen, sweeps


def repair_bfs(
    adjacency: Mapping[int, Iterable[int]],
    root: int | None,
    tree: Mapping[int, tuple[int | None, int | None]],
) -> tuple[dict[int, tuple[int | None, int | None]], int]:
    """Re-attach orphaned nodes of a damaged BFS tree.

    Keeps every node whose parent chain still reaches ``root`` inside
    ``adjacency`` (levels renormalized along the chain), then runs
    adoption waves: an orphan with an attached neighbor adopts its
    minimum-id attached neighbor one level below it.  Nodes with no
    alive path to the root end as ``(None, None)``.  Returns the
    repaired tree and the number of adoption waves.
    """
    valid: dict[int, tuple[int, int]] = {}
    if root is not None and root in adjacency:
        valid[root] = (0, root)
        changed = True
        while changed:
            changed = False
            for u in sorted(adjacency):
                if u in valid:
                    continue
                got = tree.get(u)
                if not got or got[0] is None:
                    continue
                parent = got[1]
                if parent in valid and parent in adjacency[u]:
                    valid[u] = (valid[parent][0] + 1, parent)
                    changed = True
    sweeps = 0
    while True:
        adoptions: dict[int, int] = {}
        for u in sorted(adjacency):
            if u in valid:
                continue
            attached = [v for v in adjacency[u] if v in valid]
            if attached:
                adoptions[u] = min(attached)
        if not adoptions:
            break
        for u, v in adoptions.items():
            valid[u] = (valid[v][0] + 1, v)
        sweeps += 1
    out = {u: valid.get(u, (None, None)) for u in sorted(adjacency)}
    return out, sweeps


def verify_bfs_tree(
    adjacency: Mapping[int, Iterable[int]],
    root: int | None,
    tree: Mapping[int, tuple[int | None, int | None]],
) -> None:
    """Raise :class:`ProtocolError` unless ``tree`` spans every node of
    ``adjacency`` reachable from ``root``, with consistent parent links."""
    reachable: set[int] = set()
    if root is not None and root in adjacency:
        frontier = [root]
        reachable.add(root)
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in reachable:
                        reachable.add(v)
                        nxt.append(v)
            frontier = nxt
    for u in adjacency:
        level, parent = tree.get(u, (None, None))
        if u in reachable:
            if level is None or parent is None:
                raise ProtocolError(
                    f"BFS tree does not span reachable node {u}"
                )
            if u == root:
                if level != 0 or parent != root:
                    raise ProtocolError(f"BFS root {u} mislabeled: {tree[u]}")
                continue
            if parent not in adjacency[u]:
                raise ProtocolError(
                    f"BFS node {u} has non-neighbor parent {parent}"
                )
            plevel = tree.get(parent, (None, None))[0]
            if plevel is None or level != plevel + 1:
                raise ProtocolError(
                    f"BFS node {u} level {level} inconsistent with parent "
                    f"{parent} level {plevel}"
                )
        elif level is not None:
            raise ProtocolError(
                f"BFS node {u} unreachable from root but labeled {tree[u]}"
            )


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
@dataclass
class EventMISRun:
    """Result of a hardened MIS execution.

    ``independent_set`` is a verified MIS of the alive-induced topology;
    ``result`` carries the full event-tier accounting (including
    ``recovery_rounds`` charged by the repair sweep); ``alive`` lists
    surviving nodes; ``t_end`` is the simulation clock at drain time
    (feed it as ``t0`` of a follow-up run to share one crash timeline).
    """

    independent_set: frozenset
    result: RunResult
    alive: tuple[int, ...]
    t_end: float


@dataclass
class EventBFSRun:
    """Result of a hardened BFS-tree execution (see :class:`EventMISRun`;
    ``tree`` maps every alive node to ``(level, parent)``, with
    ``(None, None)`` for nodes the root cannot reach alive)."""

    tree: dict[int, tuple[int | None, int | None]]
    result: RunResult
    alive: tuple[int, ...]
    t_end: float


def _execute(
    topology: Any,
    protocol,
    plan: FaultPlan | None,
    fault_labels: Mapping[int, int] | None,
    t0: float,
    max_time: float,
    max_events: int,
) -> tuple[EventNetwork, RunResult]:
    plan = plan if plan is not None else FaultPlan()
    net = EventNetwork(
        topology,
        plan=plan,
        fault_labels=fault_labels,
        t0=t0,
        max_time=max_time,
        max_events=max_events,
    )
    if plan.zero_fault and plan.latency == 1.0:
        result = net.run_sync(protocol)
    else:
        result = net.run(harden(protocol))
    return net, result


def run_luby_mis_event(
    topology: Any,
    *,
    seed: int = 0,
    plan: FaultPlan | None = None,
    fault_labels: Mapping[int, int] | None = None,
    t0: float = 0.0,
    max_time: float = 1_000_000.0,
    max_events: int = 5_000_000,
) -> EventMISRun:
    """Luby MIS on the event tier, repaired and verified on survivors.

    ``topology`` takes any engine form (Graph, mapping, CSR pair).
    Under a zero-fault unit-latency plan this runs the synchronous
    adapter, so outputs equal ``SynchronousNetwork.run(LubyMIS(seed))``
    exactly.
    """
    net, result = _execute(
        topology, LubyMIS(seed=seed), plan, fault_labels, t0,
        max_time, max_events,
    )
    crashed = set(result.crashed)
    adjacency = net.adjacency()
    alive = set(net.nodes) - crashed
    chosen = {u for u in alive if result.outputs.get(u) is True}
    adj_alive = _alive_adjacency(adjacency, alive)
    chosen, sweeps = repair_mis(adj_alive, chosen)
    result.recovery_rounds += sweeps
    verify_mis(adj_alive, chosen)
    return EventMISRun(
        independent_set=frozenset(chosen),
        result=result,
        alive=tuple(sorted(alive)),
        t_end=net.final_time,
    )


def run_bfs_event(
    topology: Any,
    root: int,
    *,
    patience: int = 64,
    plan: FaultPlan | None = None,
    fault_labels: Mapping[int, int] | None = None,
    t0: float = 0.0,
    max_time: float = 1_000_000.0,
    max_events: int = 5_000_000,
) -> EventBFSRun:
    """BFS tree on the event tier, re-attached and verified on survivors.

    If the root itself dies, every survivor reports ``(None, None)``
    (the computation has no anchor left -- the paper's model offers no
    recovery from a dead initiator)."""
    net, result = _execute(
        topology, BFSTree(root, patience=patience), plan, fault_labels,
        t0, max_time, max_events,
    )
    crashed = set(result.crashed)
    adjacency = net.adjacency()
    alive = set(net.nodes) - crashed
    adj_alive = _alive_adjacency(adjacency, alive)
    raw = {
        u: (result.outputs.get(u) or (None, None)) for u in sorted(alive)
    }
    anchor = root if root in alive else None
    tree, sweeps = repair_bfs(adj_alive, anchor, raw)
    result.recovery_rounds += sweeps
    verify_bfs_tree(adj_alive, anchor, tree)
    return EventBFSRun(
        tree=tree,
        result=result,
        alive=tuple(sorted(alive)),
        t_end=net.final_time,
    )
