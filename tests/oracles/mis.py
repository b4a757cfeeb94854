"""The Luby MIS runner over a mapping adjacency.

The program runs Luby on CSR arrays
(:func:`repro.distributed.mis.run_luby_mis_arrays`).  This runner takes
a ``{node: neighbours}`` mapping over arbitrary hashable nodes, relabels
it for the engine and returns the chosen set, so the protocol tests can
state small cases by hand and the array runner can be pinned against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.distributed.engine import SynchronousNetwork
from repro.distributed.mis import verify_mis
from repro.distributed.protocols.luby import LubyMIS


@dataclass(frozen=True)
class MISRun:
    """The chosen nodes, and the rounds and messages Luby used."""

    independent_set: frozenset
    engine_rounds: int
    messages: int


def run_luby_mis(
    adjacency: Mapping[Hashable, set],
    *,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> MISRun:
    """An MIS of ``adjacency`` by the Luby protocol, verified."""
    if not adjacency:
        return MISRun(frozenset(), engine_rounds=0, messages=0)
    nodes = sorted(adjacency)
    to_int = {node: i for i, node in enumerate(nodes)}
    relabeled = {
        to_int[u]: {to_int[v] for v in nbrs} for u, nbrs in adjacency.items()
    }
    net = SynchronousNetwork(relabeled, max_rounds=max_rounds)
    result = net.run(LubyMIS(seed=seed))
    chosen = frozenset(nodes[i] for i, flag in result.outputs.items() if flag)
    verify_mis(adjacency, set(chosen))
    return MISRun(
        independent_set=chosen,
        engine_rounds=result.rounds,
        messages=result.messages,
    )
