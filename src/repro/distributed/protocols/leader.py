"""Leader election by maximum-id flooding.

Every node starts believing it is the leader; each round it forwards any
improvement it hears.  The largest id in a component needs exactly
``eccentricity(argmax)`` rounds to reach everyone, so the classic
synchronous termination rule applies: run for a known upper bound on the
component diameter (``n - 1`` always works) and stop.  Quiet-counting
heuristics are *not* safe here -- an adversarial id placement can starve
a node of improvements for arbitrarily many rounds while a bigger id is
still in flight -- so this protocol takes the bound explicitly.

Batch execution: the per-round improvement step is one mailbox exchange
of the current best-id array followed by a segment max; the set of
forwarding nodes is exactly the improvement mask, which also drives the
message accounting.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...arrayops import segment_max
from ...exceptions import ProtocolError
from ..engine import BatchContext, BatchProtocol, NodeContext

__all__ = ["LeaderElection"]


class LeaderElection(BatchProtocol):
    """Max-id leader election with a fixed round budget.

    Output per node: the largest id within ``rounds`` hops -- the
    component's maximum whenever ``rounds >= diameter``.

    Parameters
    ----------
    rounds:
        Number of flooding rounds to run; must be at least the diameter
        of every component for a correct election (``n - 1`` is always
        sufficient).
    """

    name = "leader-election"

    def __init__(self, rounds: int) -> None:
        if rounds < 1:
            raise ProtocolError(f"rounds must be >= 1, got {rounds}")
        self._rounds = rounds

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        ctx.state["best"] = ctx.node
        ctx.state["age"] = 0
        return {v: ctx.node for v in ctx.neighbors}

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        best_heard = max(inbox.values(), default=-1)
        improved = best_heard > ctx.state["best"]
        if improved:
            ctx.state["best"] = best_heard
        ctx.state["age"] += 1
        if ctx.state["age"] >= self._rounds:
            ctx.halt()
            return None
        if improved:
            return {v: ctx.state["best"] for v in ctx.neighbors}
        return None

    def output(self, ctx: NodeContext) -> int:
        return ctx.state["best"]

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def on_start_batch(self, net: BatchContext) -> None:
        net.state.update(
            best=net.labels.copy(),
            # Who spoke last round (everyone announces its own id first).
            spoke=np.ones(net.num_nodes, dtype=bool),
            age=0,
        )
        # A bare int id is a one-word payload; one per incident slot.
        net.post_nodes(net.degrees, net.degrees)

    def on_round_batch(self, net: BatchContext) -> None:
        st = net.state
        best: np.ndarray = st["best"]
        spoke: np.ndarray = st["spoke"]

        # Silent neighbors must not contribute to the max (ids may be
        # anything), and a fully silent inbox defaults to -1 exactly
        # like the scalar tier's ``max(..., default=-1)``.
        sentinel = np.iinfo(np.int64).min
        sent_val = np.where(spoke, best, sentinel)[net.sources]
        heard = net.exchange(sent_val)
        best_heard = segment_max(heard, net.indptr, empty=sentinel)
        best_heard = np.where(best_heard == sentinel, -1, best_heard)
        improved = best_heard > best
        best[improved] = best_heard[improved]

        st["age"] += 1
        if st["age"] >= self._rounds:
            net.halt(np.ones(net.num_nodes, dtype=bool))
            st["spoke"] = improved
            return
        st["spoke"] = improved
        improved_deg = np.where(improved, net.degrees, 0)
        net.post_nodes(improved_deg, improved_deg)

    def outputs_batch(self, net: BatchContext) -> dict[int, int]:
        best = net.state["best"]
        return {
            int(u): int(best[i]) for i, u in enumerate(net.labels.tolist())
        }
