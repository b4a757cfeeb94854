"""Distributed BFS tree construction.

The standard layered-flooding protocol: the root announces level 0; a
node adopting level ``l`` announces ``l + 1``; each node's parent is its
first announcer (lowest id on ties).  Terminates in ``eccentricity(root)
+ O(1)`` rounds.  The tree feeds :class:`ConvergecastSum` and gives the
engine a protocol whose round count is topology-dependent (unlike the
fixed-k gathers), which the test-suite uses to validate round accounting.

Batch execution: the wave is a frontier mask; one round adopts every
unvisited node with a frontier neighbor at once (parent = minimum-id
offering slot via a segment reduction), and the patience counter is a
single global integer because an unadopted node has, by construction,
never seen an offer.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...arrayops import segment_any, segment_min
from ...exceptions import ProtocolError
from ..engine import BatchContext, BatchProtocol, NodeContext
from ..messages import payload_words

__all__ = ["BFSTree"]

_LEVEL_WORDS = payload_words(("level", 0))


class BFSTree(BatchProtocol):
    """Build a BFS tree rooted at ``root``.

    Output per node: ``(level, parent)`` -- ``(0, root)`` at the root,
    ``(None, None)`` for nodes in other components (they halt when the
    wave cannot reach them; see ``patience``).

    Parameters
    ----------
    root:
        Root node id.
    patience:
        Rounds a node waits without hearing a wave before giving up;
        must exceed the graph diameter for correct cross-component
        behaviour.  Defaults to a generous bound set by the engine's
        ``max_rounds`` budget at run time.
    """

    name = "bfs-tree"

    def __init__(self, root: int, patience: int = 1_000) -> None:
        if patience < 1:
            raise ProtocolError(f"patience must be >= 1, got {patience}")
        self._root = root
        self._patience = patience

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        ctx.state["level"] = None
        ctx.state["parent"] = None
        ctx.state["idle"] = 0
        if ctx.node == self._root:
            ctx.state["level"] = 0
            ctx.state["parent"] = ctx.node
            ctx.halt()
            return {v: ("level", 0) for v in ctx.neighbors}
        return None

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        offers = sorted(
            (payload[1], sender)
            for sender, payload in inbox.items()
            if payload[0] == "level"
        )
        if offers:
            level, parent = offers[0]
            ctx.state["level"] = level + 1
            ctx.state["parent"] = parent
            ctx.halt()
            return {
                v: ("level", level + 1)
                for v in ctx.neighbors
                if v != parent
            }
        ctx.state["idle"] += 1
        if ctx.state["idle"] >= self._patience:
            ctx.halt()  # unreachable from the root
        return None

    def output(self, ctx: NodeContext) -> tuple[int | None, int | None]:
        return (ctx.state["level"], ctx.state["parent"])

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def on_start_batch(self, net: BatchContext) -> None:
        n = net.num_nodes
        level = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        frontier = np.zeros(n, dtype=bool)
        root_pos = np.searchsorted(net.labels, self._root)
        has_root = (
            root_pos < n and int(net.labels[root_pos]) == self._root
        )
        if has_root:
            level[root_pos] = 0
            parent[root_pos] = root_pos
            frontier[root_pos] = True
            net.halt(np.asarray([root_pos]))
            # The root announces to every neighbor.
            net.post_slots(net.sources == root_pos, _LEVEL_WORDS)
        net.state.update(level=level, parent=parent, frontier=frontier, idle=0)

    def on_round_batch(self, net: BatchContext) -> None:
        st = net.state
        level: np.ndarray = st["level"]
        parent: np.ndarray = st["parent"]
        frontier: np.ndarray = st["frontier"]

        # An offer arrives on slot e iff the neighbor announced last
        # round and this slot's owner is not that neighbor's parent.
        offer = frontier[net.indices] & (
            parent[net.indices] != net.sources
        )
        adopt = net.active & segment_any(offer, net.indptr)
        if adopt.any():
            offered_ids = np.where(offer, net.indices, net.num_nodes)
            best = segment_min(
                offered_ids, net.indptr, empty=net.num_nodes
            )
            wave_level = int(level[frontier][0]) + 1
            level[adopt] = wave_level
            parent[adopt] = best[adopt]
            # Adopters announce to all neighbors but their parent.
            net.post_slots(
                adopt[net.sources]
                & (net.indices != parent[net.sources]),
                _LEVEL_WORDS,
            )
            net.halt(adopt)
        st["frontier"] = adopt
        st["idle"] += 1
        if st["idle"] >= self._patience:
            net.halt(np.ones(net.num_nodes, dtype=bool))

    def outputs_batch(
        self, net: BatchContext
    ) -> dict[int, tuple[int | None, int | None]]:
        level = net.state["level"]
        parent = net.state["parent"]
        out: dict[int, tuple[int | None, int | None]] = {}
        for i, u in enumerate(net.labels.tolist()):
            if level[i] < 0:
                out[int(u)] = (None, None)
            else:
                out[int(u)] = (int(level[i]), int(net.labels[parent[i]]))
        return out
