"""Convergecast aggregation over a BFS tree.

A standard substrate protocol: given a rooted spanning tree of the
communication graph, leaves send their values up; internal nodes combine
children's partial aggregates with their own value and forward; the root
ends with the global aggregate.  Used by examples to compute network-wide
statistics (total power cost, node counts) "in network", and by the test
suite as a second, structurally different protocol exercising the engine.

Batch tier: for numeric values under the default ``+`` combiner the
protocol also runs on the engine's array tier -- readiness is a waiting
counter per node, arrivals fold into a float64 accumulator with
``np.add.at`` (which applies updates in slot order: receiver-major,
sender ascending -- the exact fold order of the scalar inbox walk, so
float sums agree bit for bit), and message/word accounting uses the
fixed ``("agg", number)`` payload size.  Custom combiners or non-numeric
values drop back to the scalar tier automatically (``supports_batch`` is
computed per instance).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

import numpy as np

from ...exceptions import ProtocolError
from ..engine import BatchContext, BatchProtocol, NodeContext
from ..messages import payload_words
from .trees import rooted_forest_arrays

__all__ = ["ConvergecastSum"]

#: Fixed word cost of one ("agg", number) payload, shared by both tiers.
_AGG_WORDS = payload_words(("agg", 0))

#: Integer magnitude safely exact in the float64 batch accumulator.
_EXACT_INT = 2**53


class ConvergecastSum(BatchProtocol):
    """Aggregate values towards a root along tree edges.

    Parameters
    ----------
    parents:
        ``node -> parent`` mapping defining the tree; the root maps to
        itself.  Tree edges must exist in the run topology.
    values:
        ``node -> initial value``.
    combine:
        Associative-commutative combiner (default: ``+``).  Passing a
        custom combiner restricts execution to the scalar tier.

    Output: the aggregate at the root; ``None`` elsewhere.
    """

    name = "convergecast"

    def __init__(
        self,
        parents: Mapping[int, int],
        values: Mapping[int, Any],
        combine: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        self._parents = dict(parents)
        self._values = dict(values)
        self._combine = combine if combine is not None else operator.add
        numeric = all(
            isinstance(v, (int, float)) for v in self._values.values()
        )
        self._int_values = numeric and all(
            isinstance(v, int) for v in self._values.values()
        )
        # Integer aggregates are exact on the float64 batch tier only
        # while every partial sum fits the 53-bit mantissa; bounding the
        # sum of magnitudes bounds every partial sum on any tree shape.
        exact = numeric and (
            not self._int_values
            or sum(abs(v) for v in self._values.values()) < _EXACT_INT
        )
        #: Batch execution is exact only for numeric sums (the fold
        #: order matches the scalar walk; ints must stay exactly
        #: representable throughout).
        self.supports_batch = combine is None and exact

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        parent = self._parents.get(ctx.node, ctx.node)
        if parent != ctx.node and parent not in ctx.neighbors:
            raise ProtocolError(
                f"parent {parent} of node {ctx.node} is not a neighbor"
            )
        children = [
            v for v in ctx.neighbors if self._parents.get(v) == ctx.node
        ]
        ctx.state["waiting"] = set(children)
        ctx.state["acc"] = self._values.get(ctx.node, 0)
        ctx.state["is_root"] = parent == ctx.node
        ctx.state["parent"] = parent
        if not children:  # leaf: speak immediately
            if ctx.state["is_root"]:
                ctx.halt()
                return None
            ctx.halt()
            return {parent: ("agg", ctx.state["acc"])}
        return None

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        waiting: set[int] = ctx.state["waiting"]
        for sender, payload in inbox.items():
            if payload[0] != "agg" or sender not in waiting:
                continue
            ctx.state["acc"] = self._combine(ctx.state["acc"], payload[1])
            waiting.discard(sender)
        if waiting:
            return None
        ctx.halt()
        if ctx.state["is_root"]:
            return None
        return {ctx.state["parent"]: ("agg", ctx.state["acc"])}

    def output(self, ctx: NodeContext) -> Any:
        """Aggregate at the root, ``None`` elsewhere."""
        return ctx.state["acc"] if ctx.state["is_root"] else None

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def on_start_batch(self, net: BatchContext) -> None:
        is_root, parent_slot, child_slots = rooted_forest_arrays(
            net,
            self._parents,
            error="parent {parent} of node {node} is not a neighbor",
        )
        n = net.num_nodes
        acc = np.asarray(
            [float(self._values.get(int(u), 0)) for u in net.labels],
            dtype=np.float64,
        )
        waiting = np.bincount(
            net.sources[child_slots], minlength=n
        ).astype(np.int64)
        outbox = np.zeros(net.num_slots, dtype=bool)
        outbox_val = np.zeros(net.num_slots, dtype=np.float64)
        leaves = waiting == 0
        net.halt(leaves)
        senders = leaves & ~is_root
        slots = parent_slot[senders]
        outbox[slots] = True
        outbox_val[slots] = acc[senders]
        net.post_slots(outbox, _AGG_WORDS)
        net.state.update(
            parent_slot=parent_slot,
            is_root=is_root,
            acc=acc,
            waiting=waiting,
            outbox=outbox,
            outbox_val=outbox_val,
        )

    def on_round_batch(self, net: BatchContext) -> None:
        st = net.state
        inbox = net.exchange(st["outbox"])
        inbox_val = net.exchange(st["outbox_val"])
        outbox = np.zeros(net.num_slots, dtype=bool)
        outbox_val = np.zeros(net.num_slots, dtype=np.float64)
        arrivals = np.flatnonzero(inbox)
        if arrivals.size:
            receivers = net.sources[arrivals]
            # np.add.at applies updates sequentially in slot order --
            # receiver-major, sender ascending -- matching the scalar
            # inbox fold exactly (floats included).
            np.add.at(st["acc"], receivers, inbox_val[arrivals])
            st["waiting"] -= np.bincount(receivers, minlength=net.num_nodes)
        ready = net.active & (st["waiting"] == 0)
        net.halt(ready)
        senders = ready & ~st["is_root"]
        slots = st["parent_slot"][senders]
        outbox[slots] = True
        outbox_val[slots] = st["acc"][senders]
        net.post_slots(outbox, _AGG_WORDS)
        st["outbox"], st["outbox_val"] = outbox, outbox_val

    def outputs_batch(self, net: BatchContext) -> dict[int, Any]:
        st = net.state
        out: dict[int, Any] = {}
        for i, u in enumerate(net.labels.tolist()):
            if st["is_root"][i]:
                value = float(st["acc"][i])
                out[u] = int(value) if self._int_values else value
            else:
                out[u] = None
        return out
