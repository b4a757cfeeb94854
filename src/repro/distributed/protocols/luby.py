"""Luby's randomized maximal independent set as a message protocol.

The paper invokes the Kuhn--Moscibroda--Wattenhofer ``O(log* n)`` MIS for
growth-bounded graphs [11] as a black box.  Reimplementing KMW faithfully
is out of scope (see DESIGN.md, Substitutions); we run Luby's classic
algorithm instead -- ``O(log n)`` rounds with high probability on *any*
graph, and only a handful of iterations on the small, growth-bounded
derived graphs the spanner algorithm actually builds.

Each Luby iteration costs two message rounds:

1. every undecided node draws a random priority and sends it to all
   undecided neighbors;
2. a node whose priority is a strict local minimum (ties broken by id)
   joins the MIS and announces it; neighbors of new MIS members become
   permanently excluded and announce that.

The protocol is exact: on termination the chosen set is independent and
maximal (asserted by the test-suite on random graphs).

Randomness contract: per-(node, iteration) priorities come from the
counter-based SplitMix64/Murmur3 hash of :mod:`repro.arrayops` -- the
same family the gray-zone policies use -- so the scalar tier (one
``random`` draw per node per iteration) and the batch tier (one hash of
the whole id array per iteration) produce bit-identical priorities, and
the equivalence tests can pin scalar == batch ``RunResult``\\ s exactly.

Batch execution: the batch hooks mirror the scalar state machine over
slot arrays -- ``slot_active[e]`` is "the neighbor on directed slot ``e``
is still in my active set", bids travel as a per-slot priority array
through :meth:`BatchContext.exchange`, winners are per-row lexicographic
minima via segment reductions, and fate notifications reduce to clearing
slot columns.  Message/word accounting matches the scalar dispatch
message for message.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...arrayops import (
    checked_seed,
    counter_uniform,
    counter_uniforms,
    seed_state,
    segment_min,
    segment_sum,
)
from ..engine import BatchContext, BatchProtocol, NodeContext
from ..messages import payload_words

__all__ = ["LubyMIS"]

_UNDECIDED = "undecided"
_IN_MIS = "in_mis"
_OUT = "out"

# Status codes of the batch tier (scalar keeps the string states).
_S_UNDECIDED = 0
_S_IN_MIS = 1
_S_OUT = 2

# Word costs per message kind, derived from the payloads the scalar tier
# actually sends so the accounting can never drift between tiers.
_BID_WORDS = payload_words(("bid", 0.5))
_FATE_WORDS = {
    _S_IN_MIS: payload_words(("fate", _IN_MIS)),
    _S_OUT: payload_words(("fate", _OUT)),
    _S_UNDECIDED: payload_words(("fate", _UNDECIDED)),
}


class LubyMIS(BatchProtocol):
    """Luby's MIS over the run topology.

    Parameters
    ----------
    seed:
        Seed for the per-node pseudo-random priorities (node ids are mixed
        in, so one seed drives the whole network deterministically).

    Notes
    -----
    Output per node is ``True`` iff the node joined the MIS.  Isolated
    nodes join immediately.
    """

    name = "luby-mis"

    def __init__(self, seed: int = 0) -> None:
        self._seed = checked_seed(seed, "LubyMIS")
        self._state = seed_state(self._seed)

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def _draw(self, node: int, iteration: int) -> float:
        return counter_uniform(self._state, node, iteration)

    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        ctx.state["status"] = _UNDECIDED
        ctx.state["iteration"] = 0
        ctx.state["phase"] = "propose"
        ctx.state["active_nbrs"] = set(ctx.neighbors)
        if not ctx.neighbors:  # isolated: in MIS by definition
            ctx.state["status"] = _IN_MIS
            ctx.halt()
            return None
        priority = self._draw(ctx.node, 0)
        ctx.state["priority"] = priority
        return {v: ("bid", priority) for v in ctx.neighbors}

    # ------------------------------------------------------------------
    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        if ctx.state["phase"] == "propose":
            return self._resolve(ctx, inbox)
        return self._propose(ctx, inbox)

    def _resolve(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        """Compare bids; winners join the MIS and everyone reports fate."""
        active: set[int] = ctx.state["active_nbrs"]
        my = (ctx.state["priority"], ctx.node)
        wins = True
        for sender, payload in inbox.items():
            if payload[0] == "bid" and sender in active:
                if (payload[1], sender) < my:
                    wins = False
            elif payload[0] == "fate" and payload[1] == _OUT:
                # Last-breath notification from a neighbor that went out
                # in the previous notify round.
                active.discard(sender)
        ctx.state["phase"] = "notify"
        if wins:
            ctx.state["status"] = _IN_MIS
            return {v: ("fate", _IN_MIS) for v in active}
        return {v: ("fate", _UNDECIDED) for v in active}

    def _propose(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        """Digest fate notifications; survivors start the next iteration."""
        active: set[int] = ctx.state["active_nbrs"]
        mis_neighbor = False
        for sender, payload in inbox.items():
            if payload[0] != "fate":
                continue
            if payload[1] == _IN_MIS:
                mis_neighbor = True
                active.discard(sender)
            elif payload[1] == _OUT:
                active.discard(sender)
        if ctx.state["status"] == _IN_MIS:
            ctx.halt()
            return None
        if mis_neighbor:
            ctx.state["status"] = _OUT
            ctx.halt()
            # Last breath: tell remaining active neighbors we are out so
            # they stop waiting for our bids.
            return {v: ("fate", _OUT) for v in active}
        active_now = set(active)
        ctx.state["active_nbrs"] = active_now
        ctx.state["iteration"] += 1
        ctx.state["phase"] = "propose"
        if not active_now:  # all neighbors decided, none in MIS -> join
            ctx.state["status"] = _IN_MIS
            ctx.halt()
            return None
        priority = self._draw(ctx.node, ctx.state["iteration"])
        ctx.state["priority"] = priority
        return {v: ("bid", priority) for v in active_now}

    def output(self, ctx: NodeContext) -> bool:
        """Whether this node is in the MIS."""
        return ctx.state["status"] == _IN_MIS

    def on_peer_dead(self, ctx: NodeContext, peer: int) -> None:
        """Hardening hook (event tier): a neighbor stopped responding --
        stop expecting its bids and fates, exactly as if it had gone OUT."""
        active = ctx.state.get("active_nbrs")
        if active is not None:
            active.discard(peer)

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def on_start_batch(self, net: BatchContext) -> None:
        n = net.num_nodes
        status = np.full(n, _S_UNDECIDED, dtype=np.int8)
        isolated = net.degrees == 0
        status[isolated] = _S_IN_MIS
        net.halt(isolated)
        # Priorities are drawn with the *original* node labels so scalar
        # and batch runs agree on any (possibly relabeled) topology.
        priority = counter_uniforms(
            self._state, net.labels, np.zeros(n, dtype=np.int64)
        )
        net.state.update(
            status=status,
            priority=priority,
            iteration=0,
            resolve_next=True,
            # slot_active[e]: neighbor indices[e] is in sources[e]'s
            # active set (symmetric between live node pairs).
            slot_active=np.ones(net.num_slots, dtype=bool),
        )
        # Every non-isolated node bids to all neighbors.
        net.post_slots(net.active[net.sources], _BID_WORDS)

    def on_round_batch(self, net: BatchContext) -> None:
        if net.state["resolve_next"]:
            self._resolve_batch(net)
        else:
            self._propose_batch(net)
        net.state["resolve_next"] = not net.state["resolve_next"]

    def _resolve_batch(self, net: BatchContext) -> None:
        """Compare bids; winners join the MIS and everyone reports fate."""
        st = net.state
        status: np.ndarray = st["status"]
        slot_active: np.ndarray = st["slot_active"]
        priority: np.ndarray = st["priority"]

        # Mailbox exchange: each active node bid to its active set last
        # round, so the incoming bid on slot e exists iff the reverse
        # slot was live (slot_active is symmetric between live nodes).
        bid_out = net.active[net.sources] & slot_active
        bid_val = priority[net.sources]
        bid_in = net.exchange(bid_out)
        val_in = np.where(bid_in, net.exchange(bid_val), np.inf)

        # Strict lexicographic minimum of (priority, id) per row; ids are
        # compact indices, which order exactly like the original labels.
        best_val = segment_min(val_in, net.indptr, empty=np.inf)
        tie = bid_in & (val_in == best_val[net.sources])
        nbr_ids = np.where(tie, net.indices, net.num_nodes)
        best_id = segment_min(nbr_ids, net.indptr, empty=net.num_nodes)
        mine = priority
        wins = net.active & (
            (mine < best_val)
            | ((mine == best_val) & (np.arange(net.num_nodes) < best_id))
        )
        status[wins] = _S_IN_MIS

        # Fate notifications to the (already OUT-pruned) active sets.
        active_deg = segment_sum(slot_active.astype(np.int64), net.indptr)
        undecided = net.active & ~wins
        net.post_nodes(
            np.where(wins | undecided, active_deg, 0),
            active_deg
            * (
                wins * _FATE_WORDS[_S_IN_MIS]
                + undecided * _FATE_WORDS[_S_UNDECIDED]
            ),
        )

    def _propose_batch(self, net: BatchContext) -> None:
        """Digest fate notifications; survivors start the next iteration."""
        st = net.state
        status: np.ndarray = st["status"]
        slot_active: np.ndarray = st["slot_active"]

        winners = net.active & (status == _S_IN_MIS)
        # A winner's announcement reaches exactly its active set.
        saw_winner = winners[net.indices] & slot_active
        mis_nbr = (
            segment_sum(saw_winner.astype(np.int64), net.indptr) > 0
        )

        # Everyone discards announced winners (both slot directions).
        slot_active &= ~(winners[net.indices] | winners[net.sources])
        active_deg = segment_sum(slot_active.astype(np.int64), net.indptr)

        out_nodes = net.active & ~winners & mis_nbr
        survivors = net.active & ~winners & ~mis_nbr
        joiners = survivors & (active_deg == 0)
        bidders = survivors & (active_deg > 0)

        status[out_nodes] = _S_OUT
        status[joiners] = _S_IN_MIS

        st["iteration"] += 1
        st["priority"] = counter_uniforms(
            self._state,
            net.labels,
            np.full(net.num_nodes, st["iteration"], dtype=np.int64),
        )

        # Last breaths from OUT nodes, bids from survivors -- both sent
        # to the winner-pruned active sets, which may still include
        # neighbors halting this very round (exactly as in the scalar
        # tier, where those sends land in halted inboxes unread).
        net.post_nodes(
            np.where(out_nodes | bidders, active_deg, 0),
            active_deg
            * (out_nodes * _FATE_WORDS[_S_OUT] + bidders * _BID_WORDS),
        )

        halted_now = winners | out_nodes | joiners
        net.halt(halted_now)
        slot_active &= ~(
            halted_now[net.indices] | halted_now[net.sources]
        )

    def outputs_batch(self, net: BatchContext) -> dict[int, bool]:
        chosen = net.state["status"] == _S_IN_MIS
        return dict(zip(net.labels.tolist(), chosen.tolist()))
