"""k-hop information gathering by flooding.

The paper's distributed algorithm repeatedly has nodes "gather information
from at most k hops away" (Sections 3.1--3.2.4).  In the LOCAL model this
is exactly ``k`` rounds of flooding: every node starts with a set of local
*facts* (e.g. its incident spanner edges) and forwards newly learned facts
to all neighbors each round.  After ``k`` rounds a node knows precisely
the facts originating within its ``k``-hop ball -- the engine-level proof
of Theorems 14 and 16--19's round counts, and the property the tests
assert against a BFS of the same ``k``-hop ball.

Batch execution: facts are interned to integer ids once; each node's
known set is a sorted array of ``node * F + fact`` keys, and one round of
flooding is a single repeat/expand of every node's *fresh* facts across
its CSR slots followed by a sorted set-difference against the known keys
-- no per-node Python anywhere in the round loop.  Word accounting uses
per-fact word sizes measured by :func:`repro.distributed.messages.
payload_words`, so the batch tier bills exactly what the scalar tier's
frozenset payloads weigh.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

import numpy as np

from ...arrayops import run_expand
from ...exceptions import ProtocolError
from ..engine import BatchContext, BatchProtocol, NodeContext
from ..messages import payload_words

__all__ = ["KHopGather"]


class KHopGather(BatchProtocol):
    """Flood each node's initial facts for ``k`` rounds.

    Parameters
    ----------
    initial_facts:
        ``node -> iterable of hashable facts`` owned by that node at
        round 0.  Facts must be globally unique or idempotent (sets are
        unioned).
    k:
        Hop radius; after the run each node's output is the set of facts
        originating at nodes within ``k`` hops (including itself).
    """

    name = "k-hop-gather"

    def __init__(self, initial_facts: Mapping[int, Any], k: int) -> None:
        if k < 0:
            raise ProtocolError(f"k must be >= 0, got {k}")
        self._facts = {
            node: frozenset(facts) for node, facts in initial_facts.items()
        }
        self._k = k

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        known: set[Hashable] = set(self._facts.get(ctx.node, frozenset()))
        ctx.state["known"] = known
        ctx.state["age"] = 0
        if self._k == 0:
            ctx.halt()
            return None
        fresh = frozenset(known)
        return {v: fresh for v in ctx.neighbors} if fresh else {
            v: frozenset() for v in ctx.neighbors
        }

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        known: set[Hashable] = ctx.state["known"]
        fresh: set[Hashable] = set()
        for payload in inbox.values():
            fresh.update(payload - known if isinstance(payload, frozenset) else [])
            known.update(payload)
        ctx.state["age"] += 1
        if ctx.state["age"] >= self._k:
            ctx.halt()
            return None
        return {v: frozenset(fresh) for v in ctx.neighbors}

    def output(self, ctx: NodeContext) -> frozenset:
        """Facts known to this node after ``k`` rounds."""
        return frozenset(ctx.state["known"])

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def _intern_facts(
        self, net: BatchContext
    ) -> tuple[list[Hashable], dict[Hashable, int], np.ndarray]:
        """Assign integer ids (and word sizes) to the fact universe."""
        universe: list[Hashable] = []
        fact_id: dict[Hashable, int] = {}
        for u in net.labels.tolist():
            for fact in self._facts.get(u, ()):  # insertion-ordered ids
                if fact not in fact_id:
                    fact_id[fact] = len(universe)
                    universe.append(fact)
        words = np.asarray(
            [payload_words(f) for f in universe], dtype=np.int64
        )
        return universe, fact_id, words

    def on_start_batch(self, net: BatchContext) -> None:
        universe, fact_id, fact_words = self._intern_facts(net)
        n = net.num_nodes
        stride = max(1, len(universe))
        owner_keys: list[int] = []
        for i, u in enumerate(net.labels.tolist()):
            for fact in self._facts.get(u, ()):
                owner_keys.append(i * stride + fact_id[fact])
        known = np.unique(np.asarray(owner_keys, dtype=np.int64))
        net.state.update(
            universe=universe,
            fact_words=fact_words,
            stride=stride,
            known=known,
            fresh=known.copy(),  # round-0 fresh set == own facts
            age=0,
        )
        if self._k == 0:
            net.halt(np.ones(n, dtype=bool))
            return
        self._post_flood(net)

    def _fresh_per_node(
        self, net: BatchContext
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decompose the fresh key set into per-node CSR form."""
        stride = net.state["stride"]
        fresh = net.state["fresh"]
        nodes = fresh // stride
        fids = fresh - nodes * stride
        counts = np.bincount(nodes, minlength=net.num_nodes)
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        return fids, indptr, counts

    def _post_flood(self, net: BatchContext) -> None:
        """Account one frozenset payload per directed slot (everyone
        speaks to every neighbor, fresh or not -- like the scalar tier)."""
        fids, indptr, counts = self._fresh_per_node(net)
        fact_words = net.state["fact_words"]
        per_node_words = np.bincount(
            np.repeat(np.arange(net.num_nodes), counts),
            weights=fact_words[fids].astype(np.float64),
            minlength=net.num_nodes,
        ).astype(np.int64)
        # payload_words(frozenset) = 1 (container) + item words.
        net.post_nodes(net.degrees, net.degrees * (1 + per_node_words))

    def on_round_batch(self, net: BatchContext) -> None:
        st = net.state
        stride = st["stride"]
        known: np.ndarray = st["known"]

        # Deliver: every fresh fact of u lands on each of u's slots.
        fids, fresh_indptr, counts = self._fresh_per_node(net)
        slot_counts = counts[net.sources]
        receivers = np.repeat(net.indices, slot_counts)
        picks = run_expand(
            fresh_indptr[net.sources], slot_counts.astype(np.int64)
        )
        arrived = receivers * stride + fids[picks]
        arrived = np.unique(arrived)
        # Newly learned = arrived minus already known (both sorted).
        pos = np.searchsorted(known, arrived)
        pos_clipped = np.minimum(pos, max(0, known.size - 1))
        already = (
            (known.size > 0)
            & (pos < known.size)
            & (known[pos_clipped] == arrived)
        )
        new_keys = arrived[~already]

        st["known"] = np.union1d(known, new_keys) if new_keys.size else known
        st["fresh"] = new_keys
        st["age"] += 1
        if st["age"] >= self._k:
            net.halt(np.ones(net.num_nodes, dtype=bool))
            return
        self._post_flood(net)

    def outputs_batch(self, net: BatchContext) -> dict[int, frozenset]:
        st = net.state
        stride = st["stride"]
        universe = st["universe"]
        known = st["known"]
        nodes = known // stride
        fids = known - nodes * stride
        out: dict[int, frozenset] = {}
        counts = np.bincount(nodes, minlength=net.num_nodes)
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        for i, u in enumerate(net.labels.tolist()):
            row = fids[indptr[i] : indptr[i + 1]]
            out[int(u)] = frozenset(universe[f] for f in row.tolist())
        return out
