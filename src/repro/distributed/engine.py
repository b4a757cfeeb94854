"""Synchronous message-passing engine (the paper's Section 1.1 model).

Time proceeds in rounds.  In each round every node reads the messages its
neighbors sent in the previous round, performs arbitrary local
computation, and emits at most one message per neighbor.  The engine:

* runs a :class:`Protocol` over a communication topology -- a weighted
  :class:`repro.graphs.Graph` (the radio network itself), a plain
  adjacency mapping, or bare CSR arrays (a *derived* virtual graph such
  as the proximity graph of Section 3.2.1 or the conflict graph ``J``
  of Section 3.2.5, whose "edges" are short multi-hop channels in the
  real network; the CSR form lets the batch tier run on the arrays
  directly, dict-free, and its optional labels let a run cover an
  induced subgraph while every node keeps its original id);
* counts rounds, messages, and payload words;
* refuses to run past ``max_rounds`` (a protocol that fails to halt is a
  bug, not a workload).

Two execution tiers
-------------------
The engine executes protocols on one of two tiers with identical
semantics and identical :class:`RunResult` accounting, and the protocol
decides which:

* the **batch tier** runs every protocol that sets ``supports_batch``
  (the :class:`BatchProtocol` subclasses) and steps *all active nodes
  at once*: the protocol receives a :class:`BatchContext` holding the
  topology as CSR arrays (one *slot* per directed edge, addressed
  exactly like the rows of :meth:`repro.graphs.graph.Graph.csr`),
  exchanges whole mailbox arrays per round via the reverse-slot
  permutation (:meth:`BatchContext.exchange`), replaces the per-node
  halted checks with a boolean active mask, and reports message/word
  counts through ufunc reductions (:meth:`BatchContext.post`);
* the **scalar tier** runs every other protocol and steps one
  :class:`NodeContext` at a time through ``on_start`` / ``on_round``:
  plain :class:`Protocol` subclasses, and batch-capable ones that
  decline the batch tier for a run (a custom combiner, integer sums
  too large for float64).

The test-suite pins ``RunResult`` equality -- rounds, messages, words
and outputs, in identical insertion order -- between the two tiers on
seeded runs of every batch-capable protocol, stepping its scalar hooks
through a proxy that hides the batch ones.

Protocols keep their per-node state in the :class:`NodeContext` (scalar)
or the shared ``state`` dict of the :class:`BatchContext` (batch) handed
to them, so a protocol object itself is reusable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from ..exceptions import ProtocolError, SimulationLimitError
from ..graphs.graph import Graph
from .messages import payload_words

__all__ = [
    "NodeContext",
    "Protocol",
    "BatchProtocol",
    "BatchContext",
    "RunResult",
    "SynchronousNetwork",
    "check_csr_topology",
]


@dataclass
class NodeContext:
    """Per-node execution context visible to protocol code.

    Attributes
    ----------
    node:
        This node's id.
    neighbors:
        Ids reachable in one round (fixed for the run).
    state:
        Protocol-owned mutable state bag.
    halted:
        Set by the protocol when the node stops participating.  A halted
        node sends nothing; it still receives (and may be woken by
        messages in protocols that support it -- ours never need to).
    """

    node: int
    neighbors: tuple[int, ...]
    state: dict[str, Any] = field(default_factory=dict)
    halted: bool = False

    def halt(self) -> None:
        """Mark this node as finished."""
        self.halted = True


class Protocol:
    """Base class for synchronous protocols.

    Subclasses implement :meth:`on_start` and :meth:`on_round`; both
    return an *outbox* -- a mapping ``neighbor -> payload`` (``{}``/None
    for silence).  The engine validates that outbox keys are genuine
    neighbors.
    """

    name = "protocol"

    def on_start(self, ctx: NodeContext) -> Mapping[int, Any] | None:
        """Round 0 action: initialize state, optionally speak."""
        return None

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> Mapping[int, Any] | None:
        """One round: consume ``inbox`` (sender -> payload), reply."""
        raise NotImplementedError

    def output(self, ctx: NodeContext) -> Any:
        """Final per-node result extracted after the run."""
        return None


class BatchContext:
    """Whole-network execution context for the batch tier.

    The communication topology is exposed as CSR arrays over *compact*
    node indices ``0 .. n-1`` (``labels[i]`` recovers the original node
    id; for a :class:`repro.graphs.Graph` topology the arrays alias the
    structure of :meth:`Graph.csr`).  Each directed edge occupies one
    *slot*: slot ``e`` in ``[indptr[u], indptr[u+1])`` is the channel on
    which node ``u`` *sends to* neighbor ``indices[e]``; the reverse
    channel is slot ``rev[e]``.  A per-round mailbox exchange is one
    gather: ``inbox = outbox.take(rev)`` aligns every received payload
    with the receiver's own slot row, after which per-node reductions are
    ``reduceat`` segments over ``indptr``.

    Attributes
    ----------
    labels:
        ``(n,)`` compact index -> original node id (ascending, so output
        dict insertion order matches the scalar tier's sorted order).
    indptr, indices:
        CSR adjacency over compact indices (neighbor lists ascending).
    sources:
        ``(2m,)`` slot -> sending node (row owner), i.e.
        ``repeat(arange(n), degrees)``.
    rev:
        ``(2m,)`` slot of the reversed directed edge.
    degrees:
        ``(n,)`` node degrees.
    active:
        ``(n,)`` boolean mask of nodes still participating; the batch
        analogue of the per-node ``halted`` flag (cleared via
        :meth:`halt`).
    state:
        Protocol-owned state bag (typically holding numpy arrays).
    """

    __slots__ = (
        "labels",
        "indptr",
        "indices",
        "sources",
        "rev",
        "degrees",
        "active",
        "state",
        "_messages",
        "_words",
        "_sent_in_round",
    )

    def __init__(
        self,
        labels: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rev: np.ndarray,
    ) -> None:
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.rev = rev
        self.degrees = np.diff(indptr)
        self.sources = np.repeat(
            np.arange(labels.size, dtype=np.int64), self.degrees
        )
        self.active = np.ones(labels.size, dtype=bool)
        self.state: dict[str, Any] = {}
        self._messages = 0
        self._words = 0
        self._sent_in_round = False

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of participating nodes."""
        return self.labels.size

    @property
    def num_slots(self) -> int:
        """Number of directed-edge slots (twice the edge count)."""
        return self.indices.size

    def halt(self, nodes: np.ndarray) -> None:
        """Deactivate ``nodes`` (boolean mask or index array)."""
        self.active[nodes] = False

    def exchange(self, outbox: np.ndarray) -> np.ndarray:
        """Deliver a per-slot outbox array: ``result[e]`` is what the
        neighbor on slot ``e`` sent *to* the slot's owner this round."""
        return outbox.take(self.rev, axis=0)

    def post(self, messages: int, words: int) -> None:
        """Account ``messages`` messages totalling ``words`` words sent
        this round (callers compute both via ufunc reductions)."""
        messages = int(messages)
        if messages < 0 or words < 0:
            raise ProtocolError(
                f"cannot post negative traffic ({messages} msgs, {words} words)"
            )
        if messages:
            self._messages += messages
            self._words += int(words)
            self._sent_in_round = True

    def post_nodes(self, counts: np.ndarray, words: np.ndarray) -> None:
        """Account per-sender traffic: node ``i`` sent ``counts[i]``
        messages totalling ``words[i]`` words this round."""
        self.post(int(np.sum(counts)), int(np.sum(words)))

    def post_slots(self, mask: np.ndarray, words_each: int) -> None:
        """Account one message per set slot in ``mask``, ``words_each``
        words apiece (the fixed-size-payload fast path)."""
        count = int(np.count_nonzero(mask))
        self.post(count, count * words_each)


class BatchProtocol(Protocol):
    """A protocol that can also run on the batch tier.

    Subclasses implement the scalar hooks (the semantic reference) *and*
    the batch hooks below; the engine runs them on the batch tier while
    ``supports_batch`` is true.  The contract, pinned by the test-suite,
    is that for any topology and seed the two tiers produce identical
    :class:`RunResult`\\ s -- same rounds, same message and word totals,
    same outputs in the same insertion order.
    """

    #: Advertises batch capability to ``SynchronousNetwork.run``.
    supports_batch = True

    def on_start_batch(self, net: BatchContext) -> None:
        """Round 0 for all nodes at once: initialize ``net.state``, halt
        any immediately-finished nodes, post initial traffic."""
        raise NotImplementedError

    def on_round_batch(self, net: BatchContext) -> None:
        """One synchronous round for every active node at once."""
        raise NotImplementedError

    def outputs_batch(self, net: BatchContext) -> dict[int, Any]:
        """Final ``node -> output`` dict, keyed by *original* node ids in
        ascending (``net.labels``) order."""
        return {int(u): None for u in net.labels}


@dataclass
class RunResult:
    """Outcome of one protocol execution.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed (round 0, the on_start
        broadcast, counts as a round iff any message was sent in it).
    messages:
        Total messages delivered.
    words:
        Total payload volume in words (diagnostic).
    outputs:
        ``node -> protocol output``; insertion order is ascending node id
        on both execution tiers (deterministic for downstream iteration).
    retransmissions:
        Reliable-delivery resends (event tier only; the synchronous
        tiers never retransmit, so their value is 0 and equality pins
        between tiers stay exact).
    control_messages:
        Protocol-overhead messages -- acks, safe markers, probes -- sent
        by hardened protocols on the event tier.
    dropped:
        Transmissions lost to the fault plan or to a dead receiver.
    recovery_rounds:
        Extra rounds charged by runner-level repair sweeps (re-covering
        crashed nodes' clusters, re-attaching orphaned tree nodes).
    crashed:
        Node ids dead when the run ended (event tier only).
    """

    rounds: int
    messages: int
    words: int
    outputs: dict[int, Any]
    retransmissions: int = 0
    control_messages: int = 0
    dropped: int = 0
    recovery_rounds: int = 0
    crashed: tuple = ()


def _reverse_slots(
    sources: np.ndarray, indices: np.ndarray, n: int
) -> np.ndarray:
    """Reverse-slot permutation of the slots ``sources[e] -> indices[e]``
    over ``n`` nodes: slot ``(u -> v)`` maps to ``(v -> u)``, or to
    ``-1`` when the topology has no such slot.

    Keys ``(src, dst)`` of ascending rows are already lexsorted, so the
    reverse slot is a binary search for ``(dst, src)``.
    """
    key_fwd = sources * n + indices
    key_rev = indices * n + sources
    rev = np.minimum(
        np.searchsorted(key_fwd, key_rev), max(key_fwd.size - 1, 0)
    )
    rev[key_fwd[rev] != key_rev] = -1
    return rev


def check_csr_topology(
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate a CSR topology and return ``(labels, indptr, indices,
    rev)`` as int64 arrays.

    ``(indptr, indices)`` must describe a symmetric adjacency over
    compact ids ``0..k-1`` with strictly ascending, loop-free rows;
    ``labels`` (default ``0..k-1``) must hold one strictly ascending id
    per node.  ``rev`` is the reverse-slot permutation the batch tier
    exchanges mailboxes with.  Raises :class:`ProtocolError` naming the
    first violation.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size < 1 or indices.ndim != 1:
        raise ProtocolError("CSR topology arrays must be 1-D, indptr non-empty")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ProtocolError("CSR indptr must span [0, len(indices)]")
    degrees = np.diff(indptr)
    if (degrees < 0).any():
        raise ProtocolError("CSR indptr must be non-decreasing")
    n = indptr.size - 1
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ProtocolError(
                f"CSR labels must name each of the {n} nodes once, got "
                f"shape {labels.shape}"
            )
        bad = np.diff(labels) <= 0
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise ProtocolError(
                "CSR labels must be strictly ascending; label "
                f"{int(labels[i])} of node {i} follows {int(labels[i - 1])}"
            )
    owners = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            raise ProtocolError(f"CSR neighbor id out of range [0, {n})")
        loops = indices == owners
        if loops.any():
            slot = int(np.argmax(loops))
            raise ProtocolError(
                f"self-loop at {int(owners[slot])} in topology "
                f"(CSR slot {slot})"
            )
        keys = owners * n + indices
        bad = np.diff(keys) <= 0
        if bad.any():
            slot = int(np.argmax(bad)) + 1
            raise ProtocolError(
                "CSR rows must be strictly ascending (sorted, no "
                f"duplicate neighbors); first violation at slot {slot} "
                f"(node {int(owners[slot])} -> {int(indices[slot])})"
            )
    rev = _reverse_slots(owners, indices, n)
    if (rev < 0).any():
        slot = int(np.argmax(rev < 0))
        raise ProtocolError(
            f"CSR topology is not symmetric: slot {slot} "
            f"({int(owners[slot])} -> {int(indices[slot])}) "
            "has no reverse edge"
        )
    return labels, indptr, indices, rev


class SynchronousNetwork:
    """Executes protocols over a fixed communication topology.

    Parameters
    ----------
    topology:
        One of three forms:

        * a :class:`Graph` (the radio network itself);
        * an adjacency mapping ``node -> iterable of neighbors``
          (a derived virtual graph; symmetrized automatically);
        * a CSR array pair ``(indptr, indices)`` over nodes ``0..n-1``
          -- the dict-free form the distributed spanner's proximity
          graph arrives in.  The arrays must describe a symmetric
          adjacency with ascending, loop-free rows; the batch tier runs
          on them directly (no per-node dicts are ever built), and the
          scalar tier materializes neighbor tuples lazily on first use;
        * a labeled CSR triple ``(indptr, indices, labels)``: the same
          arrays over compact ids ``0..k-1``, with ``labels[i]`` the id
          node ``i`` takes part under on both tiers (what
          :func:`repro.distributed.mis.induced_csr` returns).  Labels
          must be strictly ascending, one per node, so compact order is
          id order and a protocol that draws or breaks ties by id runs
          exactly as it would on the full topology.

        Nodes without entries are not part of the computation.
        Self-loops are rejected for every topology kind; a CSR topology
        is validated by :func:`check_csr_topology`.
    max_rounds:
        Hard budget; exceeding it raises :class:`SimulationLimitError`.
    """

    def __init__(
        self,
        topology: Graph | Mapping[int, Iterable[int]] | tuple,
        *,
        max_rounds: int = 10_000,
    ) -> None:
        if max_rounds < 1:
            raise ProtocolError(f"max_rounds must be >= 1, got {max_rounds}")
        self._max_rounds = max_rounds
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._graph = topology if isinstance(topology, Graph) else None
        self._batch_ctx_arrays: tuple[np.ndarray, ...] | None = None
        if isinstance(topology, Graph):
            self._adj = {}
            for u in topology.vertices():
                nbrs = tuple(sorted(topology.neighbors(u)))
                if u in nbrs:
                    raise ProtocolError(f"self-loop at {u} in topology")
                self._adj[u] = nbrs
        elif isinstance(topology, tuple):
            if len(topology) not in (2, 3):
                raise ProtocolError(
                    "CSR topology must be (indptr, indices) or (indptr, "
                    f"indices, labels), got a {len(topology)}-tuple"
                )
            self._batch_ctx_arrays = check_csr_topology(*topology)
        else:
            sym: dict[int, set[int]] = {u: set() for u in topology}
            for u, nbrs in topology.items():
                for v in nbrs:
                    if v == u:
                        raise ProtocolError(f"self-loop at {u} in topology")
                    sym.setdefault(u, set()).add(v)
                    sym.setdefault(v, set()).add(u)
            self._adj = {u: tuple(sorted(ns)) for u, ns in sym.items()}
        # Snapshot the CSR arrays now: both tiers must see the topology
        # as of construction even if a Graph is mutated afterwards.
        self._topology_arrays()

    @property
    def nodes(self) -> list[int]:
        """Participating node ids, sorted."""
        if self._adj is None:
            return self._batch_ctx_arrays[0].tolist()
        return sorted(self._adj)

    def _scalar_adj(self) -> dict[int, tuple[int, ...]]:
        """Neighbor tuples for the scalar tier (built lazily for CSR
        topologies, which the batch tier never needs in dict form)."""
        if self._adj is None:
            labels, indptr, indices, _ = self._batch_ctx_arrays
            ptr = indptr.tolist()
            nbrs = labels[indices].tolist()
            self._adj = {
                u: tuple(nbrs[ptr[i] : ptr[i + 1]])
                for i, u in enumerate(labels.tolist())
            }
        return self._adj

    # ------------------------------------------------------------------
    # Batch topology arrays
    # ------------------------------------------------------------------
    def _topology_arrays(self) -> tuple[np.ndarray, ...]:
        """CSR snapshot of the topology over compact indices (cached).

        Graph topologies reuse the graph's own cached
        :meth:`Graph.csr` structure; mapping topologies build the same
        arrays from the normalized adjacency; CSR topologies were
        validated and snapshotted at construction.
        """
        if self._batch_ctx_arrays is None:
            if self._graph is not None:
                mat = self._graph.csr()
                labels = np.arange(self._graph.num_vertices, dtype=np.int64)
                indptr = mat.indptr.astype(np.int64)
                indices = mat.indices.astype(np.int64)
            else:
                labels = np.asarray(self.nodes, dtype=np.int64)
                index_of = {int(u): i for i, u in enumerate(labels)}
                indptr = np.zeros(labels.size + 1, dtype=np.int64)
                for i, u in enumerate(labels):
                    indptr[i + 1] = indptr[i] + len(self._adj[int(u)])
                indices = np.empty(int(indptr[-1]), dtype=np.int64)
                for i, u in enumerate(labels):
                    row = [index_of[v] for v in self._adj[int(u)]]
                    indices[indptr[i] : indptr[i + 1]] = row
            # Graph/mapping topologies are symmetric by construction.
            n = labels.size
            sources = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(indptr)
            )
            rev = _reverse_slots(sources, indices, n)
            self._batch_ctx_arrays = (labels, indptr, indices, rev)
        return self._batch_ctx_arrays

    def _batch_context(self) -> BatchContext:
        labels, indptr, indices, rev = self._topology_arrays()
        return BatchContext(labels, indptr, indices, rev)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, protocol: Protocol) -> RunResult:
        """Run ``protocol`` to completion (all nodes halted).

        Rounds in which no node is active are not possible: the engine
        stops exactly when every node has halted.  A round is counted
        whenever at least one node computes (even silently), matching the
        synchronous model where the global clock ticks for everyone.
        A protocol whose ``supports_batch`` is true runs on the batch
        tier, any other on the scalar tier.
        """
        if getattr(protocol, "supports_batch", False):
            return self._run_batch(protocol)
        return self._run_scalar(protocol)

    # ------------------------------------------------------------------
    def _run_scalar(self, protocol: Protocol) -> RunResult:
        """The per-node tier, for protocols without ``supports_batch``."""
        adj = self._scalar_adj()
        contexts = {
            u: NodeContext(node=u, neighbors=adj[u]) for u in adj
        }
        pending: dict[int, dict[int, Any]] = {u: {} for u in adj}
        messages = 0
        words = 0
        rounds = 0

        def dispatch(sender: int, outbox: Mapping[int, Any] | None) -> int:
            nonlocal messages, words
            if not outbox:
                return 0
            allowed = set(adj[sender])
            count = 0
            for receiver, payload in outbox.items():
                if receiver not in allowed:
                    raise ProtocolError(
                        f"{protocol.name}: node {sender} attempted to message "
                        f"non-neighbor {receiver}"
                    )
                pending[receiver][sender] = payload
                messages += 1
                words += payload_words(payload)
                count += 1
            return count

        sent_any = False
        for u in self.nodes:
            sent_any |= bool(dispatch(u, protocol.on_start(contexts[u])))
        if sent_any:
            rounds += 1

        while not all(ctx.halted for ctx in contexts.values()):
            if rounds >= self._max_rounds:
                raise SimulationLimitError(
                    f"{protocol.name}: exceeded {self._max_rounds} rounds "
                    f"({sum(1 for c in contexts.values() if not c.halted)} "
                    "nodes still active)"
                )
            inboxes = pending
            pending = {u: {} for u in adj}
            for u in self.nodes:
                ctx = contexts[u]
                if ctx.halted:
                    continue
                dispatch(u, protocol.on_round(ctx, inboxes[u]))
            rounds += 1

        return RunResult(
            rounds=rounds,
            messages=messages,
            words=words,
            outputs={u: protocol.output(contexts[u]) for u in self.nodes},
        )

    # ------------------------------------------------------------------
    def _run_batch(self, protocol: BatchProtocol) -> RunResult:
        """The all-nodes-at-once tier (identical accounting contract)."""
        net = self._batch_context()
        rounds = 0
        net._sent_in_round = False
        protocol.on_start_batch(net)
        if net._sent_in_round:
            rounds += 1

        while bool(net.active.any()):
            if rounds >= self._max_rounds:
                raise SimulationLimitError(
                    f"{protocol.name}: exceeded {self._max_rounds} rounds "
                    f"({int(np.count_nonzero(net.active))} nodes still active)"
                )
            net._sent_in_round = False
            protocol.on_round_batch(net)
            rounds += 1

        return RunResult(
            rounds=rounds,
            messages=net._messages,
            words=net._words,
            outputs=protocol.outputs_batch(net),
        )
