"""Discrete-event execution tier: asynchronous message passing under a
:class:`~repro.distributed.faults.FaultPlan`.

This is the third engine beside the synchronous scalar and batch tiers of
:mod:`repro.distributed.engine`.  Messages travel through a priority
queue with per-edge latencies; nodes compute when something *happens* to
them (a delivery, a timer, a crash or recovery) instead of on a global
clock.  All randomness -- latencies, drops, crash times, clock drift --
comes from the plan's counter-based hash, so a run is bit-reproducible
from ``(topology, protocol, plan)`` alone.

The engine drains whole same-timestamp *epochs* at once from a hybrid
calendar queue (a heap for single events, sorted array runs for
transmission batches) and draws an epoch's drop and latency fates in one
vectorized pass when the epoch ends.  Every draw is a pure function of
``(seed, edge, counter)``, so the result is bit-identical to popping one
event at a time and drawing each fate at send time -- the heap loop the
test-suite keeps as the reference and pins this engine against across
the named failure scenarios.

Anchoring contract (pinned by the test-suite): under a zero-fault plan
with uniform unit latency, :meth:`EventNetwork.run_sync` executes any
synchronous :class:`~repro.distributed.engine.Protocol` with a
:class:`RunResult` *equal* to the synchronous engine's -- same
rounds, messages, words, and outputs.  The adapter drives each node with
a unit-period tick timer and hands every tick the messages that arrived
since the previous one; with unit latency and no loss that is exactly
the synchronous schedule.

Event-native protocols subclass :class:`EventProtocol` and react to
deliveries and timers directly (see
:mod:`repro.distributed.protocols.reliable` for the hardened wrapper
that makes synchronous protocols survive loss and crashes here).

Accounting: ``RunResult.messages``/``words`` count first-transmission
*data* sends exactly like the synchronous tier.  Protocol overhead is
kept apart so degradation is measurable: payloads wrapped in
:class:`Ctl` bill to ``control_messages`` (acks, safe markers, probes),
payloads wrapped in :class:`Resend` bill to ``retransmissions``, and
transmissions lost to the fault plan or to a dead receiver bill to
``dropped``.  ``rounds`` counts *active epochs*: distinct timestamps at
which at least one live, unhalted node computed.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Mapping

import numpy as np

from ..exceptions import ProtocolError, SimulationLimitError
from .engine import Protocol, RunResult, SynchronousNetwork
from .faults import _NODE_SPAN, FaultPlan
from .messages import payload_words

__all__ = [
    "Ctl",
    "Resend",
    "Multi",
    "EventNodeContext",
    "EventProtocol",
    "EventNetwork",
]

# Same-timestamp processing order: crashes happen first (a node that dies
# at t does not see t's mail), recoveries next, then deliveries, then
# timers (a tick at t reads messages that arrived at exactly t).
_P_CRASH, _P_RECOVER, _P_DELIVER, _P_TIMER = range(4)

# Epoch-queue thresholds: below _SMALL_DRAW buffered transmissions the
# scalar draw path beats the array overhead; survivor batches under
# _RUN_MIN go to the heap instead of opening an array run; _MAX_RUNS
# bounds the wheel's sorted-run count before compaction.
_SMALL_DRAW = 12
_RUN_MIN = 48
_MAX_RUNS = 32


class Ctl:
    """Outbox wrapper: bill this payload as control overhead."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload


class Resend:
    """Outbox wrapper: bill this payload as a retransmission."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload


class Multi:
    """Outbox wrapper bundling several payloads to one neighbor in a
    single outbox slot (the asynchronous tier has no one-message-per-
    neighbor-per-round restriction)."""

    __slots__ = ("items",)

    def __init__(self, items: Any) -> None:
        self.items = tuple(items)


class EventNodeContext:
    """Per-node context of the event tier.

    Attribute-compatible with :class:`~repro.distributed.engine.
    NodeContext` (``node``, ``neighbors``, ``state``, ``halted``,
    ``halt()``), so synchronous protocol code runs on it unchanged, plus:

    ``alive``
        Cleared while the node is crashed (engine-managed).
    ``set_timer(delay, key)``
        Schedule an :meth:`EventProtocol.on_timer` callback ``delay``
        *local-clock* units from now (the plan's drift scales it).
    """

    __slots__ = ("node", "neighbors", "state", "halted", "alive", "_engine")

    def __init__(
        self, node: int, neighbors: tuple[int, ...], engine: "EventNetwork"
    ) -> None:
        self.node = node
        self.neighbors = neighbors
        self.state: dict[str, Any] = {}
        self.halted = False
        self.alive = True
        self._engine = engine

    def halt(self) -> None:
        """Mark this node as finished."""
        self.halted = True

    def set_timer(self, delay: float, key: Any = None) -> None:
        """Request an ``on_timer(ctx, now, key)`` wake-up."""
        self._engine._set_timer(self.node, delay, key)


class EventProtocol:
    """Base class for event-driven protocols.

    Every per-node hook may return an outbox ``{neighbor: payload}`` (or
    ``None`` for silence); wrap payloads in :class:`Ctl`/:class:`Resend`
    for overhead accounting and in :class:`Multi` to send several
    messages to one neighbor at once.

    The engine groups every same-timestamp epoch into receiver-sorted
    delivery segments and ``(node, seq)``-sorted timer fires, and hands
    each group to one epoch hook (:meth:`on_deliver_epoch`,
    :meth:`on_timer_epoch`).  The defaults step the per-node hooks in
    that canonical order.  A protocol overrides them to step a whole
    epoch at once, cutting the per-node wrapper traffic (outbox dicts,
    :class:`Ctl`/:class:`Multi` allocation, dispatch unwrapping) out of
    the hot loop; an override MUST preserve the per-node contract
    exactly -- same per-node processing order (ascending receiver for
    deliveries, ``(node, seq)`` for timers, alive/halted checked at call
    time), and same transmission order (per node: all sends grouped by
    destination in first-touch order) -- because transmission sequence
    numbers feed the fault plan's drop/latency draws and any reordering
    changes the run.  Overrides emit through ``engine.send`` and must set
    ``engine._stepped`` for every timer actually fired.
    """

    name = "event-protocol"

    def on_start(self, ctx: EventNodeContext) -> Mapping[int, Any] | None:
        """Time ``t0``: initialize state, optionally speak."""
        return None

    def on_deliver(
        self,
        ctx: EventNodeContext,
        inbox: dict[int, list],
        now: float,
    ) -> Mapping[int, Any] | None:
        """Messages arrived: ``inbox`` maps sender -> payloads, in
        arrival order, batched per timestamp.  Called even on halted
        nodes (so e.g. acking stays possible); never on crashed ones."""
        return None

    def on_timer(
        self, ctx: EventNodeContext, now: float, key: Any
    ) -> Mapping[int, Any] | None:
        """A timer set via :meth:`EventNodeContext.set_timer` fired.
        Not called on halted or crashed nodes."""
        return None

    def on_crash(self, ctx: EventNodeContext, now: float) -> None:
        """The node just crashed (state is frozen; nothing may be sent)."""

    def on_recover(
        self, ctx: EventNodeContext, now: float
    ) -> Mapping[int, Any] | None:
        """The node came back up.  Timers scheduled before the crash were
        lost; re-arm anything needed here."""
        return None

    def output(self, ctx: EventNodeContext) -> Any:
        """Final per-node result (crashed nodes report frozen state)."""
        return None

    def on_deliver_epoch(
        self,
        engine: "EventNetwork",
        now: float,
        batch: list[tuple[EventNodeContext, dict[int, list]]],
    ) -> None:
        """One epoch of deliveries: ``batch`` is ``(ctx, inbox)`` per
        receiving node, ascending by receiver id."""
        for ctx, inbox in batch:
            engine._dispatch(ctx.node, self.on_deliver(ctx, inbox, now))

    def on_timer_epoch(
        self, engine: "EventNetwork", now: float, fires: list[tuple]
    ) -> None:
        """One epoch of timer fires, ``(node, seq)``-sorted heap entries.
        Implementations skip dead/halted nodes at call time (an earlier
        fire in the same epoch may have halted the node)."""
        contexts = engine._contexts
        for entry in fires:
            ctx = contexts[entry[3]]
            if not ctx.alive or ctx.halted:
                continue
            engine._stepped = True
            engine._dispatch(ctx.node, self.on_timer(ctx, now, entry[4]))


class _SyncDriver(EventProtocol):
    """Drives a synchronous :class:`Protocol` on the event tier.

    Each live node ticks once per local-clock unit; a tick hands the
    wrapped protocol's ``on_round`` everything that arrived since the
    previous tick (latest message per sender, as in the synchronous
    one-slot mailbox).  Under a zero-fault unit-latency plan this
    reproduces the synchronous engine's ``RunResult`` exactly; under
    faults the wrapped protocol sees loss and silence exactly as an
    unhardened protocol would.
    """

    def __init__(self, inner: Protocol) -> None:
        self._inner = inner
        self.name = f"event[{inner.name}]"

    def on_start(self, ctx: EventNodeContext):
        ctx.state["_stash"] = {}
        out = self._inner.on_start(ctx)
        if not ctx.halted:
            ctx.set_timer(1.0, "tick")
        return out

    def on_deliver(self, ctx, inbox, now):
        stash = ctx.state["_stash"]
        for sender, items in inbox.items():
            stash[sender] = items[-1]
        return None

    def on_timer(self, ctx, now, key):
        inbox = ctx.state["_stash"]
        ctx.state["_stash"] = {}
        out = self._inner.on_round(ctx, inbox)
        if not ctx.halted:
            ctx.set_timer(1.0, "tick")
        return out

    def output(self, ctx):
        return self._inner.output(ctx)


class EventNetwork:
    """Discrete-event message-passing engine.

    Parameters
    ----------
    topology:
        Any form :class:`~repro.distributed.engine.SynchronousNetwork`
        accepts (Graph, adjacency mapping, or ``(indptr, indices)`` CSR
        pair); validation is shared with the synchronous tiers.
    plan:
        The :class:`FaultPlan` adversary; default is the zero-fault
        unit-latency plan.
    fault_labels:
        Optional ``node -> identity`` mapping used for the plan's draws.
        When a run executes on a relabeled subgraph (e.g. the alive
        subset of a larger network), passing original identities keeps
        crash schedules and per-edge draws attached to the *same*
        physical nodes across runs.
    t0:
        Starting global time.  Crash times are absolute, so consecutive
        runs advancing ``t0`` share one crash timeline (a node whose
        crash time has already passed starts the run dead).
    max_time, max_events:
        Hard budgets; exceeding either raises
        :class:`SimulationLimitError`.
    """

    def __init__(
        self,
        topology,
        *,
        plan: FaultPlan | None = None,
        fault_labels: Mapping[int, int] | None = None,
        t0: float = 0.0,
        max_time: float = 1_000_000.0,
        max_events: int = 5_000_000,
    ) -> None:
        # A NaN time never equals itself, so the epoch loop would pop
        # nothing and spin past both budgets.
        if not math.isfinite(t0):
            raise ProtocolError(f"EventNetwork.t0 must be finite, got {t0}")
        if not (math.isfinite(max_time) and max_time > 0):
            raise ProtocolError(
                f"EventNetwork.max_time must be finite and > 0, got {max_time}"
            )
        if max_events < 1:
            raise ProtocolError(
                f"EventNetwork.max_events must be >= 1, got {max_events}"
            )
        self._sync = SynchronousNetwork(topology)
        self._plan = plan if plan is not None else FaultPlan()
        if fault_labels is not None:
            # Validate eagerly, naming the offending node: a bad label
            # would otherwise surface as a bare KeyError (or a silently
            # aliased draw stream) deep inside a run.
            seen: dict[int, int] = {}
            for u in self._sync.nodes:
                if u not in fault_labels:
                    raise ProtocolError(
                        f"fault_labels missing node {u}: every "
                        "participating node needs an identity for the "
                        "fault draws"
                    )
                raw = fault_labels[u]
                if isinstance(raw, bool) or not isinstance(
                    raw, (int, np.integer)
                ):
                    raise ProtocolError(
                        f"fault_labels[{u}] must be an int identity, "
                        f"got {raw!r}"
                    )
                label = int(raw)
                if not 0 <= label < _NODE_SPAN:
                    raise ProtocolError(
                        f"fault_labels[{u}] = {label} out of range "
                        f"[0, {_NODE_SPAN})"
                    )
                other = seen.get(label)
                if other is not None:
                    raise ProtocolError(
                        f"fault_labels maps nodes {other} and {u} to "
                        f"the same identity {label}; identities must be "
                        "distinct for per-edge draws"
                    )
                seen[label] = u
        self._fault_labels = fault_labels
        self._t0 = float(t0)
        self._max_time = float(max_time)
        self._max_events = int(max_events)
        self.final_time = self._t0

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """Participating node ids, sorted."""
        return self._sync.nodes

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """``node -> neighbor tuple`` of the validated topology."""
        return dict(self._sync._scalar_adj())

    def _ident(self, u: int) -> int:
        if self._fault_labels is None:
            return u
        return self._fault_labels[u]

    # ------------------------------------------------------------------
    # Scheduling primitives (used by dispatch and contexts)
    # ------------------------------------------------------------------
    def _push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _set_timer(self, node: int, delay: float, key: Any) -> None:
        if not (math.isfinite(delay) and delay > 0.0):
            raise ProtocolError(
                f"timer delay must be finite and > 0, got {delay} at "
                f"node {node}"
            )
        fire = self._now + delay / self._rates[node]
        self._push((fire, _P_TIMER, self._next_seq(), node, key))

    def _transmit(
        self, sender: int, receiver: int, payload: Any, kind: str
    ) -> None:
        """Bill and allocate the sequence counter now (counters must
        interleave with timer/crash seqs in event order -- they feed the
        fault draws), but defer the drop/latency draws to
        :meth:`_flush_tx` at epoch end.  Safe because every transmission
        of an epoch shares ``self._now`` and draws are pure functions of
        (seed, edge, counter)."""
        if kind == "data":
            self._messages += 1
            self._words += payload_words(payload)
        elif kind == "ctl":
            self._ctl += 1
        else:
            self._retrans += 1
        self._txq.append(
            (
                self._next_seq(),
                sender,
                receiver,
                self._ident(sender),
                self._ident(receiver),
                payload,
            )
        )

    def _flush_tx(self) -> None:
        """Draw fates for the epoch's buffered transmissions and schedule
        the survivors -- one vectorized hash pass per draw stream for
        large epochs, the scalar draw path (bit-identical, pinned) below
        ``_SMALL_DRAW``.  Survivor batches of ``_RUN_MIN``+ become a
        sorted array run in the wheel; smaller ones go to the heap."""
        txq = self._txq
        if not txq:
            return
        self._txq = []
        plan = self._plan
        now = self._now
        if len(txq) < _SMALL_DRAW:
            heap = self._heap
            for counter, sender, receiver, lu, lv, payload in txq:
                if plan.dropped(lu, lv, counter, now):
                    self._dropped += 1
                    continue
                at = now + plan.latency_of(lu, lv, counter)
                heapq.heappush(
                    heap, (at, _P_DELIVER, counter, sender, receiver, payload)
                )
            return
        counters, senders, receivers, lus, lvs, payloads = zip(*txq)
        cnt = np.asarray(counters, dtype=np.int64)
        lua = np.asarray(lus, dtype=np.int64)
        lva = np.asarray(lvs, dtype=np.int64)
        drop = plan.drop_mask(lua, lva, cnt, now)
        if drop.any():
            self._dropped += int(np.count_nonzero(drop))
            keep = np.flatnonzero(~drop)
            if keep.size == 0:
                return
            cnt = cnt[keep]
            lua = lua[keep]
            lva = lva[keep]
            keep_list = keep.tolist()
            senders = [senders[i] for i in keep_list]
            receivers = [receivers[i] for i in keep_list]
            payloads = [payloads[i] for i in keep_list]
        times = now + plan.latencies(lua, lva, cnt)
        if cnt.size < _RUN_MIN:
            times_list = times.tolist()
            cnt_list = cnt.tolist()
            for i in range(cnt.size):
                self._push(
                    (times_list[i], _P_DELIVER, cnt_list[i], senders[i],
                     receivers[i], payloads[i])
                )
            return
        snd = np.asarray(senders, dtype=np.int64)
        rcv = np.asarray(receivers, dtype=np.int64)
        if plan.jitter != 0.0:
            # Runs must be (time, seq)-sorted; without jitter the times
            # are all equal and the counters already ascend.
            order = np.lexsort((cnt, times))
            times = times.take(order)
            cnt = cnt.take(order)
            snd = snd.take(order)
            rcv = rcv.take(order)
            payloads = [payloads[i] for i in order.tolist()]
        self._runs.append(
            {
                "times": times,
                "seqs": cnt,
                "senders": snd,
                "receivers": rcv,
                "payloads": payloads,
                "pos": 0,
                "head": float(times[0]),
            }
        )
        if len(self._runs) > _MAX_RUNS:
            self._merge_runs()

    def _merge_runs(self) -> None:
        """Compact the wheel's sorted runs into one (rarely needed: runs
        drain fully within a latency window in practice)."""
        runs = self._runs
        times = np.concatenate([r["times"][r["pos"]:] for r in runs])
        seqs = np.concatenate([r["seqs"][r["pos"]:] for r in runs])
        snd = np.concatenate([r["senders"][r["pos"]:] for r in runs])
        rcv = np.concatenate([r["receivers"][r["pos"]:] for r in runs])
        payloads: list = []
        for r in runs:
            payloads.extend(r["payloads"][r["pos"]:])
        order = np.lexsort((seqs, times))
        runs[:] = [
            {
                "times": times.take(order),
                "seqs": seqs.take(order),
                "senders": snd.take(order),
                "receivers": rcv.take(order),
                "payloads": [payloads[i] for i in order.tolist()],
                "pos": 0,
                "head": float(times[order[0]]),
            }
        ]

    def _dispatch(
        self, sender: int, outbox: Mapping[int, Any] | None
    ) -> None:
        if not outbox:
            return
        allowed = self._allowed[sender]
        for receiver, value in outbox.items():
            if receiver not in allowed:
                raise ProtocolError(
                    f"{self._proto_name}: node {sender} attempted to "
                    f"message non-neighbor {receiver}"
                )
            items = value.items if isinstance(value, Multi) else (value,)
            transmit = self._transmit
            for item in items:
                if isinstance(item, Resend):
                    transmit(sender, receiver, item.payload, "resend")
                elif isinstance(item, Ctl):
                    transmit(sender, receiver, item.payload, "ctl")
                else:
                    transmit(sender, receiver, item, "data")

    def send(
        self, sender: int, receiver: int, payload: Any, kind: str = "data"
    ) -> None:
        """Direct transmission entry point for overridden epoch hooks
        (which bypass outbox dicts); same validation and billing as
        dispatching an outbox."""
        if receiver not in self._allowed[sender]:
            raise ProtocolError(
                f"{self._proto_name}: node {sender} attempted to "
                f"message non-neighbor {receiver}"
            )
        self._transmit(sender, receiver, payload, kind)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_sync(self, protocol: Protocol) -> RunResult:
        """Run a synchronous :class:`Protocol` through the tick adapter
        (see :class:`_SyncDriver`).

        Under a zero-fault unit-latency plan the schedule is exactly the
        synchronous one, so a batch-capable protocol runs straight on
        its batch hooks (same RunResult -- that equality is pinned --
        plus the event clock bookkeeping); everything else runs the
        tick adapter through :meth:`run`.
        """
        if (
            self._plan.zero_fault
            and self._plan.latency == 1.0
            and getattr(protocol, "supports_batch", False)
        ):
            return self._run_sync_ticks(protocol)
        return self.run(_SyncDriver(protocol))

    # ------------------------------------------------------------------
    def _init_run(
        self, protocol: EventProtocol
    ) -> tuple[dict[int, tuple[int, ...]], list[int], dict]:
        """Reset run state and prime the crash timeline (absolute times;
        the past already happened)."""
        adj = self._sync._scalar_adj()
        nodes = self.nodes
        self._proto_name = getattr(protocol, "name", "event-protocol")
        self._allowed = {u: frozenset(adj[u]) for u in nodes}
        self._heap: list[tuple] = []
        self._runs: list[dict] = []
        self._seq = 0
        self._now = self._t0
        self._messages = self._words = 0
        self._retrans = self._ctl = self._dropped = 0
        self._stepped = False
        self._txq: list[tuple] = []
        idents = np.fromiter(map(self._ident, nodes), np.int64, len(nodes))
        self._rates = dict(
            zip(nodes, self._plan.clock_rates(idents).tolist())
        )
        contexts = {u: EventNodeContext(u, adj[u], self) for u in nodes}
        self._contexts = contexts

        # Walk the crashing nodes in node order: each sequence number
        # taken here shifts the counters of the run's transmissions,
        # which feed their fault draws.
        crash_at, recover_at = self._plan.crash_schedules(idents)
        hit = np.flatnonzero(crash_at < np.inf)
        for i, at, back in zip(
            hit.tolist(), crash_at[hit].tolist(), recover_at[hit].tolist()
        ):
            u = nodes[i]
            if at <= self._t0:
                if back <= self._t0:
                    continue  # crashed and recovered before this run
                contexts[u].alive = False
            else:
                self._push((at, _P_CRASH, self._next_seq(), u))
            if back < np.inf:
                self._push((back, _P_RECOVER, self._next_seq(), u))
        return adj, nodes, contexts

    def _start(self, protocol: EventProtocol, nodes, contexts) -> int:
        sent_data_at_start = False
        for u in nodes:
            ctx = contexts[u]
            if not ctx.alive:
                continue
            before = self._messages
            self._dispatch(u, protocol.on_start(ctx))
            sent_data_at_start |= self._messages > before
        return 1 if sent_data_at_start else 0

    def _finish(
        self, protocol: EventProtocol, nodes, contexts, rounds: int
    ) -> RunResult:
        self.final_time = self._now
        crashed = tuple(u for u in nodes if not contexts[u].alive)
        return RunResult(
            rounds=rounds,
            messages=self._messages,
            words=self._words,
            outputs={u: protocol.output(contexts[u]) for u in nodes},
            retransmissions=self._retrans,
            control_messages=self._ctl,
            dropped=self._dropped,
            crashed=crashed,
        )

    # ------------------------------------------------------------------
    def run(self, protocol: EventProtocol) -> RunResult:
        """Run ``protocol`` until the event queue drains.

        Drains whole same-timestamp epochs from the hybrid wheel (heap
        for singleton pushes, sorted array runs for transmission
        batches), defers the epoch's fault draws into one vectorized
        pass, and hands each epoch's deliveries and timer fires to the
        protocol's epoch hooks in canonical order.
        """
        _, nodes, contexts = self._init_run(protocol)
        rounds = self._start(protocol, nodes, contexts)
        self._flush_tx()

        heap = self._heap
        runs = self._runs
        horizon = self._t0 + self._max_time
        inf = float("inf")
        processed = 0
        while heap or runs:
            t = heap[0][0] if heap else inf
            for run in runs:
                head = run["head"]
                if head < t:
                    t = head
            if t > horizon:
                pending = len(heap) + sum(
                    r["times"].size - r["pos"] for r in runs
                )
                raise SimulationLimitError(
                    f"{self._proto_name}: exceeded max_time={self._max_time} "
                    f"({pending} events still queued)"
                )
            self._now = t
            crashes: list[tuple] = []
            recovers: list[tuple] = []
            delivers: list[tuple] = []
            timers: list[tuple] = []
            while heap and heap[0][0] == t:
                entry = heapq.heappop(heap)
                processed += 1
                if processed > self._max_events:
                    raise SimulationLimitError(
                        f"{self._proto_name}: exceeded "
                        f"max_events={self._max_events} at t={t:.3f}"
                    )
                prio = entry[1]
                if prio == _P_CRASH:
                    crashes.append(entry)
                elif prio == _P_RECOVER:
                    recovers.append(entry)
                elif prio == _P_DELIVER:
                    delivers.append(entry)
                else:
                    timers.append(entry)
            run_parts: list[tuple[dict, int, int]] = []
            if runs:
                for run in runs:
                    if run["head"] != t:
                        continue
                    pos = run["pos"]
                    times = run["times"]
                    end = int(np.searchsorted(times, t, side="right"))
                    run_parts.append((run, pos, end))
                    processed += end - pos
                    if end < times.size:
                        run["pos"] = end
                        run["head"] = float(times[end])
                    else:
                        run["pos"] = end
                        run["head"] = inf
                if run_parts:
                    if processed > self._max_events:
                        raise SimulationLimitError(
                            f"{self._proto_name}: exceeded "
                            f"max_events={self._max_events} at t={t:.3f}"
                        )
                    runs[:] = [r for r in runs if r["head"] is not inf]

            self._stepped = False
            for entry in crashes:
                ctx = contexts[entry[3]]
                if ctx.alive:
                    ctx.alive = False
                    protocol.on_crash(ctx, t)
            for entry in recovers:
                ctx = contexts[entry[3]]
                if not ctx.alive:
                    ctx.alive = True
                    if not ctx.halted:
                        self._stepped = True
                    self._dispatch(ctx.node, protocol.on_recover(ctx, t))

            if delivers or run_parts:
                if run_parts:
                    batch = self._gather_deliveries(
                        delivers, run_parts, contexts
                    )
                else:
                    # Heap-only epoch (typical under jitter: near-singleton
                    # epochs); build inboxes inline, in the same order.
                    batch = []
                    last_ctx = None
                    inbox: dict[int, list] | None = None
                    if len(delivers) > 1:
                        delivers.sort(key=lambda e: (e[4], e[2]))
                    for entry in delivers:
                        ctx = contexts[entry[4]]
                        if not ctx.alive:
                            self._dropped += 1
                            continue
                        if ctx is not last_ctx:
                            inbox = {}
                            batch.append((ctx, inbox))
                            last_ctx = ctx
                        sender = entry[3]
                        bucket = inbox.get(sender)
                        if bucket is None:
                            inbox[sender] = [entry[5]]
                        else:
                            bucket.append(entry[5])
                for ctx, _ in batch:
                    if not ctx.halted:
                        self._stepped = True
                if batch:
                    protocol.on_deliver_epoch(self, t, batch)

            if timers:
                fires = sorted(timers, key=lambda e: (e[3], e[2]))
                protocol.on_timer_epoch(self, t, fires)

            if self._txq:
                self._flush_tx()
            if self._stepped:
                rounds += 1

        return self._finish(protocol, nodes, contexts, rounds)

    def _gather_deliveries(
        self,
        delivers: list[tuple],
        run_parts: list[tuple[dict, int, int]],
        contexts: dict,
    ) -> list[tuple[EventNodeContext, dict[int, list]]]:
        """Assemble the epoch's deliveries into per-receiver inboxes, in
        canonical order: entries (receiver, seq)-sorted, dead receivers
        billed as drops, senders grouped by first arrival.  Array runs
        are merged with heap entries through one lexsort instead of
        per-message dict appends."""
        rcv_parts: list[np.ndarray] = []
        seq_parts: list[np.ndarray] = []
        snd_parts: list[np.ndarray] = []
        payloads: list = []
        if delivers:
            rcv_parts.append(
                np.asarray([e[4] for e in delivers], dtype=np.int64)
            )
            seq_parts.append(
                np.asarray([e[2] for e in delivers], dtype=np.int64)
            )
            snd_parts.append(
                np.asarray([e[3] for e in delivers], dtype=np.int64)
            )
            payloads.extend(e[5] for e in delivers)
        for run, lo, hi in run_parts:
            rcv_parts.append(run["receivers"][lo:hi])
            seq_parts.append(run["seqs"][lo:hi])
            snd_parts.append(run["senders"][lo:hi])
            payloads.extend(run["payloads"][lo:hi])
        rcv = np.concatenate(rcv_parts)
        seq = np.concatenate(seq_parts)
        snd = np.concatenate(snd_parts)
        order = np.lexsort((seq, rcv))
        rcv_list = rcv.take(order).tolist()
        snd_list = snd.take(order).tolist()
        entries = zip(
            snd_list, rcv_list, (payloads[i] for i in order.tolist())
        )

        batch: list[tuple[EventNodeContext, dict[int, list]]] = []
        last_ctx: EventNodeContext | None = None
        inbox: dict[int, list] | None = None
        for sender, receiver, payload in entries:
            ctx = contexts[receiver]
            if not ctx.alive:
                self._dropped += 1
                continue
            if ctx is not last_ctx:
                inbox = {}
                batch.append((ctx, inbox))
                last_ctx = ctx
            bucket = inbox.get(sender)
            if bucket is None:
                inbox[sender] = [payload]
            else:
                bucket.append(payload)
        return batch

    # ------------------------------------------------------------------
    def _run_sync_ticks(self, protocol: Protocol) -> RunResult:
        """Zero-fault unit-latency fast path for :meth:`run_sync`: the
        tick schedule *is* the synchronous schedule, so run the inner
        protocol's batch hooks directly (the sync batch tier's loop) and
        keep only the event-clock bookkeeping.  ``final_time`` matches
        the tick adapter exactly: the last tick epoch, plus the trailing
        delivery epoch iff the final round sent anything."""
        net = self._sync._batch_context()
        rounds = 0
        ticks = 0
        net._sent_in_round = False
        protocol.on_start_batch(net)
        last_sent = net._sent_in_round
        if last_sent:
            rounds += 1
        max_rounds = self._sync._max_rounds
        while bool(net.active.any()):
            if rounds >= max_rounds:
                raise SimulationLimitError(
                    f"{protocol.name}: exceeded {max_rounds} rounds "
                    f"({int(np.count_nonzero(net.active))} nodes still "
                    "active)"
                )
            net._sent_in_round = False
            protocol.on_round_batch(net)
            rounds += 1
            ticks += 1
            last_sent = net._sent_in_round
        self._now = self._t0 + ticks + (1.0 if last_sent else 0.0)
        self.final_time = self._now
        return RunResult(
            rounds=rounds,
            messages=net._messages,
            words=net._words,
            outputs=protocol.outputs_batch(net),
        )

