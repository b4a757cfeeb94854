"""Protocol hardening for unreliable networks.

:class:`HardenedProtocol` wraps any synchronous
:class:`~repro.distributed.engine.Protocol` and runs it on the event tier
(:class:`~repro.distributed.event_engine.EventNetwork`) under message
loss, latency jitter and crashes, preserving the inner protocol's
round-by-round semantics wherever the network allows it.  It is an
alpha-synchronizer with reliable links built from acks and timeouts:

* every load-bearing message (round-stamped data, ``safe`` markers,
  ``bye`` farewells, probes) is acked individually and retransmitted
  with exponential backoff until acked -- or until ``_MAX_ATTEMPTS``
  retries go unanswered, at which point the peer is *declared dead*,
  dropped from the live set, and the inner protocol's optional
  ``on_peer_dead(ctx, peer)`` hook runs;
* a node that has sent (and had acked) all its round-``r`` data
  broadcasts ``safe(r)``; a node advances to inner round ``r`` once
  every live neighbor is safe for ``r``, then feeds the buffered
  round-``r`` data to the inner ``on_round`` -- exactly the synchronous
  schedule, per-edge and loss-tolerant;
* a node whose inner protocol halts finishes flushing (data acked, all
  safes out), says ``bye`` to its live neighbors (exempting itself from
  their future safe-waits) and halts once the byes are acked;
* a recurring probe timer detects silent crashes on idle links (pings a
  neighbor whose ``safe`` is overdue when nothing else is in flight)
  and, as a last-resort safety valve, *orphan-finalizes* a node that has
  made no round progress for ``_ORPHAN_AFTER`` time units -- termination
  is unconditional, and runner-level repair sweeps
  (:mod:`repro.distributed.unreliable`) restore output validity;
* a node that crashes and later recovers withdraws gracefully: it stops
  computing, releases its neighbors (late safes for every emitted round,
  then ``bye``) and halts, leaving repair to re-cover its cluster.

Under a zero-fault plan the wrapper is a no-op semantically: the inner
protocol consumes exactly the synchronous tier's inboxes, so its outputs
are pinned equal to a synchronous run's (the test-suite asserts this);
the extra traffic is all billed to ``control_messages``, and
``retransmissions`` stays 0.

The timing constants (first retransmission delay, backoff, retry limit,
probe period, orphan stall) are module constants: every caller runs
with the same values, and the pinned event-tier outputs depend on them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping

from ...exceptions import SimulationLimitError
from ..engine import Protocol
from ..event_engine import (
    Ctl,
    EventNodeContext,
    EventProtocol,
    Multi,
    Resend,
)

__all__ = ["HardenedProtocol", "harden"]

_REL = "_rel"
_EMPTY: frozenset = frozenset()
_PUMP_LIMIT = 100_000
#: First retransmission delay (local-clock units).
_TIMEOUT = 3.0
#: Multiplicative backoff factor per retry.
_BACKOFF = 1.3
#: Unanswered retries before a peer is declared dead.
_MAX_ATTEMPTS = 9
#: Period of the stall-detection probe timer.
_PROBE_EVERY = 8.0
#: Round-progress stall (time units) after which a node gives up and
#: finalizes with its current state.
_ORPHAN_AFTER = 300.0


class _InnerCtx:
    """The context the wrapped synchronous protocol sees: same node,
    neighbors and state bag, but ``halt()`` stops the *inner* protocol
    only -- the wrapper keeps the node responsive until its farewells
    are acknowledged."""

    __slots__ = ("_ctx", "_rel")

    def __init__(self, ctx: EventNodeContext, rel: dict) -> None:
        self._ctx = ctx
        self._rel = rel

    @property
    def node(self) -> int:
        return self._ctx.node

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self._ctx.neighbors

    @property
    def state(self) -> dict:
        return self._ctx.state

    @property
    def halted(self) -> bool:
        return self._rel["inner_halted"]

    def halt(self) -> None:
        self._rel["inner_halted"] = True


class HardenedProtocol(EventProtocol):
    """Run a synchronous protocol reliably on an unreliable network.

    Parameters
    ----------
    inner:
        The synchronous protocol to harden.  If it defines
        ``on_peer_dead(ctx, peer)``, that hook is invoked when a
        neighbor stops acknowledging (crash or partition) so the
        protocol can stop expecting its messages.
    """

    def __init__(self, inner: Protocol) -> None:
        self._inner = inner
        self.name = f"hardened[{inner.name}]"

    # ------------------------------------------------------------------
    # Reliability machinery
    # ------------------------------------------------------------------
    def _fresh_rel(self, neighbors: tuple[int, ...]) -> dict:
        return {
            "live": set(neighbors),
            "byed": set(),
            "dead": set(),
            "buf": {},          # round -> {sender: payload}
            "safe": {},         # round -> {senders that are safe}
            "safe_sent": set(),
            "outstanding": {},  # round -> unacked data count
            "unacked": {},      # mid -> [dest, wire, attempts, kind]
            "seen": set(),      # (sender, mid) dedup
            "mid": 0,
            "r_next": 0,
            "emitted": -1,
            "inner_halted": False,
            "bye_sent": False,
            "orphaned": False,
            "recovered": False,
            "started": False,
            "progress_at": None,
        }

    def _reliable(
        self, ctx, rel: dict, outq, dest: int, wire: tuple, kind: str
    ) -> None:
        mid = wire[2] if kind in ("d", "s") else wire[1]
        rel["unacked"][mid] = [dest, wire, 0, kind]
        outq[dest].append((wire, "data" if kind == "d" else "ctl"))
        ctx.set_timer(_TIMEOUT, ("rt", mid))

    def _next_mid(self, rel: dict) -> int:
        rel["mid"] += 1
        return rel["mid"]

    def _emit_round(
        self, ctx, rel: dict, outq, r: int, outbox: Mapping[int, Any]
    ) -> None:
        count = 0
        for dest, payload in outbox.items():
            if dest not in rel["live"]:
                continue  # dead/departed: the sync tier's halted inbox
            self._reliable(
                ctx, rel, outq, dest,
                ("d", r, self._next_mid(rel), payload), "d",
            )
            count += 1
        rel["emitted"] = r
        if count:
            rel["outstanding"][r] = count
        else:
            self._send_safe(ctx, rel, outq, r)

    def _send_safe(self, ctx, rel: dict, outq, r: int) -> None:
        if r in rel["safe_sent"]:
            return
        rel["safe_sent"].add(r)
        for dest in rel["live"]:
            self._reliable(
                ctx, rel, outq, dest, ("s", r, self._next_mid(rel)), "s"
            )

    def _declare_dead(self, ctx, rel: dict, outq, peer: int) -> None:
        if peer in rel["dead"]:
            return
        rel["dead"].add(peer)
        rel["live"].discard(peer)
        stale = [
            mid for mid, e in rel["unacked"].items() if e[0] == peer
        ]
        for mid in stale:
            entry = rel["unacked"].pop(mid)
            if entry[3] == "d":
                r = entry[1][1]
                rel["outstanding"][r] -= 1
                if rel["outstanding"][r] == 0:
                    del rel["outstanding"][r]
                    self._send_safe(ctx, rel, outq, r)
        hook = getattr(self._inner, "on_peer_dead", None)
        if hook is not None:
            hook(_InnerCtx(ctx, rel), peer)

    def _on_ack(self, ctx, rel: dict, outq, mid: int) -> None:
        entry = rel["unacked"].pop(mid, None)
        if entry is None:
            return
        if entry[3] == "d":
            r = entry[1][1]
            rel["outstanding"][r] -= 1
            if rel["outstanding"][r] == 0:
                del rel["outstanding"][r]
                self._send_safe(ctx, rel, outq, r)

    def _pump(self, ctx, rel: dict, outq, now: float | None) -> None:
        """Advance inner rounds while possible, then progress shutdown."""
        inner_ctx = _InnerCtx(ctx, rel)
        for _ in range(_PUMP_LIMIT):
            if ctx.halted:
                return
            if not rel["inner_halted"]:
                r = rel["r_next"]
                ready = rel["safe"].get(r, _EMPTY)
                if all(v in ready for v in rel["live"]):
                    inbox = rel["buf"].pop(r, {})
                    rel["safe"].pop(r, None)
                    rel["r_next"] = r + 1
                    rel["progress_at"] = now
                    out = self._inner.on_round(inner_ctx, inbox) or {}
                    self._emit_round(ctx, rel, outq, r + 1, out)
                    continue
                return
            # Inner is done: flush, say bye, halt once byes are acked.
            if not rel["bye_sent"]:
                flushed = all(
                    r in rel["safe_sent"]
                    for r in range(rel["emitted"] + 1)
                ) and not any(
                    e[3] in ("d", "s") for e in rel["unacked"].values()
                )
                if flushed:
                    rel["bye_sent"] = True
                    for dest in rel["live"]:
                        self._reliable(
                            ctx, rel, outq, dest,
                            ("b", self._next_mid(rel)), "b",
                        )
            if rel["bye_sent"] and not any(
                e[3] == "b" for e in rel["unacked"].values()
            ):
                ctx.halt()
            return
        raise SimulationLimitError(
            f"{self.name}: node {ctx.node} pumped more than "
            f"{_PUMP_LIMIT} inner rounds in one event"
        )

    @staticmethod
    def _finalize(outq) -> dict[int, Any] | None:
        """Wrap the buffered ``(wire, kind)`` emissions into the outbox
        shape the scalar engine's dispatcher unwraps (plain wires for
        data, :class:`Ctl`/:class:`Resend` markers, :class:`Multi` for
        fan-in).  The epoch hooks skip this round trip entirely
        via :meth:`_flush`; both orders bill and sequence identically."""
        if not outq:
            return None
        out: dict[int, Any] = {}
        for dest, items in outq.items():
            wrapped = [
                wire
                if kind == "data"
                else (Ctl(wire) if kind == "ctl" else Resend(wire))
                for wire, kind in items
            ]
            out[dest] = wrapped[0] if len(wrapped) == 1 else Multi(wrapped)
        return out

    @staticmethod
    def _flush(engine, node: int, outq) -> None:
        """Batch-tier emission: hand the buffered ``(wire, kind)`` pairs
        to the engine directly, destination first-touch order then append
        order -- exactly the order the scalar dispatcher walks the
        finalized outbox, so sequence counters (which feed the fault
        draws) are assigned identically."""
        send = engine.send
        for dest, items in outq.items():
            for wire, kind in items:
                send(node, dest, wire, kind)

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_start(self, ctx: EventNodeContext):
        rel = self._fresh_rel(ctx.neighbors)
        rel["started"] = True
        ctx.state[_REL] = rel
        outq: dict[int, list] = defaultdict(list)
        out = self._inner.on_start(_InnerCtx(ctx, rel)) or {}
        self._emit_round(ctx, rel, outq, 0, out)
        # progress_at stays None here; the first probe stamps the clock
        # (on_start has no ``now``, and t0 may be far from zero).
        self._pump(ctx, rel, outq, None)
        if not ctx.halted:
            ctx.set_timer(_PROBE_EVERY, ("probe",))
        return self._finalize(outq)

    def _deliver_into(self, ctx, rel: dict, inbox, now: float, outq) -> None:
        seen = rel["seen"]
        for sender, items in inbox.items():
            for item in items:
                tag = item[0]
                if tag == "a":
                    self._on_ack(ctx, rel, outq, item[1])
                    continue
                mid = item[2] if tag in ("d", "s") else item[1]
                outq[sender].append((("a", mid), "ctl"))
                if (sender, mid) in seen:
                    continue
                seen.add((sender, mid))
                if tag == "d":
                    if sender not in rel["dead"]:
                        rel["buf"].setdefault(item[1], {})[sender] = item[3]
                elif tag == "s":
                    rel["safe"].setdefault(item[1], set()).add(sender)
                elif tag == "b":
                    rel["byed"].add(sender)
                    rel["live"].discard(sender)
        self._pump(ctx, rel, outq, now)

    def on_deliver(self, ctx, inbox, now):
        rel = ctx.state.get(_REL)
        if rel is None:
            return None
        outq: dict[int, list] = defaultdict(list)
        self._deliver_into(ctx, rel, inbox, now, outq)
        return self._finalize(outq)

    def on_deliver_epoch(self, engine, now, batch):
        for ctx, inbox in batch:
            rel = ctx.state.get(_REL)
            if rel is None:
                continue
            outq: dict[int, list] = defaultdict(list)
            self._deliver_into(ctx, rel, inbox, now, outq)
            if outq:
                self._flush(engine, ctx.node, outq)

    def _timer_into(self, ctx, rel: dict, now: float, key, outq) -> None:
        if key[0] == "rt":
            entry = rel["unacked"].get(key[1])
            if entry is not None:
                dest, wire, attempts, _kind = entry
                attempts += 1
                if attempts > _MAX_ATTEMPTS:
                    self._declare_dead(ctx, rel, outq, dest)
                else:
                    entry[2] = attempts
                    outq[dest].append((wire, "resend"))
                    ctx.set_timer(
                        _TIMEOUT * _BACKOFF ** attempts,
                        ("rt", key[1]),
                    )
        elif key[0] == "probe":
            if rel["progress_at"] is None:
                rel["progress_at"] = now
            if (
                not rel["inner_halted"]
                and now - rel["progress_at"] > _ORPHAN_AFTER
            ):
                # Safety valve: no progress despite retries and probes --
                # finalize with current state; repair sweeps take over.
                rel["inner_halted"] = True
                rel["orphaned"] = True
            elif not rel["inner_halted"]:
                ready = rel["safe"].get(rel["r_next"], _EMPTY)
                inflight = {e[0] for e in rel["unacked"].values()}
                for v in rel["live"]:
                    if v not in ready and v not in inflight:
                        self._reliable(
                            ctx, rel, outq, v,
                            ("p", self._next_mid(rel)), "p",
                        )
            ctx.set_timer(_PROBE_EVERY, ("probe",))
        self._pump(ctx, rel, outq, now)

    def on_timer(self, ctx, now, key):
        rel = ctx.state.get(_REL)
        if rel is None:
            return None
        outq: dict[int, list] = defaultdict(list)
        self._timer_into(ctx, rel, now, key, outq)
        return self._finalize(outq)

    def on_timer_epoch(self, engine, now, fires):
        contexts = engine._contexts
        for entry in fires:
            ctx = contexts[entry[3]]
            if not ctx.alive or ctx.halted:
                continue
            engine._stepped = True
            rel = ctx.state.get(_REL)
            if rel is None:
                continue
            outq: dict[int, list] = defaultdict(list)
            self._timer_into(ctx, rel, now, entry[4], outq)
            if outq:
                self._flush(engine, ctx.node, outq)

    def on_recover(self, ctx, now):
        # Graceful withdrawal: a recovered node does not rejoin the
        # computation (its round state is stale); it releases its
        # neighbors -- late safes for every emitted round, then bye --
        # and lets the runner-level repair re-cover its cluster.
        if ctx.halted:
            return None
        outq: dict[int, list] = defaultdict(list)
        rel = ctx.state.get(_REL)
        if rel is None:  # crashed before on_start: nothing was promised
            rel = self._fresh_rel(ctx.neighbors)
            ctx.state[_REL] = rel
        rel["recovered"] = True
        rel["inner_halted"] = True
        # Abandon every pre-crash retransmission -- the retry timers died
        # with the node, so any surviving entry would wait forever.  The
        # farewell is restarted from scratch: byes sent before the crash
        # may never have left the building.
        rel["unacked"].clear()
        rel["outstanding"].clear()
        rel["bye_sent"] = False
        for r in range(rel["emitted"] + 1):
            self._send_safe(ctx, rel, outq, r)
        self._pump(ctx, rel, outq, now)
        if not ctx.halted:
            ctx.set_timer(_PROBE_EVERY, ("probe",))
        return self._finalize(outq)

    def output(self, ctx) -> Any:
        rel = ctx.state.get(_REL)
        if rel is None or not rel["started"]:
            return None
        return self._inner.output(ctx)


def harden(inner: Protocol) -> HardenedProtocol:
    """Convenience constructor: ``harden(LubyMIS(seed=3))``."""
    return HardenedProtocol(inner)
