"""The event engine's heap loop: one event at a time, one draw per send.

:meth:`repro.distributed.event_engine.EventNetwork.run` drains whole
same-timestamp epochs and defers each epoch's drop and latency draws
into one array pass.  :class:`HeapEventNetwork` is the same network run
the plain way: it pops one heap entry at a time, draws each
transmission's fate when it is sent, and hands every node its hooks one
call at a time.  The equivalence suites pin both the ``RunResult`` and
``final_time`` of the two equal.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.distributed.engine import Protocol, RunResult
from repro.distributed.event_engine import (
    _P_CRASH,
    _P_DELIVER,
    _P_RECOVER,
    EventNetwork,
    EventProtocol,
    _SyncDriver,
)
from repro.distributed.messages import payload_words
from repro.exceptions import SimulationLimitError


class HeapEventNetwork(EventNetwork):
    """:class:`EventNetwork` with the one-pop-at-a-time reference loop."""

    def run_sync(self, protocol: Protocol) -> RunResult:
        """The tick adapter on the heap loop, even where the engine
        would take its zero-fault shortcut."""
        return self.run(_SyncDriver(protocol))

    def _transmit(
        self, sender: int, receiver: int, payload: Any, kind: str
    ) -> None:
        """Bill, draw and schedule immediately."""
        if kind == "data":
            self._messages += 1
            self._words += payload_words(payload)
        elif kind == "ctl":
            self._ctl += 1
        else:
            self._retrans += 1
        counter = self._next_seq()
        lu, lv = self._ident(sender), self._ident(receiver)
        if self._plan.dropped(lu, lv, counter, self._now):
            self._dropped += 1
            return
        at = self._now + self._plan.latency_of(lu, lv, counter)
        self._push((at, _P_DELIVER, counter, sender, receiver, payload))

    def run(self, protocol: EventProtocol) -> RunResult:
        _, nodes, contexts = self._init_run(protocol)
        rounds = self._start(protocol, nodes, contexts)

        heap = self._heap
        horizon = self._t0 + self._max_time
        processed = 0
        while heap:
            t = heap[0][0]
            if t > horizon:
                raise SimulationLimitError(
                    f"{self._proto_name}: exceeded max_time={self._max_time} "
                    f"({len(heap)} events still queued)"
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

            stepped = False
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
                        stepped = True
                    self._dispatch(ctx.node, protocol.on_recover(ctx, t))

            # Deliveries, grouped per receiver (arrival order within).
            inboxes: dict[int, dict[int, list]] = {}
            for entry in sorted(delivers, key=lambda e: (e[4], e[2])):
                _, _, _, sender, receiver, payload = entry
                if not contexts[receiver].alive:
                    self._dropped += 1
                    continue
                inboxes.setdefault(receiver, {}).setdefault(
                    sender, []
                ).append(payload)
            for receiver in sorted(inboxes):
                ctx = contexts[receiver]
                if not ctx.halted:
                    stepped = True
                self._dispatch(
                    receiver, protocol.on_deliver(ctx, inboxes[receiver], t)
                )

            for entry in sorted(timers, key=lambda e: (e[3], e[2])):
                ctx = contexts[entry[3]]
                if not ctx.alive or ctx.halted:
                    continue
                stepped = True
                self._dispatch(ctx.node, protocol.on_timer(ctx, t, entry[4]))

            if stepped:
                rounds += 1

        return self._finish(protocol, nodes, contexts, rounds)
