"""Composable fault plans for the event-driven execution tier.

A :class:`FaultPlan` describes everything adversarial about the network a
protocol runs on: i.i.d. and bursty message loss, node crash/recover
schedules, link up/down flaps, per-edge latency jitter and per-node clock
drift.  Every decision is a pure function of ``(seed, identifiers,
counters)`` through the counter-based SplitMix64/Murmur3 hash of
:mod:`repro.arrayops` -- the same family driving Luby priorities and the
gray-zone policies -- so a run of :class:`repro.distributed.event_engine.
EventNetwork` is bit-reproducible from its seed regardless of event
ordering, platform, or how many times draws are evaluated.

Draw streams are separated by mixing a small stream tag into the seed, so
e.g. crash decisions never correlate with drop decisions.  Per-edge draws
key on ``u * 2**21 + v`` (directed); node ids must stay below ``2**21``
(~2M nodes), far above anything the experiments build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arrayops import (
    checked_seed,
    counter_uniform,
    counter_uniforms,
    seed_state,
)
from ..exceptions import ProtocolError

__all__ = ["FaultPlan"]

_NODE_SPAN = 1 << 21

# Stream tags (mixed into the seed, one hash state per decision family).
_T_CRASH, _T_CRASH_AT, _T_DROP, _T_BURST, _T_FLAP, _T_LAT, _T_DRIFT = range(7)


def _edge_key(u: int, v: int) -> int:
    if u >= _NODE_SPAN or v >= _NODE_SPAN:
        raise ProtocolError(
            f"FaultPlan edge draws support node ids < {_NODE_SPAN}, "
            f"got ({u}, {v})"
        )
    return u * _NODE_SPAN + v


def _link_key(u: int, v: int) -> int:
    return _edge_key(u, v) if u <= v else _edge_key(v, u)


def _edge_keys(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_edge_key`, naming the first offending pair."""
    big = (us >= _NODE_SPAN) | (vs >= _NODE_SPAN)
    if big.any():
        i = int(np.argmax(big))
        raise ProtocolError(
            f"FaultPlan edge draws support node ids < {_NODE_SPAN}, "
            f"got ({int(us[i])}, {int(vs[i])})"
        )
    return us * _NODE_SPAN + vs


def _link_keys(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return _edge_keys(np.minimum(us, vs), np.maximum(us, vs))


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic adversary for one :class:`EventNetwork` run.

    Parameters
    ----------
    seed:
        Drives every random decision below (crash draws, drop draws,
        latencies, drift).  Two plans differing only in seed describe the
        same fault *intensity* over independent randomness.
    drop_rate:
        I.i.d. probability that any single transmission is lost.
    burst_rate, burst_drop, burst_window:
        Bursty loss: each undirected link independently enters a *burst*
        during any window of ``burst_window`` time units with probability
        ``burst_rate``; transmissions during a burst are dropped with
        probability ``burst_drop`` (on top of ``drop_rate``).
    crash_rate, crash_window, recover_after:
        Each node independently crashes with probability ``crash_rate``,
        at a time drawn uniformly from ``crash_window``.  Crashed nodes
        receive nothing and execute nothing.  ``recover_after`` (time
        units) schedules a recovery; ``None`` means fail-stop.
    flap_rate, flap_period, flap_down:
        Each undirected link independently *flaps* with probability
        ``flap_rate``: it is down (drops everything) for the first
        ``flap_down`` fraction of every ``flap_period``-length cycle,
        phase-shifted per link.
    latency, jitter:
        Per-transmission delivery delay ``latency + jitter * U`` with
        ``U ~ Uniform[0, 1)`` per (edge, send counter).  ``jitter=0``
        with ``latency=1`` is the synchronous model's unit delay.
    drift:
        Per-node clock-rate skew: node clocks run at ``1 + drift *
        (2U - 1)`` times real time (timer delays divide by the rate).
    """

    seed: int = 0
    drop_rate: float = 0.0
    burst_rate: float = 0.0
    burst_drop: float = 0.9
    burst_window: float = 16.0
    crash_rate: float = 0.0
    crash_window: tuple[float, float] = (0.0, 64.0)
    recover_after: float | None = None
    flap_rate: float = 0.0
    flap_period: float = 24.0
    flap_down: float = 0.35
    latency: float = 1.0
    jitter: float = 0.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", checked_seed(self.seed, "FaultPlan"))
        for name in ("drop_rate", "burst_rate", "burst_drop", "crash_rate",
                     "flap_rate", "flap_down"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ProtocolError(
                    f"FaultPlan.{name} must be a probability, got {value}"
                )
        # Times must be finite: a NaN event time never equals itself, so
        # the event loop would pop nothing and spin past both budgets.
        for name in ("latency", "burst_window", "flap_period",
                     "recover_after"):
            value = getattr(self, name)
            if name == "recover_after" and value is None:
                continue  # fail-stop
            if not (math.isfinite(value) and value > 0.0):
                raise ProtocolError(
                    f"FaultPlan.{name} must be finite and > 0, got {value}"
                )
        if not (math.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ProtocolError(
                f"FaultPlan.jitter must be finite and >= 0, got {self.jitter}"
            )
        if not 0.0 <= self.drift < 1.0:
            raise ProtocolError(
                f"FaultPlan.drift must be in [0, 1), got {self.drift}"
            )
        window = self.crash_window
        if not (
            len(window) == 2
            and math.isfinite(window[0])
            and math.isfinite(window[1])
            and window[0] <= window[1]
        ):
            raise ProtocolError(
                "FaultPlan.crash_window must be a finite ordered pair, got "
                f"{self.crash_window}"
            )
        # Premixed per-stream hash states, kept as plain Python ints: the
        # scalar draw path is pure int arithmetic and one transmission
        # makes up to four draws, so re-deriving the state each call was
        # measurable in fault-run profiles.
        object.__setattr__(
            self,
            "_states",
            tuple(
                int(seed_state(self.seed * 1_000_003 + tag))
                for tag in range(7)
            ),
        )

    # ------------------------------------------------------------------
    @classmethod
    def reliable(cls, *, latency: float = 1.0) -> "FaultPlan":
        """The zero-fault plan (unit latency by default): the event tier
        under this plan is pinned equal to the synchronous scalar tier."""
        return cls(latency=latency)

    @property
    def zero_fault(self) -> bool:
        """True iff no transmission can ever be lost, delayed unevenly,
        or see a crashed endpoint."""
        return (
            self.drop_rate == 0.0
            and self.burst_rate == 0.0
            and self.crash_rate == 0.0
            and self.flap_rate == 0.0
            and self.jitter == 0.0
            and self.drift == 0.0
        )

    def _state(self, tag: int) -> int:
        return self._states[tag]

    # ------------------------------------------------------------------
    # Edge-level decisions
    # ------------------------------------------------------------------
    def latency_of(self, u: int, v: int, counter: int) -> float:
        """Delivery delay of the ``counter``-th transmission ``u -> v``."""
        if self.jitter == 0.0:
            return self.latency
        draw = counter_uniform(self._state(_T_LAT), _edge_key(u, v), counter)
        return self.latency + self.jitter * draw

    def link_down(self, u: int, v: int, at: float) -> bool:
        """Whether the undirected link ``{u, v}`` is flapped down at
        global time ``at``."""
        if self.flap_rate == 0.0:
            return False
        key = _link_key(u, v)
        state = self._state(_T_FLAP)
        if counter_uniform(state, key, 0) >= self.flap_rate:
            return False
        phase = counter_uniform(state, key, 1)
        cycle = (at / self.flap_period + phase) % 1.0
        return cycle < self.flap_down

    def dropped(self, u: int, v: int, counter: int, at: float) -> bool:
        """Whether the ``counter``-th transmission ``u -> v`` (sent at
        global time ``at``) is lost -- by flap, burst, or i.i.d. loss."""
        if self.link_down(u, v, at):
            return True
        key = _edge_key(u, v)
        if self.burst_rate > 0.0:
            window = int(at // self.burst_window)
            state = self._state(_T_BURST)
            bursting = (
                counter_uniform(state, _link_key(u, v), window)
                < self.burst_rate
            )
            if bursting and (
                counter_uniform(state, key, counter) < self.burst_drop
            ):
                return True
        if self.drop_rate > 0.0:
            return (
                counter_uniform(self._state(_T_DROP), key, counter)
                < self.drop_rate
            )
        return False

    # ------------------------------------------------------------------
    # Vectorized draw kernels (batch event engine)
    # ------------------------------------------------------------------
    # Each kernel is bit-for-bit equal to the elementwise scalar draw --
    # the edge-level methods above, and for the node-level kernels the
    # per-node references the test-suite keeps: every draw is a pure
    # function of (seed, identifiers, counter), so composing full masks
    # instead of short-circuiting changes nothing.  The event engine
    # primes each run from the node-level kernels and defers an epoch's
    # drop/latency draws into one hash pass per stream.

    def crash_schedules(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(crash_at, recover_at)`` float64 arrays over ``nodes``;
        ``inf`` marks never-crashes (both) and fail-stop (recover only)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        crash_at = np.full(nodes.shape, np.inf)
        recover_at = np.full(nodes.shape, np.inf)
        if self.crash_rate == 0.0:
            return crash_at, recover_at
        hit = (
            counter_uniforms(self._state(_T_CRASH), nodes, 0)
            < self.crash_rate
        )
        lo, hi = self.crash_window
        at = lo + counter_uniforms(self._state(_T_CRASH_AT), nodes, 0) * (
            hi - lo
        )
        crash_at[hit] = at[hit]
        if self.recover_after is not None:
            recover_at[hit] = at[hit] + self.recover_after
        return crash_at, recover_at

    def clock_rates(self, nodes: np.ndarray) -> np.ndarray:
        """Node-local clock speeds relative to global time over
        ``nodes`` (1.0 = exact)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.drift == 0.0:
            return np.ones(nodes.shape)
        u = counter_uniforms(self._state(_T_DRIFT), nodes, 0)
        return 1.0 + self.drift * (2.0 * u - 1.0)

    def alive_at(self, nodes: np.ndarray, at: float) -> np.ndarray:
        """Boolean mask over ``nodes``: not crashed (or already recovered)
        at global time ``at``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self.crash_rate == 0.0:
            return np.ones(nodes.shape, dtype=bool)
        crash_at, recover_at = self.crash_schedules(nodes)
        dead = (at >= crash_at) & (at < recover_at)
        if self.recover_after is None:
            dead = at >= crash_at
        return ~dead

    def latencies(
        self, us: np.ndarray, vs: np.ndarray, counters: np.ndarray
    ) -> np.ndarray:
        """Delivery delays of the ``counters``-th transmissions
        ``us -> vs``; elementwise :meth:`latency_of`."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if self.jitter == 0.0:
            return np.full(us.shape, self.latency)
        draws = counter_uniforms(
            self._state(_T_LAT), _edge_keys(us, vs), counters
        )
        return self.latency + self.jitter * draws

    def link_down_mask(
        self, us: np.ndarray, vs: np.ndarray, at: float
    ) -> np.ndarray:
        """Flap mask over the undirected links ``{us, vs}`` at time
        ``at``; elementwise :meth:`link_down`."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if self.flap_rate == 0.0:
            return np.zeros(us.shape, dtype=bool)
        keys = _link_keys(us, vs)
        state = self._state(_T_FLAP)
        flapped = counter_uniforms(state, keys, 0) < self.flap_rate
        phase = counter_uniforms(state, keys, 1)
        cycle = (at / self.flap_period + phase) % 1.0
        return flapped & (cycle < self.flap_down)

    def drop_mask(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        counters: np.ndarray,
        at: float,
    ) -> np.ndarray:
        """Loss mask for the ``counters``-th transmissions ``us -> vs``
        all sent at time ``at``; elementwise :meth:`dropped`."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        counters = np.asarray(counters, dtype=np.int64)
        lost = self.link_down_mask(us, vs, at)
        if self.burst_rate > 0.0:
            window = int(at // self.burst_window)
            state = self._state(_T_BURST)
            bursting = (
                counter_uniforms(state, _link_keys(us, vs), window)
                < self.burst_rate
            )
            keys = _edge_keys(us, vs)
            lost |= bursting & (
                counter_uniforms(state, keys, counters) < self.burst_drop
            )
        if self.drop_rate > 0.0:
            lost |= (
                counter_uniforms(
                    self._state(_T_DROP), _edge_keys(us, vs), counters
                )
                < self.drop_rate
            )
        return lost
