"""An epoch of churn events as the writes it makes.

:class:`repro.core.maintenance.MaintenanceSession` stages each epoch
here before it patches its base graph and spanner once: which node each
event writes and where it puts it, each event's dirty-ball sites, and
the one grid join that finds every pair within 1 of a target.  The
session sees the join's outcome as plain edges: the written nodes' base
edge candidates at their final positions (:meth:`EpochWrites.final_pairs`)
and which of their spanner edges each earlier write kept
(:meth:`EpochWrites.holds`).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from ..arrayops import cell_neighbour_pairs
from ..geometry import PointSet
from ..graphs.build import qubg_edge_mask

if TYPE_CHECKING:
    from ..graphs.build import GrayZonePolicy
    from .maintenance import MaintenanceEvent

__all__ = ["EpochWrites"]


class EpochWrites:
    """An epoch's events as the writes they make, from a dry pass over
    the session as the epoch found it (``coords`` and ``alive``): per
    event its node, kind, target (``None`` for a delete) and dirty-ball
    sites (a move has two, where the node was and where it goes).

    One reach-1 :func:`~repro.arrayops.cell_neighbour_pairs` join of the
    targets with the epoch-start alive nodes and with each other
    measures each pair within 1 with the kernel of
    :meth:`GridIndex.pairs_within_arrays` (difference, einsum, ``d2 <=
    1`` before any square root).  Only the alive nodes inside the
    targets' bounding box grown by 2 can pair with a target, and only
    they enter it.  A lone target needs no join: it is measured against
    every node of its box, which costs a one-event epoch a fraction of
    the join's fixed cost.  Pair ``i`` joins node ``x[i]`` -- at its
    epoch-start position if ``a[i] < 0``, else at target ``a[i]`` --
    and the node ``y[i]`` of target ``b[i]``; target ``r`` is that of
    event ``rows[r]``.
    """

    def __init__(
        self,
        coords: np.ndarray,
        alive: np.ndarray,
        events: list[MaintenanceEvent],
        positions: list[tuple[float, ...] | None],
    ) -> None:
        self.coords, self.alive = coords, alive
        self.nodes, self.kinds, self.targets, self.sites = [], [], [], []
        self.capacity = alive.size
        where: dict[int, object] = {}  # each written node's position
        for event, pos in zip(events, positions):
            node = self.capacity if event.node is None else int(event.node)
            self.capacity += event.node is None
            here = where.get(node)
            if here is None and node < alive.size:
                here = coords[node]
            target = here if pos is None else pos
            if event.kind == "delete":
                target = None
            if target is not None:
                where[node] = target
            self.nodes.append(node)
            self.kinds.append(event.kind)
            self.targets.append(target)
            sites = {"delete": [here], "insert": [target]}
            self.sites.append(sites.get(event.kind, [here, target]))
        self.rows = [k for k, t in enumerate(self.targets) if t is not None]
        row_nodes = np.array(
            [self.nodes[k] for k in self.rows], dtype=np.int64
        )
        tgt = np.array(
            [self.targets[k] for k in self.rows], dtype=np.float64
        ).reshape(-1, coords.shape[1])
        inside = alive.copy()
        lows = tgt.min(axis=0, initial=np.inf) - 2.0
        highs = tgt.max(axis=0, initial=-np.inf) + 2.0
        for col, lo, hi in zip(coords.T, lows, highs):
            inside &= (col >= lo) & (col <= hi)
        starts = np.flatnonzero(inside)
        pts = np.concatenate([np.take(coords, starts, axis=0), tgt])
        if tgt.shape[0] == 1:
            a = np.arange(pts.shape[0])
            b = np.zeros(pts.shape[0], dtype=np.int64)
        else:
            empty = np.empty(0, dtype=np.int64)
            pairs = [(empty, empty), *cell_neighbour_pairs(pts, tgt, 1.0)]
            a, b = (np.concatenate(side) for side in zip(*pairs))
        diff = np.take(pts, a, axis=0) - np.take(tgt, b, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        near = np.flatnonzero(d2 <= 1.0)
        self.a, self.b, self.d2 = a[near] - starts.size, b[near], d2[near]
        self.x = np.concatenate([starts, row_nodes])[a[near]]
        self.y = row_nodes[self.b]

    def replay(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and alive flags over the epoch's id space once
        the events before event ``k`` are written."""
        fresh = self.capacity - self.alive.size
        coords = np.concatenate(
            [self.coords, np.zeros((fresh, self.coords.shape[1]))]
        )
        alive = np.concatenate([self.alive, np.zeros(fresh, dtype=bool)])
        for node, kind, target in zip(
            self.nodes[:k], self.kinds[:k], self.targets[:k]
        ):
            alive[node] = kind != "delete"
            if target is not None:
                coords[node] = target
        return coords, alive

    def first_occupied(self) -> tuple[int, list[int]]:
        """The first event whose target an alive node other than its
        own occupies as it comes up, with those nodes (ascending), or
        the event count and ``[]``.  Only the join's pairs at distance
        0 can hold one."""
        found: dict[int, set[int]] = {}
        for i in np.flatnonzero((self.d2 == 0.0) & (self.x != self.y)):
            found.setdefault(self.rows[self.b[i]], set()).add(int(self.x[i]))
        for k in sorted(found):
            coords, alive = self.replay(k)
            gap = coords - np.asarray(self.targets[k])
            occupants = [
                y for y in sorted(found[k])
                if alive[y] and np.einsum("i,i->", gap[y], gap[y]) == 0.0
            ]
            if occupants:
                return k, occupants
        return len(self.nodes), []

    def final_pairs(
        self, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs within 1 at the positions the first ``stop`` events
        leave that have an end those events write, each once: ``u < v``
        ascending by ``(u, v)``, with their distances.  An end joins at
        its final target if an event wrote it, else at its epoch-start
        position; a pair of two final targets comes both ways round,
        and one is kept."""
        nodes = self.nodes[:stop]
        last = {node: k for k, node in enumerate(nodes)}
        final = np.array(
            [k < stop and last[self.nodes[k]] == k for k in self.rows],
            dtype=bool,
        )
        written = np.zeros(self.capacity, dtype=bool)
        written[nodes] = True
        x, y, a = self.x, self.y, self.a
        pick = final[self.b] & np.where(
            a < 0, ~written[x], final[np.maximum(a, 0)] & (x < y)
        )
        u, v = np.minimum(x, y)[pick], np.maximum(x, y)[pick]
        order = np.argsort(u * self.capacity + v)
        return u[order], v[order], np.sqrt(self.d2[pick][order])

    def holds(
        self,
        policy: GrayZonePolicy,
        alpha: float,
        u: np.ndarray,
        v: np.ndarray,
        stop: int,
    ) -> np.ndarray:
        """Which spanner edges ``(u[i], v[i])`` are base edges after each
        event of the first ``stop`` that writes an end, but the last, at
        the positions that event leaves (``policy`` decides a gray pair
        on them); a delete drops one.  An edge whose ends take one write
        between them holds."""
        writes = Counter(self.nodes[:stop])
        out = np.ones(u.size, dtype=bool)
        for i, (p, q) in enumerate(zip(u.tolist(), v.tolist())):
            if writes[p] + writes[q] > 1:
                out[i] = self._held(policy, alpha, p, q, stop)
        return out

    def _held(
        self, policy: GrayZonePolicy, alpha: float, a: int, b: int, stop: int
    ) -> bool:
        """:meth:`holds` for the one edge ``(a, b)``."""
        writes = [k for k in range(stop) if self.nodes[k] in (a, b)]
        for k in writes[:-1]:
            if self.kinds[k] == "delete":
                return False
            coords, _ = self.replay(k + 1)
            diff = coords[[b]] - coords[[a]]
            d2 = np.einsum("ij,ij->i", diff, diff)
            if not d2[0] <= 1.0 or not qubg_edge_mask(
                policy,
                PointSet(coords),
                alpha,
                np.array([a]),
                np.array([b]),
                np.sqrt(d2),
            )[0]:
                return False
        return True
