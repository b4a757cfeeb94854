"""Cole--Vishkin style deterministic coloring (log* showcase).

The paper's ``O(log* n)`` round bound comes from the Kuhn et al. MIS on
growth-bounded graphs, which we substitute with Luby (see DESIGN.md).  To
still exhibit a genuine ``O(log* n)``-round symmetry-breaking protocol in
the engine -- and to test the engine against a known round profile -- this
module implements the classic Cole--Vishkin bit-trick coloring on
*oriented trees/forests* (each non-root node knows its parent), reducing
an initial n-coloring (the ids) to 6 colors in ``O(log* n)`` rounds, plus
the standard shift-down/recolor post-processing to 3 colors, and an MIS
extraction by sweeping color classes.

Batch tier: colors live in one int64 array; a round is a single gather
of parent colors through the slot exchange plus the vectorized CV bit
trick (lowest differing bit via an exact ``frexp`` exponent -- no libm
rounding in the loop), with message counts read off the child-slot mask.
Scalar-vs-batch ``RunResult`` equality is pinned by the engine suite.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ...exceptions import ProtocolError
from ..engine import BatchContext, BatchProtocol, NodeContext
from .trees import rooted_forest_arrays

__all__ = ["TreeSixColoring", "tree_coloring_to_mis"]


def _cv_step(my_color: int, parent_color: int) -> int:
    """One Cole--Vishkin reduction: index of lowest differing bit, plus
    that bit's value."""
    diff = my_color ^ parent_color
    index = (diff & -diff).bit_length() - 1
    bit = my_color >> index & 1
    return index << 1 | bit


def _cv_step_batch(color: np.ndarray, parent_color: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_cv_step` on int64 arrays.

    The lowest set bit of ``color ^ parent_color`` is a power of two, so
    its index is ``frexp`` exponent minus one -- exact for any id below
    2^53 (far beyond any vertex count here).
    """
    diff = color ^ parent_color
    # A proper CV coloring never has color == parent_color; force a set
    # bit anyway so the shift below stays defined on any input.
    low = np.where(diff == 0, 1, diff & -diff)
    _, exp = np.frexp(low.astype(np.float64))
    index = exp.astype(np.int64) - 1
    bit = (color >> index) & 1
    return (index << 1) | bit


class TreeSixColoring(BatchProtocol):
    """Cole--Vishkin 6-coloring of a rooted forest.

    Parameters
    ----------
    parents:
        ``node -> parent`` mapping; roots map to themselves.  Every tree
        edge must be an edge of the run topology.
    rounds:
        Number of CV iterations; ``O(log* n)`` iterations reach a palette
        of size 6, after which the palette provably stops shrinking.
        :func:`cv_rounds_needed` computes a safe count.

    Output per node: its final color (an int in ``0..5``).
    """

    name = "cv-six-coloring"

    def __init__(self, parents: Mapping[int, int], rounds: int) -> None:
        if rounds < 0:
            raise ProtocolError(f"rounds must be >= 0, got {rounds}")
        self._parents = dict(parents)
        self._rounds = rounds

    # ------------------------------------------------------------------
    # Scalar tier (semantic reference)
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> dict[int, Any] | None:
        parent = self._parents.get(ctx.node, ctx.node)
        if parent != ctx.node and parent not in ctx.neighbors:
            raise ProtocolError(
                f"parent {parent} of {ctx.node} is not a topology neighbor"
            )
        ctx.state["color"] = ctx.node
        ctx.state["step"] = 0
        if self._rounds == 0:
            ctx.halt()
            return None
        children = [v for v in ctx.neighbors if self._parents.get(v) == ctx.node]
        ctx.state["children"] = children
        return {c: ctx.state["color"] for c in children}

    def on_round(
        self, ctx: NodeContext, inbox: dict[int, Any]
    ) -> dict[int, Any] | None:
        parent = self._parents.get(ctx.node, ctx.node)
        if parent == ctx.node:
            # Roots recolor against a fixed pseudo-parent color.
            pseudo = 0 if ctx.state["color"] != 0 else 1
            ctx.state["color"] = _cv_step(ctx.state["color"], pseudo)
        else:
            parent_color = inbox.get(parent)
            if parent_color is None:
                raise ProtocolError(
                    f"node {ctx.node} missed parent color in CV round"
                )
            ctx.state["color"] = _cv_step(ctx.state["color"], parent_color)
        ctx.state["step"] += 1
        if ctx.state["step"] >= self._rounds:
            ctx.halt()
            return None
        return {c: ctx.state["color"] for c in ctx.state["children"]}

    def output(self, ctx: NodeContext) -> int:
        """Final color."""
        return ctx.state["color"]

    # ------------------------------------------------------------------
    # Batch tier
    # ------------------------------------------------------------------
    def on_start_batch(self, net: BatchContext) -> None:
        n = net.num_nodes
        _, is_root, parent_slot, child_slot_mask = rooted_forest_arrays(
            net,
            self._parents,
            error="parent {parent} of {node} is not a topology neighbor",
        )
        color = net.labels.astype(np.int64).copy()
        net.state.update(
            color=color,
            is_root=is_root,
            parent_slot=parent_slot,
            child_slot_mask=child_slot_mask,
            step=0,
        )
        if self._rounds == 0:
            net.halt(np.ones(n, dtype=bool))
            return
        # Colors travel as one-word int payloads down every child slot.
        net.post_slots(child_slot_mask, 1)

    def on_round_batch(self, net: BatchContext) -> None:
        st = net.state
        color: np.ndarray = st["color"]
        # Every active node sent its color down its child slots last
        # round, so the parent color is waiting on the parent slot.
        delivered = net.exchange(color[net.sources])
        safe_slot = np.maximum(st["parent_slot"], 0)
        pseudo = np.where(color != 0, 0, 1)
        parent_color = np.where(
            st["is_root"], pseudo, delivered[safe_slot]
        )
        st["color"] = color = _cv_step_batch(color, parent_color)
        st["step"] += 1
        if st["step"] >= self._rounds:
            net.halt(np.ones(net.num_nodes, dtype=bool))
            return
        net.post_slots(st["child_slot_mask"], 1)

    def outputs_batch(self, net: BatchContext) -> dict[int, int]:
        color = net.state["color"]
        return {
            int(u): int(color[i]) for i, u in enumerate(net.labels)
        }


def cv_rounds_needed(n: int) -> int:
    """Iterations for Cole--Vishkin to reach 6 colors from ``n`` ids.

    Palette evolution: ``n -> 2*ceil(log2 n)`` per step until it hits 6;
    this closed-loop simulation simply iterates the recurrence.
    """
    size = max(6, n)
    rounds = 0
    while size > 6:
        size = 2 * max(1, (size - 1).bit_length())
        rounds += 1
    return rounds + 2  # two stabilization sweeps inside the 6-palette


def tree_coloring_to_mis(
    adjacency: Mapping[int, set[int]], colors: Mapping[int, int]
) -> set[int]:
    """Greedy MIS from a proper coloring, sweeping color classes.

    Classic reduction: process colors in increasing order; add every node
    of the current color whose neighbors are not yet chosen.  With O(1)
    colors this is O(1) additional rounds in the LOCAL model; here the
    sweep is evaluated centrally (its message pattern is trivial), the
    interesting rounds being the coloring itself.
    """
    chosen: set[int] = set()
    for color in sorted(set(colors.values())):
        for u in sorted(c for c, col in colors.items() if col == color):
            if not set(adjacency.get(u, set())) & chosen:
                chosen.add(u)
    return chosen


__all__.append("cv_rounds_needed")
