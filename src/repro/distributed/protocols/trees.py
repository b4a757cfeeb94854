"""Rooted-forest slot mapping for the convergecast batch tier.

Convergecast runs over a ``node -> parent`` forest laid on top of the
run topology; its batch tier needs derived arrays (root mask, the slot
each node uses to reach its parent, and the owner-side mask of child
channels).  This helper builds them, validating parent/neighbor
consistency with the same ascending-node raise order as the scalar
tier.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ...exceptions import ProtocolError
from ..engine import BatchContext

__all__ = ["rooted_forest_arrays"]


def rooted_forest_arrays(
    net: BatchContext,
    parents: Mapping[int, int],
    *,
    error: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact ``(is_root, parent_slot, child_slot_mask)``.

    ``is_root`` marks the compact nodes that are their own parent;
    ``parent_slot[u]`` is the directed slot from ``u`` to its parent
    (-1 for roots); ``child_slot_mask`` marks, per owner, the slots
    toward that owner's children.  A non-root whose declared parent is
    missing from the topology or not a neighbor raises
    :class:`ProtocolError` with ``error`` formatted as
    ``error.format(parent=..., node=...)`` -- at the smallest such node
    id, matching the scalar tier's ascending ``on_start`` walk.
    """
    index = {int(u): i for i, u in enumerate(net.labels)}
    n = net.num_nodes
    parent = np.empty(n, dtype=np.int64)
    is_root = np.zeros(n, dtype=bool)
    foreign = np.zeros(n, dtype=bool)
    for i, u in enumerate(net.labels.tolist()):
        p = parents.get(u, u)
        if p == u:
            is_root[i] = True
            parent[i] = i
        else:
            j = index.get(p)
            foreign[i] = j is None
            parent[i] = i if j is None else j
    to_parent = (net.indices == parent[net.sources]) & ~is_root[net.sources]
    has_parent_slot = np.bincount(net.sources[to_parent], minlength=n) > 0
    bad = (~is_root & ~has_parent_slot) | foreign
    if bad.any():
        i = int(np.argmax(bad))
        u = int(net.labels[i])
        raise ProtocolError(error.format(parent=parents.get(u, u), node=u))
    parent_slot = np.full(n, -1, dtype=np.int64)
    slots = np.flatnonzero(to_parent)
    parent_slot[net.sources[slots]] = slots
    # Slot (u -> v) is a child channel of u iff v declared u its parent;
    # that is the reverse view of the parent slots.
    child_slot_mask = np.zeros(net.num_slots, dtype=bool)
    child_slot_mask[net.rev[slots]] = True
    return is_root, parent_slot, child_slot_mask
