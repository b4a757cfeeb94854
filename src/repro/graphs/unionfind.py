"""Disjoint-set union (union-find) with path compression and union by rank.

Used by Kruskal's MST (:mod:`repro.graphs.mst`) and by connected-component
bookkeeping in phase 0 of the relaxed greedy algorithm.
"""

from __future__ import annotations

from ..exceptions import GraphError

__all__ = ["UnionFind"]


class UnionFind:
    """Classic DSU over the integers ``0 .. n-1``.

    Amortized near-constant ``find``/``union`` via path compression plus
    union by rank.
    """

    __slots__ = ("_parent", "_rank")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"n must be >= 0, got {n}")
        self._parent = list(range(n))
        self._rank = [0] * n

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        """Representative of the set containing ``x``."""
        if not 0 <= x < len(self._parent):
            raise GraphError(f"element {x} out of range")
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``.

        Returns
        -------
        bool
            ``True`` if a merge happened, ``False`` if they already shared
            a set.
        """
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        return True

    def groups(self) -> dict[int, list[int]]:
        """Mapping from representative to sorted members of its set."""
        out: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            out.setdefault(self.find(x), []).append(x)
        return out
