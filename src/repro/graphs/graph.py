"""A compact undirected weighted graph on integer vertices.

Every algorithm in this library operates on :class:`Graph`: vertices are
the integers ``0 .. n-1`` (matching :class:`repro.geometry.PointSet`
labels) and edges carry positive float weights.  The representation is a
dict-of-dicts adjacency (neighbor iteration, O(1) edge queries, cheap
dynamic insertion) *paired with an append-log edge store*: every edge
occupies one row of three aligned growable numpy arrays, so the array
snapshots (:meth:`edges_arrays`, :meth:`csr_snapshot`) refresh in
O(changed) after a mutation burst instead of O(m).

The CSR view is **two-layered** (:class:`CsrSnapshot`): a frozen *base*
matrix covering a prefix of the append log plus a small sorted directed
*tail* holding the rows appended since the base was built.  Refreshing
after a k-edge append burst costs O(k log k) tail sorting -- no O(m)
merge, no coordinate re-sort of the existing structure -- and the sparse
path kernels (:func:`repro.graphs.paths.multi_source_ball_lists` and
its consumers) relax tail edges natively, so the construction hot loop
never materializes a full matrix between appends.  Dense kernels that
need one complete scipy matrix call :meth:`CsrSnapshot.matrix` (what
:meth:`Graph.csr` returns), which merges base + tail once and caches
the result.  The tail folds into a fresh base *adaptively*: a work
accumulator charges every tail lookup and layer merge, and compaction
runs once the accumulated scan work would have paid for one rebuild --
so append-only bursts stay O(changed) at any tail size while scan-heavy
workloads fold exactly when folding is cheaper.  Deletions and weight
overwrites are tombstoned: the stale base entries are marked dead and
swept out lazily by one C-level masked take at the next snapshot
refresh (never a per-edge Python loop, never a full coordinate
re-sort), with the sweep work charged to the same fold accumulator so
sustained deletion churn escalates to a full rebuild exactly when that
becomes cheaper.  Snapshots handed out stay frozen: the
log copies itself before any in-place perturbation (copy-on-write), so
callers may hold arrays across later mutations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..arrayops import run_expand
from ..exceptions import GraphError

__all__ = ["Graph", "CsrSnapshot"]

#: Initial capacity of the append-log buffers.
_LOG_MIN_CAPACITY = 16

#: Adaptive compaction: the tail folds into a fresh base once the
#: cumulative tail-scan work since the last fold (charged by
#: :meth:`CsrSnapshot.tail_neighbors` and by :meth:`CsrSnapshot.matrix`
#: merges) reaches this multiple of the log size -- i.e. once consumers
#: have spent about one O(m) base rebuild's worth of work on the tail.
#: Appends alone never fold, so append-only bursts refresh in tail-sized
#: time regardless of how large the tail grows relative to the log.
_FOLD_WORK_FACTOR = 2

#: Work charged to the fold accumulator per dead *directed* base entry
#: (each deletion or overwrite of a base-resident edge marks two).  The
#: lazy compaction sweep is one O(nnz) masked take -- far cheaper per
#: entry than the coordinate re-sort of a full fold -- so deletions are
#: billed at a flat per-tombstone rate: isolated deletes stay O(nnz)
#: sweeps, sustained deletion churn accumulates toward a full rebuild.
_DEAD_WORK_CHARGE = 16


class CsrSnapshot:
    """Two-layer CSR snapshot: frozen base matrix + sorted directed tail.

    ``base`` is a symmetric :class:`scipy.sparse.csr_matrix` covering a
    prefix of the owning graph's append log; the tail holds every edge
    appended since, as directed slot arrays sorted by ``(src, dst)``
    (both orientations, so ``tail_src``/``tail_dst``/``tail_w`` have
    ``2 * num_tail_edges`` entries).  Base and tail supports are
    disjoint -- overwrites and deletions tombstone their base entries,
    which the owning graph compacts away before handing out the next
    snapshot -- so relaxing base rows plus tail slots visits exactly
    the graph's edge multiset.

    Snapshots are immutable: the owning graph replaces (never mutates)
    its cached snapshot, so holding one across later graph mutations is
    safe.
    """

    __slots__ = ("base", "tail_src", "tail_dst", "tail_w", "_matrix", "_work")

    def __init__(
        self,
        base,
        tail_src: np.ndarray,
        tail_dst: np.ndarray,
        tail_w: np.ndarray,
        work_cell: list[int] | None = None,
    ) -> None:
        self.base = base
        self.tail_src = tail_src
        self.tail_dst = tail_dst
        self.tail_w = tail_w
        self._matrix = None
        # Shared with the owning graph: cumulative tail-scan work since
        # the last fold, driving the adaptive compaction policy.
        self._work = [0] if work_cell is None else work_cell

    @property
    def num_tail_edges(self) -> int:
        """Undirected edges living in the tail layer."""
        return self.tail_src.size // 2

    @property
    def has_tail(self) -> bool:
        """Whether any edges live outside the base matrix."""
        return self.tail_src.size > 0

    def tail_neighbors(
        self, verts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tail adjacency rows for ``verts``: ``(counts, dst, w)``.

        ``counts[i]`` tail neighbors of ``verts[i]``; ``dst``/``w`` are
        the concatenated neighbor/weight runs in ``verts`` order.  Two
        binary searches over the sorted tail per query vertex -- O(log
        tail) each -- which is what lets the sparse frontier kernel
        consume the snapshot without ever merging the layers.
        """
        lo = np.searchsorted(self.tail_src, verts, side="left")
        hi = np.searchsorted(self.tail_src, verts, side="right")
        counts = hi - lo
        idx = run_expand(lo, counts)
        # Charge the scan (queries + hits) to the owning graph's fold
        # accumulator: once consumers have spent about one base rebuild
        # on tail lookups, the next refresh folds (adaptive compaction).
        self._work[0] += verts.size + idx.size
        return counts, self.tail_dst[idx], self.tail_w[idx]

    def matrix(self):
        """The merged full matrix (cached; for dense/scipy kernels).

        With an empty tail this *is* the base; otherwise base + tail
        merge once per snapshot (one C-level sparse addition, the cost
        the sparse kernels avoid paying).
        """
        if self._matrix is None:
            if not self.has_tail:
                self._matrix = self.base
            else:
                from scipy.sparse import coo_matrix

                delta = coo_matrix(
                    (self.tail_w, (self.tail_src, self.tail_dst)),
                    shape=self.base.shape,
                ).tocsr()
                self._matrix = self.base + delta
                # One merge reads both layers and writes the combined
                # matrix -- charge both so the next refresh folds
                # instead of merging over and over.
                self._work[0] += 2 * (self.base.nnz + self.tail_src.size)
        return self._matrix

    @property
    def merge_pending(self) -> bool:
        """True while the full matrix would still have to be merged."""
        return self.has_tail and self._matrix is None


class Graph:
    """Undirected weighted graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  The vertex set is fixed at construction;
        edges may be added and removed freely.
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_log_u",
        "_log_v",
        "_log_w",
        "_log_len",
        "_row_of",
        "_log_shared",
        "_edges_cache",
        "_base_csr",
        "_base_rows",
        "_base_dead",
        "_snapshot",
        "_snapshot_rows",
        "_tail_work",
    )

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self._adj: list[dict[int, float]] = [{} for _ in range(num_vertices)]
        self._num_edges = 0
        # Append-log edge store: row i holds edge (_log_u[i], _log_v[i])
        # with _log_u < _log_v; _row_of maps the normalized pair to its
        # row for O(1) weight overwrites and swap-deletes.
        self._log_u = np.empty(0, dtype=np.int64)
        self._log_v = np.empty(0, dtype=np.int64)
        self._log_w = np.empty(0, dtype=np.float64)
        self._log_len = 0
        self._row_of: dict[tuple[int, int], int] = {}
        # True once edges_arrays() handed out views of the log buffers;
        # in-place perturbations must copy first (copy-on-write).
        self._log_shared = False
        self._edges_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Two-layer CSR state: _base_csr covers log rows [0, _base_rows)
        # plus the directed entries listed in _base_dead (tombstones of
        # deleted/overwritten base edges, swept by a lazy masked take at
        # the next refresh); rows beyond _base_rows form the tail of the
        # current CsrSnapshot.  Appends only stale the snapshot (the
        # next csr_snapshot() rebuilds just the tail).
        self._base_csr = None
        self._base_rows = 0
        self._base_dead: list[int] = []
        self._snapshot: CsrSnapshot | None = None
        self._snapshot_rows = -1
        # Tail-scan work accumulated since the last fold; shared with
        # every snapshot handed out so scans on held snapshots count.
        self._tail_work: list[int] = [0]

    # ------------------------------------------------------------------
    # Append-log plumbing
    # ------------------------------------------------------------------
    def _log_materialize(self) -> None:
        """Copy the log buffers so previously handed-out snapshot views
        stay frozen (called before any in-place write)."""
        m = self._log_len
        self._log_u = self._log_u[:m].copy()
        self._log_v = self._log_v[:m].copy()
        self._log_w = self._log_w[:m].copy()
        self._log_shared = False

    def _log_reserve(self, extra: int) -> None:
        """Grow the log buffers to hold ``extra`` more rows (amortized
        doubling; reallocation leaves old snapshot views untouched)."""
        need = self._log_len + extra
        cap = self._log_u.shape[0]
        if need <= cap:
            return
        new_cap = max(_LOG_MIN_CAPACITY, need, 2 * cap)
        for name, dtype in (
            ("_log_u", np.int64),
            ("_log_v", np.int64),
            ("_log_w", np.float64),
        ):
            buf = np.empty(new_cap, dtype=dtype)
            buf[: self._log_len] = getattr(self, name)[: self._log_len]
            setattr(self, name, buf)
        self._log_shared = False

    def _log_append(self, a: int, b: int, w: float) -> None:
        """Append one normalized edge row (``a < b``)."""
        self._log_reserve(1)
        i = self._log_len
        self._log_u[i] = a
        self._log_v[i] = b
        self._log_w[i] = w
        self._row_of[(a, b)] = i
        self._log_len = i + 1
        self._edges_cache = None

    def _mark_base_dead(self, a: int, b: int) -> None:
        """Tombstone both directed base entries of edge ``(a, b)``.

        The entries stay in the base structure until the next snapshot
        refresh sweeps them with one masked take
        (:meth:`_compact_base_dead`); the flat per-tombstone charge lets
        sustained deletion churn escalate to a full fold adaptively.
        """
        indptr = self._base_csr.indptr
        indices = self._base_csr.indices
        for x, y in ((a, b), (b, a)):
            lo = int(indptr[x])
            hi = int(indptr[x + 1])
            self._base_dead.append(lo + int(np.searchsorted(indices[lo:hi], y)))
        self._tail_work[0] += 2 * _DEAD_WORK_CHARGE

    def _compact_base_dead(self) -> None:
        """Sweep tombstoned entries out of the base matrix.

        One C-level masked take over ``(data, indices)`` plus a per-row
        count adjustment for ``indptr`` -- no coordinate re-sort, no
        Python loop.  Builds a *new* matrix so held snapshots stay
        frozen.
        """
        from scipy.sparse import csr_matrix

        base = self._base_csr
        dead = np.asarray(self._base_dead, dtype=np.int64)
        keep = np.ones(base.nnz, dtype=bool)
        keep[dead] = False
        row_len = np.diff(base.indptr).astype(np.int64)
        dead_rows = np.searchsorted(base.indptr, dead, side="right") - 1
        np.subtract.at(row_len, dead_rows, 1)
        indptr = np.zeros(row_len.size + 1, dtype=base.indptr.dtype)
        np.cumsum(row_len, out=indptr[1:])
        self._base_csr = csr_matrix(
            (base.data[keep], base.indices[keep], indptr), shape=base.shape
        )
        self._base_dead = []

    def _log_set_weight(self, row: int, w: float) -> None:
        """Overwrite one row's weight in place (copy-on-write).

        A base-resident row is first evicted to the tail: its base
        entries are tombstoned and the row swaps with the last
        base-covered row, so the new weight lands in the tail layer and
        the base survives untouched until the lazy sweep.
        """
        if self._log_shared:
            self._log_materialize()
        if self._base_csr is not None and row < self._base_rows:
            a = int(self._log_u[row])
            b = int(self._log_v[row])
            self._mark_base_dead(a, b)
            head = self._base_rows - 1
            if row != head:
                hu = int(self._log_u[head])
                hv = int(self._log_v[head])
                w_head = float(self._log_w[head])
                self._log_u[row] = hu
                self._log_v[row] = hv
                self._log_w[row] = w_head
                self._log_u[head] = a
                self._log_v[head] = b
                self._row_of[(hu, hv)] = row
                self._row_of[(a, b)] = head
            self._log_w[head] = w
            self._base_rows = head
        else:
            self._log_w[row] = w
        self._edges_cache = None
        self._snapshot = None

    def _log_delete(self, a: int, b: int) -> None:
        """Swap-delete one normalized edge row (copy-on-write).

        Tail rows swap with the last log row as before.  Base-covered
        rows tombstone their base entries and close the base prefix
        with a two-swap -- last base row into the vacated slot, last
        log row into the freed base boundary -- so log rows ``[0, B)``
        keep covering exactly the live base entries.
        """
        row = self._row_of.pop((a, b))
        if self._log_shared:
            self._log_materialize()
        last = self._log_len - 1
        if self._base_csr is not None and row < self._base_rows:
            self._mark_base_dead(a, b)
            head = self._base_rows - 1
            if row != head:
                hu = int(self._log_u[head])
                hv = int(self._log_v[head])
                self._log_u[row] = hu
                self._log_v[row] = hv
                self._log_w[row] = self._log_w[head]
                self._row_of[(hu, hv)] = row
            if head != last:
                lu = int(self._log_u[last])
                lv = int(self._log_v[last])
                self._log_u[head] = lu
                self._log_v[head] = lv
                self._log_w[head] = self._log_w[last]
                self._row_of[(lu, lv)] = head
            self._base_rows = head
        elif row != last:
            lu = int(self._log_u[last])
            lv = int(self._log_v[last])
            self._log_u[row] = lu
            self._log_v[row] = lv
            self._log_w[row] = self._log_w[last]
            self._row_of[(lu, lv)] = row
        self._log_len = last
        self._edges_cache = None
        self._snapshot = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return self._num_edges

    def vertices(self) -> range:
        """The vertex ids ``range(n)``."""
        return range(len(self._adj))

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise GraphError(
                f"vertex {u} out of range [0, {len(self._adj)})"
            )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) not in graph") from None

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over the neighbors of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u])

    def neighbor_items(self, u: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        """Number of edges incident on ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, weight)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def edge_set(self) -> set[tuple[int, int]]:
        """The set of edges as ``(min, max)`` vertex pairs."""
        return {(u, v) for u, v, _ in self.edges()}

    def edges_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as aligned arrays ``(u, v, w)`` with ``u < v``.

        Rows appear in insertion-log order (an unspecified but
        deterministic order; deletions may reorder surviving rows).  The
        arrays are O(1) read-only views of the append-log edge store --
        refreshing after ``k`` appends costs O(k), not O(m) -- and stay
        frozen across later mutations (the store copies itself before
        any in-place write).  Callers needing scratch space must copy.
        """
        if self._edges_cache is None:
            m = self._log_len
            us = self._log_u[:m]
            vs = self._log_v[:m]
            ws = self._log_w[:m]
            for arr in (us, vs, ws):
                arr.setflags(write=False)
            self._log_shared = True
            self._edges_cache = (us, vs, ws)
        return self._edges_cache

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style adjacency: ``(indptr, indices, weights)``.

        ``indices[indptr[u]:indptr[u+1]]`` lists the neighbors of ``u``
        (sorted ascending for determinism) with aligned ``weights``.
        Derived from the cached CSR snapshot (one array copy per call;
        the returned arrays are fresh and writable).
        """
        mat = self.csr()
        return (
            mat.indptr.astype(np.int64),
            mat.indices.astype(np.int64),
            mat.data.astype(np.float64),
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Insert (or overwrite) the edge ``{u, v}`` with ``weight``.

        Self-loops and non-positive weights are rejected: the paper's
        graphs are simple with positive Euclidean-derived weights, and
        Dijkstra's correctness here relies on positivity.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u} not allowed")
        if not weight > 0.0:
            raise GraphError(
                f"edge weight must be positive, got {weight} for ({u}, {v})"
            )
        w = float(weight)
        a, b = (u, v) if u < v else (v, u)
        row = self._row_of.get((a, b))
        if row is None:
            self._num_edges += 1
            self._log_append(a, b, w)
        else:
            self._log_set_weight(row, w)
        self._adj[u][v] = w
        self._adj[v][u] = w

    def add_vertices(self, count: int = 1) -> range:
        """Grow the vertex set by ``count`` fresh isolated vertices.

        Returns the new vertex ids ``range(n, n + count)``.  The edge
        log is untouched; a live base matrix is re-shaped in O(n) by
        padding its ``indptr`` (the new rows are empty), so incremental
        consumers -- the maintenance engine above all -- pay no rebuild
        for joins.
        """
        if count < 0:
            raise GraphError(f"count must be >= 0, got {count}")
        start = len(self._adj)
        if count == 0:
            return range(start, start)
        self._adj.extend({} for _ in range(count))
        if self._base_csr is not None:
            from scipy.sparse import csr_matrix

            base = self._base_csr
            indptr = np.concatenate(
                [
                    base.indptr,
                    np.full(count, base.indptr[-1], dtype=base.indptr.dtype),
                ]
            )
            self._base_csr = csr_matrix(
                (base.data, base.indices, indptr),
                shape=(start + count, start + count),
            )
        self._snapshot = None
        self._snapshot_rows = -1
        return range(start, start + count)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``{u, v}``; raises if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._log_delete(min(u, v), max(u, v))

    def add_edges_from(
        self, edges: Iterable[tuple[int, int, float]]
    ) -> None:
        """Bulk :meth:`add_edge` from ``(u, v, weight)`` triples."""
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_weighted_edges_arrays(
        self, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> None:
        """Bulk edge insertion from aligned numpy arrays.

        Validates the whole batch up front with array checks (bounds,
        self-loops, positive weights -- the same invariants
        :meth:`add_edge` enforces per edge) and then inserts with one
        tight loop, avoiding per-edge validation dispatch.  Semantics
        match repeated :meth:`add_edge` calls: later duplicates overwrite
        earlier weights.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (u.ndim == v.ndim == w.ndim == 1):
            raise GraphError("edge arrays must be one-dimensional")
        if not (u.shape == v.shape == w.shape):
            raise GraphError(
                "edge arrays must be aligned: "
                f"got shapes {u.shape}, {v.shape}, {w.shape}"
            )
        if u.shape[0] == 0:
            return
        n = len(self._adj)
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            vertex = int(u[i]) if not 0 <= u[i] < n else int(v[i])
            raise GraphError(f"vertex {vertex} out of range [0, {n})")
        loops = u == v
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            raise GraphError(f"self-loop at vertex {int(u[i])} not allowed")
        bad_w = ~(w > 0.0)  # catches non-positive and NaN weights
        if bad_w.any():
            i = int(np.flatnonzero(bad_w)[0])
            raise GraphError(
                "edge weight must be positive, got "
                f"{float(w[i])} for ({int(u[i])}, {int(v[i])})"
            )
        adj = self._adj
        row_of = self._row_of
        k = u.shape[0]
        a_norm = np.minimum(u, v)
        b_norm = np.maximum(u, v)
        keys = list(zip(a_norm.tolist(), b_norm.tolist()))
        if len(set(keys)) == k and row_of.keys().isdisjoint(keys):
            # All-new batch (the builder hot path): append the log rows
            # as one slice write instead of per-edge calls.
            self._log_reserve(k)
            lo = self._log_len
            self._log_u[lo : lo + k] = a_norm
            self._log_v[lo : lo + k] = b_norm
            self._log_w[lo : lo + k] = w
            row_of.update(zip(keys, range(lo, lo + k)))
            self._log_len = lo + k
            for x, y, wt in zip(u.tolist(), v.tolist(), w.tolist()):
                adj[x][y] = wt
                adj[y][x] = wt
            self._num_edges += k
            self._edges_cache = None
            return
        self._log_reserve(k)
        new_edges = 0
        for a, b, wt in zip(u.tolist(), v.tolist(), w.tolist()):
            row = adj[a]
            if b not in row:
                new_edges += 1
                self._log_append(min(a, b), max(a, b), wt)
            else:
                self._log_set_weight(row_of[(min(a, b), max(a, b))], wt)
            row[b] = wt
            adj[b][a] = wt
        self._num_edges += new_edges
        self._edges_cache = None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy (vertex set and all edges)."""
        out = Graph(self.num_vertices)
        for u, nbrs in enumerate(self._adj):
            out._adj[u] = dict(nbrs)
        out._num_edges = self._num_edges
        m = self._log_len
        out._log_u = self._log_u[:m].copy()
        out._log_v = self._log_v[:m].copy()
        out._log_w = self._log_w[:m].copy()
        out._log_len = m
        out._row_of = dict(self._row_of)
        return out

    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """Induced subgraph on ``nodes``, keeping original vertex ids.

        Vertices outside ``nodes`` remain in the vertex set but become
        isolated; this keeps ids stable, which the phase-local algorithms
        rely on.
        """
        keep = set(nodes)
        for u in keep:
            self._check_vertex(u)
        out = Graph(self.num_vertices)
        for u in keep:
            for v, w in self._adj[u].items():
                if v in keep and u < v:
                    out.add_edge(u, v, w)
        return out

    def spanning_union(self, other: "Graph") -> "Graph":
        """New graph with the union of this graph's and ``other``'s edges.

        Both graphs must share the vertex count.  On weight conflicts the
        *smaller* weight wins (weights here always agree in practice since
        both sides derive from the same point set).
        """
        if other.num_vertices != self.num_vertices:
            raise GraphError(
                "vertex count mismatch: "
                f"{self.num_vertices} vs {other.num_vertices}"
            )
        out = self.copy()
        for u, v, w in other.edges():
            if not out.has_edge(u, v) or out.weight(u, v) > w:
                out.add_edge(u, v, w)
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_weight(self) -> float:
        """Sum of all edge weights ``w(G)``."""
        return sum(w for _, _, w in self.edges())

    def max_degree(self) -> int:
        """Maximum vertex degree ``Delta(G)`` (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj)

    def degree_sequence(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return [len(nbrs) for nbrs in self._adj]

    def max_edge_weight(self) -> float:
        """Largest edge weight (0.0 for an edgeless graph)."""
        return max((w for _, _, w in self.edges()), default=0.0)

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Whether every edge of this graph appears in ``other``."""
        if other.num_vertices != self.num_vertices:
            return False
        return all(other.has_edge(u, v) for u, v, _ in self.edges())

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_weighted_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :class:`networkx.Graph` with integer nodes 0..n-1.

        Edge weights are read from the ``weight`` attribute (default 1.0).
        """
        nodes = sorted(g.nodes())
        if nodes and (nodes[0] != 0 or nodes[-1] != len(nodes) - 1):
            raise GraphError(
                "networkx graph must be labelled with integers 0..n-1"
            )
        out = cls(len(nodes))
        for u, v, data in g.edges(data=True):
            out.add_edge(u, v, float(data.get("weight", 1.0)))
        return out

    def csr_snapshot(self) -> CsrSnapshot:
        """Two-layer CSR snapshot: frozen base + appended-edge tail.

        This is the interchange format the sparse path kernels consume
        natively.  Refreshing after a ``k``-edge append burst builds
        only the tail (one O(k log k) sort of the new log rows) --
        independent of the total edge count ``m``, and appends alone
        *never* trigger a fold.  The tail folds into a rebuilt base
        (one C-level O(m) pass) adaptively: once the cumulative
        tail-scan work consumers have paid since the last fold
        (:meth:`CsrSnapshot.tail_neighbors` lookups plus any
        :meth:`CsrSnapshot.matrix` merges) reaches about one rebuild
        (``_FOLD_WORK_FACTOR * m``), the next refresh compacts --
        folding exactly when it has become the cheaper alternative.
        Deletions and weight overwrites tombstone their base entries;
        the refresh sweeps pending tombstones with one masked take
        (O(nnz), no re-sort) before handing out the snapshot, with the
        sweep billed to the same accumulator.
        Snapshots are immutable and cached until the next mutation.
        """
        m = self._log_len
        if self._snapshot is not None and self._snapshot_rows == m:
            return self._snapshot
        from scipy.sparse import coo_matrix

        n = self.num_vertices
        base_ok = self._base_csr is not None and self._base_rows <= m
        tail_rows = m - self._base_rows if base_ok else m
        scans_exceed_rebuild = (
            self._tail_work[0] >= _FOLD_WORK_FACTOR * m
        )
        dirty = tail_rows > 0 or bool(self._base_dead)
        if not base_ok or (dirty and scans_exceed_rebuild):
            # Compaction: fold everything into a fresh base.
            us, vs, ws = self.edges_arrays()
            self._base_csr = coo_matrix(
                (
                    np.concatenate([ws, ws]),
                    (np.concatenate([us, vs]), np.concatenate([vs, us])),
                ),
                shape=(n, n),
            ).tocsr()
            self._base_rows = m
            self._base_dead = []
            tail_rows = 0
            self._tail_work[0] = 0
        elif self._base_dead:
            self._compact_base_dead()
        if tail_rows == 0:
            empty_i = np.empty(0, dtype=np.int64)
            snapshot = CsrSnapshot(
                self._base_csr, empty_i, empty_i,
                np.empty(0, dtype=np.float64),
                work_cell=self._tail_work,
            )
        else:
            lo = self._base_rows
            du = self._log_u[lo:m]
            dv = self._log_v[lo:m]
            dw = self._log_w[lo:m]
            t_src = np.concatenate([du, dv])
            t_dst = np.concatenate([dv, du])
            t_w = np.concatenate([dw, dw])
            order = np.lexsort((t_dst, t_src))
            snapshot = CsrSnapshot(
                self._base_csr, t_src[order], t_dst[order], t_w[order],
                work_cell=self._tail_work,
            )
        self._snapshot = snapshot
        self._snapshot_rows = m
        return snapshot

    def csr_merge_pending(self) -> bool:
        """Whether ``csr()`` would have to merge a pending tail right now.

        Cheap capacity probe for kernel-selection heuristics: ``True``
        means the full matrix is stale (appends since the last merge),
        so a dense kernel would first pay the O(m) base + tail merge
        that the sparse, snapshot-native kernels skip.
        """
        if self._base_dead:
            # Pending tombstones: the next snapshot sweeps the base.
            return True
        if self._snapshot is not None and self._snapshot_rows == self._log_len:
            return self._snapshot.merge_pending
        base_ok = self._base_csr is not None and self._base_rows <= self._log_len
        return not base_ok or self._base_rows < self._log_len

    def csr(self):
        """Symmetric :class:`scipy.sparse.csr_matrix` snapshot of the graph.

        The merged full-matrix view of :meth:`csr_snapshot` -- what the
        dense analysis, path, MST and component kernels consume.  Cached
        per snapshot: after an append burst the first call pays one
        C-level base + tail merge, later calls are free; sparse kernels
        that consume the two-layer snapshot natively never trigger the
        merge at all.  Treat the result as read-only (every kernel
        does); it is never mutated in place, so held references stay
        valid across graph mutations.
        """
        return self.csr_snapshot().matrix()

    def to_scipy_csr(self):
        """Alias of :meth:`csr` (kept for API compatibility)."""
        return self.csr()

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._adj == other._adj
        )

    def __hash__(self) -> int:  # Graphs are mutable; identity hash.
        return id(self)
