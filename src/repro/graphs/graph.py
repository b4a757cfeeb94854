"""A compact undirected weighted graph on integer vertices.

Every algorithm in this library operates on :class:`Graph`: vertices are
the integers ``0 .. n-1`` (matching :class:`repro.geometry.PointSet`
labels) and edges carry positive float weights.  The representation is a
dict-of-dicts adjacency (neighbor iteration, O(1) edge queries, cheap
dynamic insertion) *paired with an append-log edge store*: every edge
occupies one row of three aligned growable numpy arrays, so
:meth:`Graph.edges_arrays` hands out O(1) read-only views of the log.

:meth:`Graph.csr` builds the symmetric CSR matrix the array kernels
consume from those views in one C-level pass and caches it until the
next mutation.  The graphs that construction and churn repair keep
mutating are spanners -- linear size, O(1) degree -- so that one pass
stays small.  Arrays handed out stay frozen: the log copies itself
before any in-place write (copy-on-write), and a new matrix replaces
the cached one rather than mutating it, so callers may hold either
across later mutations.

The batch edge checks and the CSR build are module functions
(:func:`check_edge_arrays`, :func:`symmetric_csr`): the cluster graph of
step iii uses them to become a matrix without ever being a
:class:`Graph`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..exceptions import GraphError

__all__ = ["EdgeArrays", "Graph", "check_edge_arrays", "symmetric_csr"]

#: Initial capacity of the append-log buffers.
_LOG_MIN_CAPACITY = 16


class EdgeArrays(NamedTuple):
    """A batch of edges ``(u[i], v[i], w[i])`` as three aligned arrays.

    The one edge format of the construction pipeline: a weight bin and
    a phase's candidates, queries and additions are batches, and each
    step selects from the batch it is given with a boolean mask or an
    index array (:meth:`take`).  It unpacks like the plain triple,
    ``us, vs, ws = batch``.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def take(self, sel) -> "EdgeArrays":
        """The edges ``sel`` picks (a boolean mask, index array or
        slice), in the order it picks them."""
        return EdgeArrays(self.u[sel], self.v[sel], self.w[sel])


def check_edge_arrays(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> EdgeArrays:
    """Validate a batch of edges ``(u[i], v[i], w[i])`` on ``n`` vertices.

    The array form of :meth:`Graph.add_edge`'s checks: aligned
    one-dimensional arrays, endpoints in ``[0, n)``, no self-loops and
    positive weights.  The first offending edge is named.  Returns the
    edges as one batch of int64, int64 and float64 arrays.
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
    return EdgeArrays(u, v, w)


def symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Symmetric ``n x n`` :class:`scipy.sparse.csr_matrix` of the
    undirected edges ``(u[i], v[i], w[i])``.

    One C-level coo -> csr pass over both orientations.  The result is
    canonical (columns sorted within each row), so it does not depend
    on the order of the edges.  The edges must be distinct: a repeated
    pair would have its weights summed.
    """
    from scipy.sparse import coo_matrix

    return coo_matrix(
        (
            np.concatenate([w, w]),
            (np.concatenate([u, v]), np.concatenate([v, u])),
        ),
        shape=(n, n),
    ).tocsr()


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
        "_csr",
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
        self._edges_cache: EdgeArrays | None = None
        # Cached csr() matrix; every mutation clears it.
        self._csr = None

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
        self._csr = None

    def _log_set_weight(self, row: int, w: float) -> None:
        """Overwrite one row's weight in place (copy-on-write)."""
        if self._log_shared:
            self._log_materialize()
        self._log_w[row] = w
        self._edges_cache = None
        self._csr = None

    def _log_delete(self, a: int, b: int) -> None:
        """Swap-delete one normalized edge row: the last row moves into
        the gap (copy-on-write)."""
        row = self._row_of.pop((a, b))
        if self._log_shared:
            self._log_materialize()
        last = self._log_len - 1
        if row != last:
            lu = int(self._log_u[last])
            lv = int(self._log_v[last])
            self._log_u[row] = lu
            self._log_v[row] = lv
            self._log_w[row] = self._log_w[last]
            self._row_of[(lu, lv)] = row
        self._log_len = last
        self._edges_cache = None
        self._csr = None

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

    def edges_arrays(self) -> EdgeArrays:
        """All edges as one :class:`EdgeArrays` batch with ``u < v``.

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
            self._edges_cache = EdgeArrays(us, vs, ws)
        return self._edges_cache

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style adjacency: ``(indptr, indices, weights)``.

        ``indices[indptr[u]:indptr[u+1]]`` lists the neighbors of ``u``
        (sorted ascending for determinism) with aligned ``weights``.
        Derived from the cached :meth:`csr` matrix (one array copy per call;
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
        log is untouched.
        """
        if count < 0:
            raise GraphError(f"count must be >= 0, got {count}")
        start = len(self._adj)
        if count == 0:
            return range(start, start)
        self._adj.extend({} for _ in range(count))
        self._csr = None
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

    def add_weighted_edges_arrays(
        self, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> None:
        """Bulk edge insertion from aligned numpy arrays.

        Validates the whole batch up front with
        :func:`check_edge_arrays` (bounds, self-loops, positive weights
        -- the same invariants :meth:`add_edge` enforces per edge) and
        then inserts with one tight loop, avoiding per-edge validation
        dispatch.  Semantics match repeated :meth:`add_edge` calls: later
        duplicates overwrite earlier weights.
        """
        u, v, w = check_edge_arrays(len(self._adj), u, v, w)
        if u.shape[0] == 0:
            return
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
            self._csr = None
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
        ws = self.edges_arrays()[2]
        return float(ws.max()) if ws.size else 0.0

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Whether every edge of this graph appears in ``other``."""
        if other.num_vertices != self.num_vertices:
            return False
        return all(other.has_edge(u, v) for u, v, _ in self.edges())

    def csr(self):
        """Symmetric :class:`scipy.sparse.csr_matrix` snapshot of the graph.

        What the dense analysis, path, MST and component kernels and the
        sparse ball kernels consume.  Built from :meth:`edges_arrays` by
        :func:`symmetric_csr` and cached until the next mutation.  Treat the
        result as read-only (every kernel does); it is never mutated in
        place, so held references stay valid across graph mutations.
        """
        if self._csr is None:
            self._csr = symmetric_csr(self.num_vertices, *self.edges_arrays())
        return self._csr

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
