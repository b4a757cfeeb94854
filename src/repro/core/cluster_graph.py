"""The Das--Narasimhan cluster graph ``H_{i-1}`` (Section 2.2.3).

``H_{i-1}`` is a constant-hop-diameter approximation of the partial
spanner ``G'_{i-1}`` used to answer all shortest-path queries of phase
``i``:

* **intra-cluster edges** ``{a, x}`` join each cluster center ``a`` to each
  member ``x`` of its cluster, weighted ``sp_{G'}(a, x)``;
* **inter-cluster edges** ``{a, b}`` join centers whose clusters are close:
  either ``sp_{G'}(a, b) <= W_{i-1}`` (condition i) or some spanner edge
  crosses between the clusters (condition ii); the weight is always
  ``sp_{G'}(a, b)`` and is at most ``(2*delta + 1) * W_{i-1}`` (Lemma 5).

Lemma 7 guarantees path lengths in ``H`` sandwich those of ``G'``:
``L1 <= L2 <= (1 + 6*delta)/(1 - 2*delta) * L1``; Lemma 8 bounds the hops
of any relevant ``H``-path by ``2 + ceil(t*r/delta)``.

Since ``L1 <= L2``, an ``H``-path within a query's cutoff stays inside the
``G'``-ball of that radius around the query endpoints, so the drivers
build ``H`` only over that region (:func:`build_cluster_graph`).

Nothing mutates ``H`` after step iii, and steps iv and v read it only
through the path kernels, so :class:`ClusterGraph` holds it as one
symmetric CSR matrix built straight from the intra- and inter-cluster
edge arrays -- the same coo -> csr construction
:meth:`repro.graphs.graph.Graph.csr` applies, so every kernel reads the
rows a :class:`~repro.graphs.graph.Graph` of the same edges would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..arrayops import sorted_find, sorted_unique
from ..exceptions import GraphError
from ..graphs.graph import EdgeArrays, Graph, check_edge_arrays, symmetric_csr
from ..graphs.paths import (
    nearest_source_distances,
    pair_distance_entries,
    pair_distances,
)
from .cover import ClusterCover

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: Relative slack on the region radius: ``H``-path and ``G'`` Dijkstra
#: float sums may differ in their last bits; a larger region is safe.
_REGION_SLACK = 1e-9

__all__ = [
    "ClusterGraph",
    "build_cluster_graph",
    "answer_spanner_queries",
]


@dataclass(frozen=True)
class ClusterGraph:
    """Cluster graph ``H`` with its bookkeeping.

    ``H`` is read-only once built, so it is held as one symmetric CSR
    matrix and nothing else: the path kernels of
    :mod:`repro.graphs.paths` read a graph only through
    :attr:`num_vertices` and :meth:`csr`, so steps iv and v run on it
    as they run on a :class:`~repro.graphs.graph.Graph`.

    Attributes
    ----------
    matrix:
        ``H``'s symmetric ``n x n`` :class:`scipy.sparse.csr_matrix`
        (same vertex ids as the spanner; only centers and members carry
        edges), canonical like :meth:`Graph.csr`.
    cover:
        The cluster cover ``H`` was built from.
    w_prev:
        The bin boundary ``W_{i-1}`` governing inter-cluster edges.
    num_intra_edges / num_inter_edges:
        Edge-type counts (Lemma 6 bounds inter-cluster degree).
    """

    matrix: csr_matrix
    cover: ClusterCover
    w_prev: float
    num_intra_edges: int
    num_inter_edges: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` (the spanner's)."""
        return self.matrix.shape[0]

    def csr(self):
        """``H``'s CSR matrix (treat as read-only, like :meth:`Graph.csr`)."""
        return self.matrix

    def distance_pairs(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        *,
        cutoff: float | None = None,
    ) -> np.ndarray:
        """Batched ``sp_H(us[i], vs[i])`` for aligned endpoint arrays.

        One :func:`repro.graphs.paths.pair_distances` call, which picks
        the dense blocked rows or the sparse frontier-sharing search per
        call.  Entries beyond ``cutoff`` (or unreachable) are ``inf``.
        Query answering (step iv) and the F7 sandwich check read ``H``
        through this method.
        """
        return pair_distances(self, us, vs, cutoff=cutoff)

    def inter_center_degree(self) -> int:
        """Maximum number of inter-cluster edges at any center (Lemma 6).

        Counted as one pass over ``H``'s CSR rows (entries with both
        endpoints centers), not a per-center neighbor scan;
        :func:`build_cluster_graph` records it as it builds.
        """
        got = self._cache.get("inter_center_degree")
        if got is None:
            n = self.num_vertices
            mat = self.matrix
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(mat.indptr))
            is_center = _center_mask(self.cover, n)
            both = is_center[rows] & is_center[mat.indices]
            got = int(np.bincount(rows[both], minlength=1).max())
            self._cache["inter_center_degree"] = got
        return got


def _center_mask(cover: ClusterCover, n: int) -> np.ndarray:
    """``mask[v]`` iff ``v`` is a center: the vertex is its own center."""
    return cover.center == np.arange(n, dtype=np.int64)


def _is_in(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``mask[i]`` iff ``keys[i]`` occurs in the ascending ``sorted_keys``."""
    return sorted_find(sorted_keys, keys) >= 0


def _max_degree(us: np.ndarray, vs: np.ndarray) -> int:
    """Largest number of the edges ``(us[i], vs[i])`` at one vertex."""
    if us.size == 0:
        return 0
    return int(np.bincount(np.concatenate([us, vs])).max())


def build_cluster_graph(
    spanner: Graph,
    cover: ClusterCover,
    w_prev: float,
    delta: float,
    *,
    queries: EdgeArrays | None = None,
    radius: float = 0.0,
) -> ClusterGraph:
    """Construct ``H_{i-1}`` from the partial spanner and its cover.

    Parameters
    ----------
    spanner:
        The partial spanner ``G'_{i-1}``.
    cover:
        Cluster cover of ``spanner`` with radius ``delta * w_prev``.
    w_prev:
        Bin boundary ``W_{i-1}``.
    delta:
        Cover radius factor (used for the Lemma 5 search cutoff).
    queries / radius:
        Build ``H`` only over the region ``U`` within ``G'``-distance
        ``radius`` of the endpoints of the query batch (default: ``U``
        is every vertex, the full ``H``).

    Notes
    -----
    Inter-cluster distances come from one
    :func:`~repro.graphs.paths.pair_distance_entries` call: a cutoff
    search per center on ``spanner`` with cutoff ``2*delta*w_prev +
    max(w_prev, longest crossing spanner edge)``.  For edges added in
    phases ``1..i-1`` the crossing length is at most ``W_{i-1}`` and the
    cutoff reduces to the Lemma 5 bound ``(2*delta + 1)*w_prev``;
    phase-0 clique-spanner edges may be longer (their lengths are
    bounded by ``alpha``, not ``W_0``), so the cutoff stretches just
    enough to keep condition (ii) exact.

    Only the centers in ``U`` get a row, and ``H`` keeps the ``H``-edges
    with both ends in ``U``, each weighted from its lower center's own
    row.  An ``H``-edge weighs a ``G'``-distance, so an ``H``-path from a
    query endpoint within ``radius`` never leaves ``U``: every such
    distance and every step iv and v verdict equals the full ``H``'s, bit
    for bit.  The Lemma 5 check still covers every crossing pair: one
    whose crossing edge joins the two centers is certified by that edge,
    and every other pair gets its lower center's row, in ``U`` or not.

    The centers are the vertices the cover assigns to themselves.  The
    edges pass :func:`~repro.graphs.graph.check_edge_arrays` and a
    no-repeat check before they become ``H``'s matrix.
    """
    if w_prev <= 0.0:
        raise GraphError(f"w_prev must be positive, got {w_prev}")
    if delta <= 0.0:
        raise GraphError(f"delta must be positive, got {delta}")
    n = spanner.num_vertices
    center_of, center_dist = cover.center, cover.dist
    in_region = np.ones(n, dtype=bool)
    if queries is not None:
        ends = np.concatenate([queries.u, queries.v])
        cutoff = radius * (1.0 + _REGION_SLACK)
        in_region = np.isfinite(
            nearest_source_distances(spanner, ends, cutoff=cutoff)
        )

    # Intra-cluster edges come straight from the cover's center distances.
    assigned = np.flatnonzero((center_of >= 0) & in_region)
    own_center = center_of[assigned]
    own_dist = center_dist[assigned]
    intra = (assigned != own_center) & (own_dist > 0.0) & in_region[own_center]
    intra_a, intra_b = own_center[intra], assigned[intra]
    intra_d = own_dist[intra]

    # Candidate inter-cluster pairs from condition (ii): spanner edges
    # that cross between clusters -- one scan over the edge arrays.
    eu, ev, ew = spanner.edges_arrays()
    ea, eb = center_of[eu], center_of[ev]
    is_crossing = (ea >= 0) & (eb >= 0) & (ea != eb)
    longest_crossing = float(ew[is_crossing].max()) if is_crossing.any() else 0.0
    edge_keys = np.minimum(ea, eb) * np.int64(n) + np.maximum(ea, eb)
    cross_keys = sorted_unique(edge_keys[is_crossing])
    # Crossing pairs whose Lemma 5 bound only a center's row can certify.
    direct = np.sort(edge_keys[is_crossing & (ea == eu) & (eb == ev)])
    pending = cross_keys[~_is_in(cross_keys, direct)]

    # Center-to-center distances within `reach` from the region's
    # centers and the pending pairs' lower centers.  The entries come
    # sorted by (source, center) and each pair once, so the (a, b)
    # pairs with a < b below are sorted and distinct.
    reach = 2.0 * delta * w_prev + max(w_prev, longest_crossing)
    is_center = _center_mask(cover, n)
    center_arr = np.flatnonzero(is_center)
    is_src = is_center & in_region
    is_src[pending // n] = True
    src_arr = np.flatnonzero(is_src)
    row, col, all_d = pair_distance_entries(
        spanner, src_arr, center_arr, cutoff=reach
    )
    all_a, all_b = src_arr[row], center_arr[col]
    keys = all_a * np.int64(n) + all_b
    # Condition (i) or (ii), each unordered pair once.
    keep = (all_b > all_a) & ((all_d <= w_prev) | _is_in(keys, cross_keys))
    # Defensive: condition (ii) pairs must have been within the Lemma 5
    # reach; a miss means the cover or spanner handed to us is inconsistent.
    present = _is_in(pending, keys[keep])
    if not present.all():
        key = int(pending[int(np.argmin(present))])
        raise GraphError(
            f"inter-cluster edge ({key // n}, {key % n}) required by a "
            f"crossing spanner edge exceeds the Lemma 5 bound {reach:.6g}"
        )
    keep &= in_region[all_a] & in_region[all_b]
    all_a, all_b, all_d = all_a[keep], all_b[keep], all_d[keep]
    us, vs, ws = check_edge_arrays(
        n,
        np.concatenate([intra_a, all_a]),
        np.concatenate([intra_b, all_b]),
        np.concatenate([intra_d, all_d]),
    )
    keys = np.sort(np.minimum(us, vs) * np.int64(n) + np.maximum(us, vs))
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if twice.size:
        key = int(keys[twice[0]])
        raise GraphError(
            f"cluster-graph edge ({key // n}, {key % n}) appears twice"
        )
    cluster_graph = ClusterGraph(
        matrix=symmetric_csr(n, us, vs, ws),
        cover=cover,
        w_prev=w_prev,
        num_intra_edges=int(intra_a.size),
        num_inter_edges=int(all_a.size),
    )
    cluster_graph._cache["inter_center_degree"] = _max_degree(all_a, all_b)
    return cluster_graph


def answer_spanner_queries(
    cluster_graph: ClusterGraph,
    queries: EdgeArrays,
    t: float,
) -> np.ndarray:
    """Step (iv) verdicts: a mask over the query batch, true where the
    query edge joins the spanner.

    A query edge ``(x, y, length)`` is added exactly when ``H`` has no
    path of length ``<= t * length`` between its endpoints.  All queries
    of a phase are answered against the same frozen ``H``, so they batch
    into one :meth:`ClusterGraph.distance_pairs` call (one shared cutoff
    of ``t * max length``): blocked multi-source Dijkstra rows when the
    cutoff balls are wide, the sparse frontier-sharing search when they
    are tiny.  Both branches compare the exact same distance against the
    exact same threshold, so verdicts are identical by construction.
    """
    xs, ys, lengths = queries
    if lengths.size == 0:
        return np.zeros(0, dtype=bool)
    thresholds = t * lengths
    cutoff = float(thresholds.max())
    dist = cluster_graph.distance_pairs(xs, ys, cutoff=cutoff)
    return dist > thresholds
