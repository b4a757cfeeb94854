"""The sequential relaxed greedy spanner algorithm (Section 2).

This is the paper's central construction.  It runs in ``m + 1`` phases
over the edge bins of :class:`repro.core.bins.EdgeBinning`:

* **phase 0** (Section 2.1): connected components of the short-edge graph
  are cliques (Lemma 1); each gets a ``SEQ-GREEDY`` t-spanner;
* **phase i >= 1** (Section 2.2), five steps:

  1. cluster cover of the partial spanner ``G'_{i-1}`` with radius
     ``delta * W_{i-1}``;
  2. covered-edge filtering (Czumaj--Zhao) and query-edge selection --
     one query edge per cluster pair, minimizing equation (1);
  3. cluster graph ``H_{i-1}`` (Das--Narasimhan);
  4. shortest-path queries on ``H_{i-1}``: the query edge joins the
     spanner iff no path of length ``t * |xy|`` exists in ``H_{i-1}``;
  5. removal of mutually redundant edges via an MIS of the conflict
     graph.

The output satisfies Theorems 10/11/13: stretch ``t``, constant maximum
degree, and weight ``O(w(MST))``.

Each bin goes through the five steps as one
:class:`~repro.graphs.graph.EdgeArrays` batch: the covered filter is a
mask over the bin, selection turns the remaining candidates into a query
batch, step iv's verdicts are a mask over the queries that picks the
additions, which join the spanner in one bulk insert, and step v's
removals are a mask over those.

Empty bins are skipped outright (their phases would do no work); phase
statistics record both scheduled and executed phases so the distributed
round accounting can reflect either convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GraphError
from ..graphs.graph import EdgeArrays, Graph
from ..params import SpannerParams
from .bins import EdgeBinning
from .cluster_graph import (
    ClusterGraph,
    answer_spanner_queries,
    build_cluster_graph,
)
from .cover import ClusterCover, build_cluster_cover
from .covered import DistanceOracle, split_covered
from .redundancy import remove_redundant_edges
from .selection import select_query_edges
from .short_edges import process_short_edges

__all__ = ["PhaseReport", "SpannerResult", "RelaxedGreedySpanner", "build_spanner"]


def query_reach(
    queries: EdgeArrays, params: SpannerParams, w_cur: float
) -> float:
    """The largest cutoff steps iv and v search ``H`` with."""
    longest = float(queries.w.max()) if queries.w.size else 0.0
    return max(params.t * longest, params.t1 * w_cur)


@dataclass(frozen=True)
class PhaseReport:
    """Statistics of one executed phase.

    Attributes
    ----------
    index:
        Bin index ``i`` (0 for the short-edge phase).
    w_prev / w_cur:
        Bin boundaries ``W_{i-1}`` and ``W_i`` (0 for phase 0).
    num_bin_edges:
        ``|E_i|``.
    num_covered / num_candidates:
        Covered-edge filter outcome.
    num_clusters:
        Clusters in the phase's cover.
    num_queries:
        Query edges selected (one per cluster pair).
    max_queries_per_cluster:
        Lemma 4's measured quantity.
    num_added / num_removed:
        Edges added by queries and removed as redundant.
    num_intra_edges / num_inter_edges:
        Cluster graph composition (Lemma 6's measured quantity is the
        inter-cluster center degree, reported separately).
    inter_center_degree:
        Maximum inter-cluster degree of a center in ``H_{i-1}``.

    The three ``H`` counters describe the region-local ``H`` the phase
    built around its queries, not the full ``H_{i-1}`` (the F-series
    builds that to measure Lemma 6).
    """

    index: int
    w_prev: float
    w_cur: float
    num_bin_edges: int
    num_covered: int = 0
    num_candidates: int = 0
    num_clusters: int = 0
    num_queries: int = 0
    max_queries_per_cluster: int = 0
    num_added: int = 0
    num_removed: int = 0
    num_intra_edges: int = 0
    num_inter_edges: int = 0
    inter_center_degree: int = 0


@dataclass
class SpannerResult:
    """Output of a relaxed greedy construction.

    Attributes
    ----------
    spanner:
        The final spanner ``G'``.
    params:
        Parameter bundle the run used.
    phases:
        Per-executed-phase statistics, in order.
    num_bins:
        Total number of bins ``m`` (scheduled phases is ``m + 1``).
    """

    spanner: Graph
    params: SpannerParams
    phases: list[PhaseReport] = field(default_factory=list)
    num_bins: int = 0

    @property
    def executed_phases(self) -> int:
        """Number of phases that had edges to process."""
        return len(self.phases)


class RelaxedGreedySpanner:
    """Configured builder for relaxed greedy spanners.

    Parameters
    ----------
    params:
        Validated parameter bundle (see
        :meth:`repro.params.SpannerParams.from_epsilon`).
    check_clique:
        Forwarded to phase 0's Lemma 1 validation.
    use_covered_filter:
        Ablation/extension switch.  When false, the Czumaj--Zhao
        covered-edge filter (Section 2.2.2) is skipped and every bin edge
        is a candidate.  Theorem 10's stretch proof survives (the filter
        only prunes work), but Theorem 11's degree proof needs it -- the
        A1 ablation measures the effect, and the doubling-metric
        extension (paper Section 4, future work) relies on this switch
        because the filter is the one angle-based (hence
        Euclidean-specific) component.
    use_redundancy_removal:
        Ablation switch for step (v).  When false, mutually redundant
        edges are kept; Theorem 13's weight proof requires their removal
        -- the A2 ablation quantifies the cost of skipping it.

    Notes
    -----
    The builder is stateless across :meth:`build` calls and therefore
    reusable and thread-safe for concurrent builds on different graphs.
    """

    def __init__(
        self,
        params: SpannerParams,
        *,
        check_clique: bool = True,
        use_covered_filter: bool = True,
        use_redundancy_removal: bool = True,
    ) -> None:
        self.params = params
        self._check_clique = check_clique
        self._use_covered_filter = use_covered_filter
        self._use_redundancy = use_redundancy_removal

    # ------------------------------------------------------------------
    def build(self, graph: Graph, dist: DistanceOracle) -> SpannerResult:
        """Build a ``(1 + epsilon)``-spanner of ``graph``.

        Parameters
        ----------
        graph:
            The input alpha-UBG.  Edge weights must equal the Euclidean
            distance reported by ``dist`` for the same pair (the energy
            extension wraps this builder rather than changing weights;
            see :mod:`repro.extensions.energy`).
        dist:
            Euclidean distance oracle ``(u, v) -> |uv|`` defined for all
            vertex pairs (Section 1.1's "pairwise distances" knowledge).

        Returns
        -------
        SpannerResult
            Final spanner plus per-phase statistics.
        """
        params = self.params
        n = graph.num_vertices
        if n == 0:
            return SpannerResult(Graph(0), params)
        max_len = graph.max_edge_weight()
        if max_len > 1.0 + 1e-9:
            raise GraphError(
                f"alpha-UBG edges must have length <= 1, found {max_len:.6g}; "
                "rescale the instance"
            )
        binning = EdgeBinning.for_params(params, n)
        edges = graph.edges_arrays()
        bins = binning.assign(edges)

        # ---- phase 0 ------------------------------------------------
        short = bins.pop(0, edges.take(slice(0, 0)))
        outcome = process_short_edges(
            graph, short, dist, params.t, check_clique=self._check_clique
        )
        spanner = outcome.spanner
        result = SpannerResult(spanner, params, num_bins=binning.num_bins)
        if short.w.size:
            result.phases.append(
                PhaseReport(
                    index=0,
                    w_prev=0.0,
                    w_cur=binning.boundary(0),
                    num_bin_edges=int(short.w.size),
                    num_added=spanner.num_edges,
                )
            )

        # ---- phases 1..m --------------------------------------------
        for i, bin_edges in bins.items():
            report = self._run_phase(spanner, bin_edges, i, binning, dist)
            result.phases.append(report)
        return result

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        spanner: Graph,
        bin_edges: EdgeArrays,
        index: int,
        binning: EdgeBinning,
        dist: DistanceOracle,
    ) -> PhaseReport:
        """Execute the five steps of one long-edge phase, mutating
        ``spanner`` in place."""
        params = self.params
        w_prev = binning.boundary(index - 1)
        w_cur = binning.boundary(index)

        # Step (i): cluster cover of G'_{i-1}.
        cover: ClusterCover = build_cluster_cover(
            spanner, params.delta * w_prev
        )

        # Step (ii): covered-edge filter + query selection.
        if self._use_covered_filter:
            covered = split_covered(
                bin_edges, spanner, dist,
                alpha=params.alpha, theta=params.theta,
            )
        else:
            covered = np.zeros(bin_edges.w.size, dtype=bool)
        candidates = bin_edges.take(~covered)
        selection = select_query_edges(candidates, cover, params.t)
        queries = selection.queries

        # Step (iii): cluster graph H_{i-1}, only around the queries:
        # steps iv and v read it within their largest cutoffs.
        cluster_graph: ClusterGraph = build_cluster_graph(
            spanner, cover, w_prev, params.delta,
            queries=queries, radius=query_reach(queries, params, w_cur),
        )

        # Step (iv): shortest-path queries on H, answered as one batch
        # against the frozen cluster graph.
        added = queries.take(
            answer_spanner_queries(cluster_graph, queries, params.t)
        )
        spanner.add_weighted_edges_arrays(*added)

        # Step (v): redundancy elimination.
        if self._use_redundancy:
            outcome = remove_redundant_edges(
                spanner,
                added,
                cluster_graph,
                params.t1,
                w_cur=w_cur,
            )
            num_removed = int(outcome.removed.sum())
        else:
            num_removed = 0

        return PhaseReport(
            index=index,
            w_prev=w_prev,
            w_cur=w_cur,
            num_bin_edges=int(bin_edges.w.size),
            num_covered=int(covered.sum()),
            num_candidates=int(candidates.w.size),
            num_clusters=cover.num_clusters,
            num_queries=int(queries.w.size),
            max_queries_per_cluster=selection.max_queries_per_cluster,
            num_added=int(added.w.size),
            num_removed=num_removed,
            num_intra_edges=cluster_graph.num_intra_edges,
            num_inter_edges=cluster_graph.num_inter_edges,
            inter_center_degree=cluster_graph.inter_center_degree(),
        )


def build_spanner(
    graph: Graph,
    dist: DistanceOracle,
    epsilon: float,
    *,
    alpha: float = 1.0,
    dim: int = 2,
) -> SpannerResult:
    """One-call convenience wrapper: derive parameters and build.

    Equivalent to ``RelaxedGreedySpanner(SpannerParams.from_epsilon(...))
    .build(graph, dist)``.
    """
    params = SpannerParams.from_epsilon(epsilon, alpha=alpha, dim=dim)
    return RelaxedGreedySpanner(params).build(graph, dist)
