"""Distributed relaxed greedy spanner (Section 3 of the paper).

The distributed algorithm runs the same ``O(log n)`` phases as the
sequential one; per phase it spends

* ``O(1)`` rounds of k-hop gathering for query selection, cluster-graph
  construction and query answering (Theorems 17, 18, 19),
* one MIS invocation on the cover proximity graph ``J`` (Theorem 16,
  Lemma 15) and one on the redundancy conflict graph (Theorem 21,
  Lemma 20),

for a total of ``O(log n * R_MIS)`` rounds -- ``O(log n * log* n)`` with
the Kuhn et al. MIS of the paper, ``O(log n * log n)`` w.h.p. with the
Luby protocol this reproduction substitutes (see DESIGN.md).

Execution model of this implementation:

* **MIS invocations are real message-level protocol runs** on the derived
  graphs, executed by :class:`repro.distributed.engine.SynchronousNetwork`
  and converted to network rounds via the hop factor of the phase (one
  derived-graph round costs ``O(1)`` network rounds because derived-graph
  neighbors are a constant number of hops apart -- Lemmas 15/20).  The
  engine's *batch tier* steps every node of a round at once over CSR
  mailbox arrays, so these runs -- and the phase-0 flooding below -- scale
  to ``n >= 10^4`` while billing the exact same rounds and messages as
  the per-node tier (the engine runs every protocol that supports the
  batch tier there, and all hot protocols here do).  A node with
  no derived-graph neighbour joins the MIS in round 0 without a message,
  so on the reliable path the engine runs only on the nodes that have
  one, under their own ids (:func:`repro.distributed.mis.
  run_luby_mis_arrays`), and the MIS travels on as a boolean mask whose
  nonzero positions feed the cover and the deletions; a fault-plan
  build runs every alive node, since a crash can strike an isolated
  node too;
* **phase 0 is a real message-level run** of 1-hop flooding followed by
  identical node-local computations (Theorem 14);
* **k-hop gathers of later phases are charged to the ledger at their
  exact hop cost** while the node-local computation they enable is
  evaluated once globally -- the gathered views determine those
  computations exactly (each node's decision depends only on its k-hop
  ball; the test-suite recomputes decisions from simulated k-hop views
  on sampled nodes and checks this equivalence).

The output spanner satisfies the same three theorems as the sequential
algorithm; it can differ edge-by-edge (different cover centers, different
MIS draws) but the test-suite checks both against identical bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..arrayops import checked_seed
from ..core.bins import EdgeBinning
from ..core.cluster_graph import answer_spanner_queries, build_cluster_graph
from ..core.cover import (
    build_cluster_cover,
    cover_from_centers,
    short_edge_mask,
)
from ..core.covered import DistanceOracle, split_covered
from ..core.redundancy import (
    conflict_graph_arrays,
    find_redundant_pairs,
    remove_unchosen,
)
from ..core.relaxed_greedy import PhaseReport, query_reach
from ..core.selection import select_query_edges
from ..core.short_edges import process_short_edges
from ..exceptions import GraphError, ParameterError
from ..graphs.graph import EdgeArrays, Graph
from ..graphs.paths import (
    multi_source_ball_lists,
    multi_source_distances,
    pair_distances,
    prefer_batched_sources,
    source_block_size,
)
from ..params import SpannerParams
from .engine import SynchronousNetwork
from .faults import FaultPlan
from .ledger import RoundLedger
from .mis import induced_csr, run_luby_mis_arrays
from .protocols.flooding import KHopGather
from .unreliable import run_luby_mis_event

__all__ = ["DistributedSpannerResult", "DistributedRelaxedGreedy"]


@dataclass
class DistributedSpannerResult:
    """Output of a distributed build.

    Attributes
    ----------
    spanner:
        The constructed spanner ``G'``.
    params:
        Parameter bundle used.
    ledger:
        Full round/message accounting (see :class:`RoundLedger`).
    phases:
        Per-executed-phase statistics (same schema as the sequential
        result for easy comparison).
    num_bins:
        Bin count ``m``; scheduled phases are ``m + 1``.
    mis_invocations:
        Number of protocol-backed MIS runs.
    crashed:
        Nodes down when the build finished (fault-plan builds only;
        recovered nodes are *not* listed -- they rejoined the network).
    retransmissions / recovery_rounds:
        Totals over every event-tier protocol run of the build.
    repair_edges:
        Base edges reinstated by the final stretch re-certification
        sweep after crashes severed spanner paths.
    final_time:
        Event-simulation clock when the last protocol run drained.
    """

    spanner: Graph
    params: SpannerParams
    ledger: RoundLedger
    phases: list[PhaseReport] = field(default_factory=list)
    num_bins: int = 0
    mis_invocations: int = 0
    crashed: tuple = ()
    retransmissions: int = 0
    recovery_rounds: int = 0
    repair_edges: int = 0
    final_time: float = 0.0

    @property
    def total_rounds(self) -> int:
        """Network rounds charged over the whole run."""
        return self.ledger.total_rounds


def promote_uncovered(
    spanner: Graph, radius: float, centers: list[int], dead: set[int]
) -> list[int]:
    """Replacement centers for the alive nodes no center covers.

    Mid-run crashes may have severed the paths that certified some
    nodes' coverage.  Every alive node beyond ``radius`` of all
    ``centers`` is scanned in ascending id order and promoted unless an
    earlier promotion's ball reaches it -- ball growing over the
    uncovered survivors, so promoted centers stay pairwise more than
    ``radius`` apart.  Returns the promoted centers, ascending.
    """
    skip = np.zeros(spanner.num_vertices, dtype=bool)
    if centers:
        _, ball_v, _ = multi_source_ball_lists(
            spanner, np.asarray(centers, dtype=np.int64), radius
        )
        skip[ball_v] = True
    skip[sorted(dead)] = True
    uncovered = np.flatnonzero(~skip).tolist()
    if not uncovered:
        return []
    return list(
        build_cluster_cover(spanner, radius, vertices=uncovered).centers
    )


class DistributedRelaxedGreedy:
    """Distributed spanner builder (Section 3).

    Parameters
    ----------
    params:
        Validated spanner parameters.
    seed:
        Seed driving the Luby MIS protocols.
    process_empty_phases:
        When true, phases whose bin is empty still pay their cover
        schedule (gather + MIS on the proximity graph), matching the
        paper's fixed global schedule; when false (default) empty phases
        are skipped, matching a practical implementation where nodes
        with no work stay silent.
    measure_gather_messages:
        When true, the per-phase cover gather is executed as a *real*
        flooding protocol (every node floods its incident partial-spanner
        edges for the phase's hop radius) so the ledger carries measured
        message counts for the gather term too, not just for the MIS
        protocols.  Costs a KHopGather engine run per phase; default off.
    fault_plan:
        When set, every MIS invocation runs on the *event tier*
        (:mod:`repro.distributed.unreliable`) under this plan, sharing
        one crash timeline across phases: the simulation clock advances
        run by run, nodes down at a phase's start are excluded from its
        proximity graph and bin edges, crashed nodes' spanner edges are
        pruned, their clusters re-covered by promoted centers, and a
        final re-certification sweep restores the stretch bound on the
        surviving subgraph.  A zero-fault plan reproduces the default
        build exactly (pinned by the test-suite).
    jobs:
        Must be ``1``: every build runs in one process.  The parameter
        is kept only because the benchmark harness passes ``jobs=1``;
        any other value raises :class:`ParameterError`.
    """

    def __init__(
        self,
        params: SpannerParams,
        *,
        seed: int = 0,
        process_empty_phases: bool = False,
        measure_gather_messages: bool = False,
        fault_plan: FaultPlan | None = None,
        jobs: int = 1,
    ) -> None:
        if jobs != 1:
            raise ParameterError(f"jobs must be 1, got {jobs!r}")
        self.params = params
        self._seed = checked_seed(seed, "DistributedRelaxedGreedy")
        self._process_empty = process_empty_phases
        self._measure_gather = measure_gather_messages
        self._fault_plan = fault_plan
        self._clock = 0.0

    # ------------------------------------------------------------------
    def build(
        self, graph: Graph, dist: DistanceOracle
    ) -> DistributedSpannerResult:
        """Run the distributed construction on ``graph``.

        Parameters mirror
        :meth:`repro.core.relaxed_greedy.RelaxedGreedySpanner.build`.
        """
        params = self.params
        n = graph.num_vertices
        ledger = RoundLedger()
        self._clock = 0.0
        if n == 0:
            return DistributedSpannerResult(
                spanner=Graph(0), params=params, ledger=ledger
            )
        max_len = graph.max_edge_weight()
        if max_len > 1.0 + 1e-9:
            raise GraphError(
                f"alpha-UBG edges must have length <= 1, found {max_len:.6g}"
            )
        binning = EdgeBinning.for_params(params, n)
        edges = graph.edges_arrays()
        bins = binning.assign(edges)
        no_edges = edges.take(slice(0, 0))

        spanner, report = self._phase_zero(
            graph, bins.pop(0, no_edges), dist, ledger
        )
        result = DistributedSpannerResult(
            spanner=spanner,
            params=params,
            ledger=ledger,
            num_bins=binning.num_bins,
        )
        if report is not None:
            result.phases.append(report)

        phase_indices = (
            range(1, binning.num_bins + 1) if self._process_empty else bins
        )
        for i in phase_indices:
            bin_edges = bins.get(i, no_edges)
            report = self._phase(
                graph, spanner, bin_edges, i, binning, dist, ledger, result
            )
            if report is not None:
                result.phases.append(report)

        if self._fault_plan is not None:
            self._finalize_faults(graph, spanner, result)
        return result

    # ------------------------------------------------------------------
    # Fault-plan machinery (event-tier builds)
    # ------------------------------------------------------------------
    def _dead_mask(self, n: int) -> np.ndarray:
        """``(n,)`` mask of the nodes the fault plan has down at the
        shared clock."""
        nodes = np.arange(n, dtype=np.int64)
        return ~self._fault_plan.alive_at(nodes, self._clock)

    @staticmethod
    def _prune_dead(spanner: Graph, dead: set[int]) -> None:
        """Drop every spanner edge incident to a crashed node -- its
        links are gone until (and unless) the final repair sweep finds
        the stretch bound needs them back."""
        for u in dead:
            for v in list(spanner.neighbors(u)):
                spanner.remove_edge(u, v)

    def _finalize_faults(
        self, graph: Graph, spanner: Graph, result: DistributedSpannerResult
    ) -> None:
        """Close the fault timeline: prune nodes still down, then
        re-certify the stretch bound on the surviving subgraph.

        One ``pair_distances`` sweep over alive-alive base edges suffices
        -- every reinstated edge has stretch 1, so a single pass restores
        ``sp(u, v) <= t * w`` for all surviving base edges (the invariant
        E11 and the hardening tests verify).
        """
        plan = self._fault_plan
        n = graph.num_vertices
        dead_mask = self._dead_mask(n)
        dead = set(np.flatnonzero(dead_mask).tolist())
        self._prune_dead(spanner, dead)
        result.crashed = tuple(sorted(dead))
        result.final_time = self._clock
        crash_at, _ = plan.crash_schedules(np.arange(n, dtype=np.int64))
        if not (crash_at <= self._clock).any():
            return
        edges = graph.edges_arrays()
        us, vs, ws = edges.take(~dead_mask[edges.u] & ~dead_mask[edges.v])
        if us.size == 0:
            return
        t = self.params.t
        cutoff = t * float(ws.max()) * (1.0 + 1e-6)
        sp = pair_distances(spanner, us, vs, cutoff=cutoff)
        violated = np.flatnonzero(sp > t * ws * (1.0 + 1e-9))
        for i in violated:
            spanner.add_edge(int(us[i]), int(vs[i]), float(ws[i]))
        result.repair_edges = int(violated.size)
        if result.repair_edges:
            result.ledger.charge(
                result.num_bins + 1,
                "repair.certify",
                1,
                messages=2 * result.repair_edges,
                detail=(
                    f"{result.repair_edges} base edges reinstated on the "
                    "surviving subgraph"
                ),
            )

    # ------------------------------------------------------------------
    def _phase_zero(
        self,
        graph: Graph,
        short_edges: EdgeArrays,
        dist: DistanceOracle,
        ledger: RoundLedger,
    ) -> tuple[Graph, PhaseReport | None]:
        """Theorem 14: process ``E_0`` in O(1) real message rounds.

        Every node floods its incident short edges one hop; each node
        then knows the full topology of its ``G_0`` component (Lemma 1
        puts the component inside its closed neighborhood), computes the
        same deterministic clique spanner, and keeps its incident edges.
        One more round announces kept edges to neighbors.  Returns the
        phase-0 spanner and its report (``None`` without short edges).
        """
        if not short_edges.w.size:
            return Graph(graph.num_vertices), None
        facts = {u: set() for u in graph.vertices()}
        for u, v, w in zip(*(a.tolist() for a in short_edges)):
            facts[u].add((u, v, w))
            facts[v].add((u, v, w))
        net = SynchronousNetwork(graph, max_rounds=16)
        run = net.run(KHopGather(facts, k=1))
        ledger.charge(
            0,
            "short.gather",
            run.rounds,
            messages=run.messages,
            detail="1-hop E_0 exchange",
        )
        ledger.charge(0, "short.announce", 1, detail="announce kept edges")
        # Node-local computation (identical at every member of a
        # component, since all see the same facts -- verified in tests):
        # evaluated once via the shared subroutine.
        outcome = process_short_edges(
            graph, short_edges, dist, self.params.t, check_clique=False
        )
        return outcome.spanner, PhaseReport(
            index=0,
            w_prev=0.0,
            w_cur=self.params.w0(graph.num_vertices),
            num_bin_edges=int(short_edges.w.size),
            num_added=outcome.spanner.num_edges,
        )

    # ------------------------------------------------------------------
    def _proximity_graph(
        self, spanner: Graph, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cover proximity graph ``J``: ``{x, y}`` iff
        ``sp_{G'}(x, y) <= radius`` (Section 3.2.1), as CSR arrays.

        Searched from the vertices :func:`short_edge_mask` marks (every
        other node is isolated in ``J``) over the spanner's CSR snapshot
        -- the frontier-sharing sparse search in the tiny-radius phases
        (total work O(J mass), no dense rows), blocked C-level
        multi-source cutoff Dijkstras once balls are wide (see
        :func:`prefer_batched_sources`) -- then symmetrized and
        deduplicated into one sorted ``(indptr, indices)`` pair over
        nodes ``0..n-1``: the form the engine's batch tier and
        :func:`repro.distributed.mis.run_luby_mis_arrays` consume
        directly.  ``J`` stays arrays end-to-end: no per-node dict or
        set is ever materialized on this path.
        """
        n = spanner.num_vertices
        sources = np.flatnonzero(short_edge_mask(spanner, radius))
        if sources.size == 0:
            return (
                np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        if prefer_batched_sources(spanner, sources, radius):
            block = source_block_size(spanner)
            pair_u: list[np.ndarray] = []
            pair_v: list[np.ndarray] = []
            for lo in range(0, sources.size, block):
                src = sources[lo : lo + block]
                rows = multi_source_distances(spanner, src, cutoff=radius)
                ui, vi = np.nonzero(rows <= radius)
                keep = src[ui] != vi
                pair_u.append(src[ui[keep]])
                pair_v.append(vi[keep])
            us = np.concatenate(pair_u)
            vs = np.concatenate(pair_v)
        else:
            starts, ball_v, _ = multi_source_ball_lists(
                spanner, sources, radius
            )
            src = np.repeat(sources, np.diff(starts))
            keep = src != ball_v
            us, vs = src[keep], ball_v[keep]
        # Symmetrize (floating-point Dijkstra can in principle disagree
        # across directions; J must be undirected) and deduplicate: one
        # unique pass over (u, v) keys yields sorted loop-free rows.
        keys = np.unique(
            np.concatenate([us * np.int64(n) + vs, vs * np.int64(n) + us])
        )
        indptr = np.searchsorted(
            keys, np.arange(n + 1, dtype=np.int64) * np.int64(n)
        )
        return indptr, keys % np.int64(n)

    def _cover_mis_event(
        self,
        plan: FaultPlan,
        prox_indptr: np.ndarray,
        prox_indices: np.ndarray,
        dead: set[int],
        index: int,
        k_cluster: int,
        spanner: Graph,
        radius: float,
        ledger: RoundLedger,
        result: DistributedSpannerResult,
    ) -> tuple[list[int], set[int]]:
        """Cover MIS on the event tier under ``plan``.

        Induces ``J`` on the currently-alive nodes, runs the hardened
        Luby protocol from the shared simulation clock, absorbs crashes
        that happened mid-run (pruning their spanner edges), and promotes
        replacement centers for alive nodes the crashes left uncovered --
        the promotion is a local O(1)-round operation charged to the
        ledger as ``cover.recover``.  Returns the final center list and
        the updated dead set.
        """
        n = prox_indptr.size - 1
        alive_mask = np.ones(n, dtype=bool)
        if dead:
            alive_mask[sorted(dead)] = False
        sub_indptr, sub_indices, labels = induced_csr(
            prox_indptr, prox_indices, alive_mask
        )
        run = run_luby_mis_event(
            (sub_indptr, sub_indices),
            seed=self._seed * 1_000_003 + index,
            plan=plan,
            fault_labels={i: int(u) for i, u in enumerate(labels)},
            t0=self._clock,
            # Event volume grows with the node count; keep the default
            # ceiling for small runs but scale it for n >= 10^4 builds.
            max_events=max(5_000_000, 3_000 * n),
        )
        self._clock = run.t_end
        result.mis_invocations += 1
        result.retransmissions += run.result.retransmissions
        result.recovery_rounds += run.result.recovery_rounds
        ledger.charge(
            index,
            "cover.mis",
            run.result.rounds * k_cluster,
            messages=run.result.messages,
            detail=(
                f"{run.result.rounds} hardened J-epochs x {k_cluster} hop "
                f"factor, {run.result.retransmissions} retransmissions"
            ),
        )
        alive_now = {int(labels[c]) for c in run.alive}
        newly_dead = set(map(int, labels)) - alive_now
        if newly_dead:
            dead = dead | newly_dead
            self._prune_dead(spanner, newly_dead)
        centers = sorted(int(labels[c]) for c in run.independent_set)
        promoted = promote_uncovered(spanner, radius, centers, dead)
        if promoted:
            centers = sorted(centers + promoted)
            result.recovery_rounds += 1
            ledger.charge(
                index,
                "cover.recover",
                k_cluster,
                messages=len(promoted),
                detail=f"{len(promoted)} centers promoted after crashes",
            )
        return centers, dead

    def _phase(
        self,
        graph: Graph,
        spanner: Graph,
        bin_edges: EdgeArrays,
        index: int,
        binning: EdgeBinning,
        dist: DistanceOracle,
        ledger: RoundLedger,
        result: DistributedSpannerResult,
    ) -> PhaseReport | None:
        """One long-edge phase: five steps with round accounting."""
        params = self.params
        n = graph.num_vertices
        w_prev = binning.boundary(index - 1)
        w_cur = binning.boundary(index)
        radius = params.delta * w_prev
        k_cluster = params.cluster_hop_bound(index, n)
        k_graph = params.cluster_graph_hop_bound(index, n)
        k_query = params.query_hop_bound()

        plan = self._fault_plan
        dead: set[int] = set()
        if plan is not None:
            dead = set(np.flatnonzero(self._dead_mask(n)).tolist())
            self._prune_dead(spanner, dead)
            if len(dead) == n:
                return PhaseReport(
                    index=index, w_prev=w_prev, w_cur=w_cur, num_bin_edges=0
                )

        # ---- Step (i): cluster cover via MIS of J (Theorem 16) -------
        prox_indptr, prox_indices = self._proximity_graph(spanner, radius)
        if self._measure_gather and graph.num_edges > 0:
            # One pass over the spanner's edge arrays (not n per-node
            # adjacency scans); facts are identical sets either way.
            se_u, se_v, se_w = spanner.edges_arrays()
            facts: dict[int, list] = {u: [] for u in graph.vertices()}
            for u, v, w in zip(
                se_u.tolist(), se_v.tolist(), se_w.tolist()
            ):
                key = (u, v, w) if u < v else (v, u, w)
                facts[u].append(key)
                facts[v].append(key)
            gather_run = SynchronousNetwork(
                graph, max_rounds=k_cluster + 4
            ).run(KHopGather(facts, k=k_cluster))
            ledger.charge(
                index,
                "cover.gather",
                k_cluster,
                messages=gather_run.messages,
                detail=(
                    f"measured flooding: {gather_run.messages} msgs, "
                    f"{gather_run.words} words over {k_cluster} hops"
                ),
            )
        else:
            ledger.charge(
                index,
                "cover.gather",
                k_cluster,
                detail=f"G' within {k_cluster} hops",
            )
        if plan is None:
            mis_run = run_luby_mis_arrays(
                prox_indptr,
                prox_indices,
                seed=self._seed * 1_000_003 + index,
            )
            result.mis_invocations += 1
            ledger.charge(
                index,
                "cover.mis",
                mis_run.engine_rounds * k_cluster,
                messages=mis_run.messages,
                detail=(
                    f"{mis_run.engine_rounds} J-rounds x {k_cluster} "
                    "hop factor"
                ),
            )
            centers: np.ndarray | list[int] = np.flatnonzero(mis_run.chosen)
            universe: list[int] | None = None
        else:
            centers, dead = self._cover_mis_event(
                plan, prox_indptr, prox_indices, dead, index,
                k_cluster, spanner, radius, ledger, result,
            )
            universe = [u for u in range(n) if u not in dead]
            if not universe:
                return PhaseReport(
                    index=index, w_prev=w_prev, w_cur=w_cur, num_bin_edges=0
                )
        cover = cover_from_centers(
            spanner, radius, centers, vertices=universe
        )
        ledger.charge(index, "cover.attach", k_cluster, detail="join center")

        if dead:
            # Crashed endpoints take their pending bin edges with them.
            is_dead = np.zeros(n, dtype=bool)
            is_dead[list(dead)] = True
            bin_edges = bin_edges.take(
                ~(is_dead[bin_edges.u] | is_dead[bin_edges.v])
            )

        if not bin_edges.w.size:
            # Scheduled-but-empty phase: only the cover schedule ran.
            return PhaseReport(
                index=index,
                w_prev=w_prev,
                w_cur=w_cur,
                num_bin_edges=0,
                num_clusters=cover.num_clusters,
            )

        # ---- Step (ii): query selection (Theorem 17) -----------------
        covered = split_covered(
            bin_edges, spanner, dist, alpha=params.alpha, theta=params.theta
        )
        candidates = bin_edges.take(~covered)
        selection = select_query_edges(candidates, cover, params.t)
        queries = selection.queries
        ledger.charge(
            index,
            "select.gather",
            1 + k_cluster,
            detail="cluster heads view E_i[Ca,*]",
        )

        # ---- Step (iii): cluster graph (Theorem 18) -------------------
        # Built only around the queries, which is all steps iv and v read.
        cluster_graph = build_cluster_graph(
            spanner, cover, w_prev, params.delta,
            queries=queries, radius=query_reach(queries, params, w_cur),
        )
        ledger.charge(
            index,
            "hgraph.gather",
            k_graph,
            detail=f"G' within {k_graph} hops",
        )

        # ---- Step (iv): queries (Theorem 19) --------------------------
        added = queries.take(
            answer_spanner_queries(cluster_graph, queries, params.t)
        )
        spanner.add_weighted_edges_arrays(*added)
        ledger.charge(
            index,
            "query.gather",
            k_query,
            detail=f"Theorem 9 bound {k_query} hops",
        )

        # ---- Step (v): redundancy removal (Theorem 21) ----------------
        pair_i, pair_j = find_redundant_pairs(
            added, cluster_graph, params.t1, w_cur=w_cur
        )
        removed = np.zeros(added.w.size, dtype=bool)
        if pair_i.size:
            # The conflict graph stays CSR end-to-end: node q is the
            # q-th implicated edge in ascending (min, max) key order.
            nodes, c_indptr, c_indices = conflict_graph_arrays(
                added, pair_i, pair_j
            )
            mis2_seed = self._seed * 2_000_003 + index
            if plan is None:
                mis2 = run_luby_mis_arrays(
                    c_indptr, c_indices, seed=mis2_seed
                )
                chosen = np.flatnonzero(mis2.chosen)
                mis2_rounds, mis2_messages = mis2.engine_rounds, mis2.messages
            else:
                # Conflict-graph nodes are *edges* hosted by alive cluster
                # heads: they suffer the plan's link faults but cannot
                # crash (a dead host already removed its edges above).
                vplan = replace(
                    plan,
                    crash_rate=0.0,
                    seed=plan.seed * 1_000_003 + 17,
                )
                vrun = run_luby_mis_event(
                    (c_indptr, c_indices),
                    seed=mis2_seed,
                    plan=vplan,
                    t0=self._clock,
                )
                self._clock = vrun.t_end
                result.retransmissions += vrun.result.retransmissions
                result.recovery_rounds += vrun.result.recovery_rounds
                chosen = vrun.independent_set
                mis2_rounds = vrun.result.rounds
                mis2_messages = vrun.result.messages
            result.mis_invocations += 1
            ledger.charge(
                index,
                "redundant.mis",
                mis2_rounds * k_query,
                messages=mis2_messages,
                detail=(
                    f"{mis2_rounds} J-rounds x {k_query} hop factor"
                ),
            )
            removed = remove_unchosen(spanner, added, nodes, chosen)
        ledger.charge(
            index, "redundant.gather", k_query, detail="pair discovery"
        )

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
            num_removed=int(removed.sum()),
            num_intra_edges=cluster_graph.num_intra_edges,
            num_inter_edges=cluster_graph.num_inter_edges,
            inter_center_degree=cluster_graph.inter_center_degree(),
        )
