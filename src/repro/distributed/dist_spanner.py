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
  graphs, converted to network rounds via the hop factor of the phase
  (one derived-graph round costs ``O(1)`` network rounds because
  derived-graph neighbors are a constant number of hops apart -- Lemmas
  15/20).  Both runs of a phase go through one runner,
  :meth:`DistributedRelaxedGreedy._luby`, which returns the MIS as a
  boolean mask over the derived graph whose nonzero positions feed the
  cover and the deletions.  Without a fault plan it executes on
  :class:`repro.distributed.engine.SynchronousNetwork`'s *batch tier*,
  which steps every node of a round at once over CSR mailbox arrays, so
  these runs -- and the phase-0 flooding below -- scale to
  ``n >= 10^4`` while billing the exact same rounds and messages as the
  per-node tier.  A node with no derived-graph neighbour joins the MIS
  in round 0 without a message, so the engine runs only on the nodes
  that have one, under their own ids (:func:`repro.distributed.mis.
  run_luby_mis_arrays`).  With a fault plan it runs the hardened
  protocol on the event tier over every alive node, since a crash can
  strike an isolated node too;
* **phase 0 is a real message-level run** of 1-hop flooding followed by
  identical node-local computations (Theorem 14);
* **k-hop gathers of later phases are charged to the ledger at their
  exact hop cost** while the node-local computation they enable is
  evaluated once globally -- the gathered views determine those
  computations exactly (each node's decision depends only on its k-hop
  ball; the test-suite recomputes decisions from simulated k-hop views
  on sampled nodes and checks this equivalence).

Under a fault plan the MIS runs of a build share one crash timeline: the
simulation clock lives on the build's result (``final_time``), and each
run starts where the previous one drained.  The nodes up at a phase's
start, and after its cover run, are boolean masks over the nodes.

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
from ..core.relaxed_greedy import PhaseReport, bin_instance, query_reach
from ..core.selection import select_query_edges
from ..core.short_edges import process_short_edges
from ..exceptions import ParameterError
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
from .mis import MISMask, induced_csr, run_luby_mis_arrays
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
        The build's event-simulation clock: each fault-plan MIS run
        starts from it and advances it to when the run drained (0
        without a fault plan).
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


def _prune_dead(spanner: Graph, dead: np.ndarray) -> None:
    """Drop every spanner edge incident to a node the ``(n,)`` mask
    ``dead`` marks -- its links are gone until (and unless) the final
    repair sweep finds the stretch bound needs them back."""
    eu, ev, _ = spanner.edges_arrays()
    gone = dead[eu] | dead[ev]
    spanner.remove_edges_arrays(eu[gone], ev[gone])


def promote_uncovered(
    spanner: Graph, radius: float, centers: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Replacement centers for the alive nodes no center covers.

    Mid-run crashes may have severed the paths that certified some
    nodes' coverage.  Every node the ``(n,)`` mask ``alive`` marks that
    lies beyond ``radius`` of all ``centers`` is scanned in ascending id
    order and promoted unless an earlier promotion's ball reaches it --
    ball growing over the uncovered survivors, so promoted centers stay
    pairwise more than ``radius`` apart.  Returns the promoted centers,
    ascending.
    """
    uncovered = alive.copy()
    if centers.size:
        _, ball_v, _ = multi_source_ball_lists(spanner, centers, radius)
        uncovered[ball_v] = False
    if not uncovered.any():
        return np.empty(0, dtype=np.int64)
    cover = build_cluster_cover(
        spanner, radius, vertices=np.flatnonzero(uncovered)
    )
    return np.asarray(cover.centers, dtype=np.int64)


class DistributedRelaxedGreedy:
    """Distributed spanner builder (Section 3).

    Parameters
    ----------
    params:
        Validated spanner parameters.
    seed:
        Seed driving the Luby MIS protocols.
    fault_plan:
        When set, every MIS invocation runs on the *event tier*
        (:mod:`repro.distributed.unreliable`) under this plan, sharing
        one crash timeline across phases: the build's clock advances
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

    Notes
    -----
    The builder is stateless across :meth:`build` calls -- a build's
    simulation clock and fault state live on its result and in its
    locals -- and therefore reusable.
    """

    def __init__(
        self,
        params: SpannerParams,
        *,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        jobs: int = 1,
    ) -> None:
        if jobs != 1:
            raise ParameterError(f"jobs must be 1, got {jobs!r}")
        self.params = params
        self._seed = checked_seed(seed, "DistributedRelaxedGreedy")
        self._fault_plan = fault_plan

    # ------------------------------------------------------------------
    def build(
        self, graph: Graph, dist: DistanceOracle
    ) -> DistributedSpannerResult:
        """Run the distributed construction on ``graph``.

        Parameters mirror
        :meth:`repro.core.relaxed_greedy.RelaxedGreedySpanner.build`.
        """
        params = self.params
        ledger = RoundLedger()
        if graph.num_vertices == 0:
            return DistributedSpannerResult(
                spanner=Graph(0), params=params, ledger=ledger
            )
        binning, short, bins = bin_instance(graph, params)
        spanner, report = self._phase_zero(graph, short, dist, ledger)
        result = DistributedSpannerResult(
            spanner=spanner,
            params=params,
            ledger=ledger,
            num_bins=binning.num_bins,
        )
        if report is not None:
            result.phases.append(report)
        for i, bin_edges in bins.items():
            report = self._phase(
                graph, spanner, bin_edges, i, binning, dist, result
            )
            result.phases.append(report)
        if self._fault_plan is not None:
            self._finalize_faults(graph, spanner, result)
        return result

    # ------------------------------------------------------------------
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
        nodes = np.arange(graph.num_vertices, dtype=np.int64)
        alive = plan.alive_at(nodes, result.final_time)
        _prune_dead(spanner, ~alive)
        result.crashed = tuple(np.flatnonzero(~alive).tolist())
        crash_at, _ = plan.crash_schedules(nodes)
        if not (crash_at <= result.final_time).any():
            return
        edges = graph.edges_arrays()
        us, vs, ws = edges.take(alive[edges.u] & alive[edges.v])
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

    def _luby(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        seed: int,
        result: DistributedSpannerResult,
        alive: np.ndarray | None = None,
    ) -> tuple[MISMask, np.ndarray | None]:
        """One Luby MIS run on a derived graph, given as CSR arrays over
        nodes ``0..k-1``; every MIS of a build goes through here.

        Without a fault plan the run takes the engine's batch tier
        (:func:`run_luby_mis_arrays`).  With one, the hardened protocol
        runs on the event tier from the build's clock, on the nodes the
        ``(k,)`` mask ``alive`` marks, under their own ids for the plan's
        draws, and moves the clock to when the run drained.  A derived
        graph passed without ``alive`` is the conflict graph: its nodes
        are edges hosted by alive cluster heads, so they suffer the
        plan's link faults but cannot crash (a dead host already removed
        its edges).

        Counts the run into ``result``.  Returns the MIS as a mask over
        the derived graph, with the rounds and messages the caller
        charges, and the mask of the nodes still up when the run drained
        (``None`` without a fault plan).
        """
        result.mis_invocations += 1
        plan = self._fault_plan
        if plan is None:
            return run_luby_mis_arrays(indptr, indices, seed=seed), None
        k = indptr.size - 1
        if alive is None:
            plan = replace(
                plan, crash_rate=0.0, seed=plan.seed * 1_000_003 + 17
            )
            alive = np.ones(k, dtype=bool)
        sub_indptr, sub_indices, labels = induced_csr(indptr, indices, alive)
        run = run_luby_mis_event(
            (sub_indptr, sub_indices),
            seed=seed,
            plan=plan,
            fault_labels=dict(enumerate(labels.tolist())),
            t0=result.final_time,
            # Event volume grows with the node count; keep the default
            # ceiling for small runs but scale it for n >= 10^4 builds.
            max_events=max(5_000_000, 3_000 * k),
        )
        result.final_time = run.t_end
        result.retransmissions += run.result.retransmissions
        result.recovery_rounds += run.result.recovery_rounds
        chosen = np.zeros(k, dtype=bool)
        chosen[labels[np.fromiter(run.independent_set, np.int64)]] = True
        survivors = np.zeros(k, dtype=bool)
        survivors[labels[np.asarray(run.alive, dtype=np.int64)]] = True
        mis = MISMask(chosen, run.result.rounds, run.result.messages)
        return mis, survivors

    def _recover_cover(
        self,
        spanner: Graph,
        radius: float,
        centers: np.ndarray,
        alive: np.ndarray,
        index: int,
        k_cluster: int,
        result: DistributedSpannerResult,
    ) -> np.ndarray:
        """Absorb the crashes of a cover MIS run on the event tier.

        Prunes the spanner edges of every node ``alive`` leaves out,
        then promotes replacement centers for the alive nodes the
        crashes cut off from every center -- a local O(1)-round
        operation, charged to the ledger as ``cover.recover``.  Returns
        the final centers, ascending.
        """
        _prune_dead(spanner, ~alive)
        promoted = promote_uncovered(spanner, radius, centers, alive)
        if not promoted.size:
            return centers
        result.recovery_rounds += 1
        result.ledger.charge(
            index,
            "cover.recover",
            k_cluster,
            messages=int(promoted.size),
            detail=f"{promoted.size} centers promoted after crashes",
        )
        return np.union1d(centers, promoted)

    def _phase(
        self,
        graph: Graph,
        spanner: Graph,
        bin_edges: EdgeArrays,
        index: int,
        binning: EdgeBinning,
        dist: DistanceOracle,
        result: DistributedSpannerResult,
    ) -> PhaseReport:
        """One long-edge phase: the sequential phase's five steps, each
        charged its gather, with an MIS of ``J`` for step i and of the
        conflict graph for step v.  Under a fault plan the nodes down
        at the phase's start lose their spanner edges first, and the bin
        keeps only the edges whose ends are up after the cover's run."""
        params = self.params
        ledger = result.ledger
        n = graph.num_vertices
        w_prev = binning.boundary(index - 1)
        w_cur = binning.boundary(index)
        radius = params.delta * w_prev
        k_cluster = params.cluster_hop_bound(index, n)
        k_graph = params.cluster_graph_hop_bound(index, n)
        k_query = params.query_hop_bound()
        idle = PhaseReport(index, w_prev, w_cur, num_bin_edges=0)

        alive = None
        if self._fault_plan is not None:
            alive = self._fault_plan.alive_at(
                np.arange(n, dtype=np.int64), result.final_time
            )
            _prune_dead(spanner, ~alive)
            if not alive.any():
                return idle

        # ---- Step (i): cluster cover via MIS of J (Theorem 16) -------
        prox_indptr, prox_indices = self._proximity_graph(spanner, radius)
        ledger.charge(
            index, "cover.gather", k_cluster,
            detail=f"G' within {k_cluster} hops",
        )
        mis, alive = self._luby(
            prox_indptr, prox_indices, self._seed * 1_000_003 + index,
            result, alive,
        )
        ledger.charge(
            index, "cover.mis", mis.engine_rounds * k_cluster,
            messages=mis.messages,
            detail=f"{mis.engine_rounds} J-rounds x {k_cluster} hop factor",
        )
        centers = np.flatnonzero(mis.chosen)
        universe = None
        if alive is not None:
            centers = self._recover_cover(
                spanner, radius, centers, alive, index, k_cluster, result
            )
            if not alive.any():
                return idle
            universe = np.flatnonzero(alive)
            # Crashed endpoints take their pending bin edges with them.
            bin_edges = bin_edges.take(alive[bin_edges.u] & alive[bin_edges.v])
        cover = cover_from_centers(spanner, radius, centers, vertices=universe)
        ledger.charge(index, "cover.attach", k_cluster, detail="join center")
        if not bin_edges.w.size:
            return replace(idle, num_clusters=cover.num_clusters)

        # ---- Step (ii): query selection (Theorem 17) -----------------
        covered = split_covered(
            bin_edges, spanner, dist, alpha=params.alpha, theta=params.theta
        )
        selection = select_query_edges(
            bin_edges.take(~covered), cover, params.t
        )
        queries = selection.queries
        ledger.charge(
            index, "select.gather", 1 + k_cluster,
            detail="cluster heads view E_i[Ca,*]",
        )

        # ---- Step (iii): cluster graph (Theorem 18) -------------------
        # Built only around the queries, which is all steps iv and v read.
        cluster_graph = build_cluster_graph(
            spanner, cover, w_prev, params.delta,
            queries=queries, radius=query_reach(queries, params, w_cur),
        )
        ledger.charge(
            index, "hgraph.gather", k_graph, detail=f"G' within {k_graph} hops"
        )

        # ---- Step (iv): queries (Theorem 19) --------------------------
        added = queries.take(
            answer_spanner_queries(cluster_graph, queries, params.t)
        )
        spanner.add_weighted_edges_arrays(*added)
        ledger.charge(
            index, "query.gather", k_query,
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
            mis, _ = self._luby(
                c_indptr, c_indices, self._seed * 2_000_003 + index, result
            )
            ledger.charge(
                index, "redundant.mis", mis.engine_rounds * k_query,
                messages=mis.messages,
                detail=f"{mis.engine_rounds} J-rounds x {k_query} hop factor",
            )
            removed = remove_unchosen(
                spanner, added, nodes, np.flatnonzero(mis.chosen)
            )
        ledger.charge(
            index, "redundant.gather", k_query, detail="pair discovery"
        )

        return PhaseReport.of_steps(
            index, binning, bin_edges, covered, cover, selection,
            cluster_graph, added, removed,
        )
