"""Integration tests for the distributed relaxed greedy algorithm."""

import hashlib
import math

import pytest
from oracles.local_views import (
    covered_decision_from_view,
    gather_local_view,
    local_component_of_short_edges,
)

from repro.core.relaxed_greedy import RelaxedGreedySpanner
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.exceptions import GraphError, ParameterError
from repro.experiments.failures import fault_scenario
from repro.experiments.workloads import make_workload
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import lightness, measure_stretch
from repro.graphs.build import build_qubg, build_udg
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.params import SpannerParams


@pytest.fixture(scope="module")
def dist_build(medium_udg, medium_points, params_half):
    return DistributedRelaxedGreedy(params_half, seed=5).build(
        medium_udg, medium_points.distance
    )


class TestGuarantees:
    def test_stretch(self, dist_build, medium_udg, params_half):
        stretch = measure_stretch(medium_udg, dist_build.spanner).max_stretch
        assert stretch <= params_half.t * (1.0 + 1e-9)

    def test_degree(self, dist_build):
        assert dist_build.spanner.max_degree() <= 10

    def test_lightness(self, dist_build, medium_udg):
        assert lightness(medium_udg, dist_build.spanner) <= 4.0

    def test_subgraph_of_input(self, dist_build, medium_udg):
        assert dist_build.spanner.is_subgraph_of(medium_udg)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multiple_seeds(self, seed, params_half):
        points = uniform_points(80, seed=seed + 100)
        graph = build_udg(points)
        build = DistributedRelaxedGreedy(params_half, seed=seed).build(
            graph, points.distance
        )
        stretch = measure_stretch(graph, build.spanner).max_stretch
        assert stretch <= params_half.t * (1.0 + 1e-9)

    def test_alpha_ubg(self, params_half):
        points = uniform_points(80, seed=9)
        alpha = 0.7
        graph = build_qubg(points, alpha)
        params = SpannerParams.from_epsilon(0.5, alpha=alpha)
        build = DistributedRelaxedGreedy(params, seed=2).build(
            graph, points.distance
        )
        assert (
            measure_stretch(graph, build.spanner).max_stretch
            <= params.t * (1.0 + 1e-9)
        )


class TestLedger:
    def test_rounds_positive_and_decomposed(self, dist_build):
        ledger = dist_build.ledger
        assert ledger.total_rounds > 0
        assert (
            ledger.gather_rounds() + ledger.mis_rounds()
            == ledger.total_rounds
        )

    def test_every_executed_phase_charged(self, dist_build):
        charged = {e.phase for e in dist_build.ledger.entries}
        executed = {p.index for p in dist_build.phases}
        assert executed <= charged | {0}

    def test_per_phase_gather_constant(self, dist_build):
        """Theorems 17-19: the gather cost of a phase is O(1) rounds."""
        by_phase: dict[int, int] = {}
        for entry in dist_build.ledger.entries:
            if not entry.step.endswith(".mis"):
                by_phase[entry.phase] = by_phase.get(entry.phase, 0) + entry.rounds
        assert max(by_phase.values()) <= 40  # constant band for alpha=1

    def test_mis_invocations_at_most_two_per_phase(self, dist_build):
        assert dist_build.mis_invocations <= 2 * len(dist_build.phases)

    def test_summary_renders(self, dist_build):
        text = dist_build.ledger.summary()
        assert "total rounds" in text and "cover.mis" in text

    def test_phases_within_bins(self, dist_build):
        assert len(dist_build.phases) <= dist_build.num_bins + 1

    def test_charge_rejects_negative(self):
        from repro.distributed.ledger import RoundLedger
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            RoundLedger().charge(0, "x", -1)


class TestEdgeCases:
    def test_empty_graph(self, params_half):
        build = DistributedRelaxedGreedy(params_half).build(
            Graph(0), lambda u, v: 0.0
        )
        assert build.spanner.num_vertices == 0
        assert build.total_rounds == 0

    def test_edgeless_graph(self, params_half):
        build = DistributedRelaxedGreedy(params_half).build(
            Graph(5), lambda u, v: 10.0
        )
        assert build.spanner.num_edges == 0

    def test_single_edge(self, params_half):
        from repro.geometry.points import PointSet

        points = PointSet([[0.0, 0.0], [0.5, 0.0]])
        graph = build_udg(points)
        build = DistributedRelaxedGreedy(params_half).build(
            graph, points.distance
        )
        assert build.spanner.has_edge(0, 1)

    def test_overlong_edge_rejected(self, params_half):
        from repro.exceptions import GraphError

        g = Graph(2)
        g.add_edge(0, 1, 1.4)
        with pytest.raises(GraphError):
            DistributedRelaxedGreedy(params_half).build(g, lambda u, v: 1.4)

    def test_both_builders_reject_an_overlong_edge_alike(self, params_half):
        g = Graph(2)
        g.add_edge(0, 1, 1.5)
        messages = []
        for builder in (
            RelaxedGreedySpanner(params_half),
            DistributedRelaxedGreedy(params_half),
        ):
            with pytest.raises(GraphError) as info:
                builder.build(g, lambda u, v: 1.5)
            messages.append(str(info.value))
        assert messages == [
            "alpha-UBG edges must have length <= 1, found 1.5; "
            "rescale the instance"
        ] * 2

    def test_jobs_one_builds_like_the_default(
        self, params_half, small_udg, small_points
    ):
        default = DistributedRelaxedGreedy(params_half, seed=4).build(
            small_udg, small_points.distance
        )
        explicit = DistributedRelaxedGreedy(
            params_half, seed=4, jobs=1
        ).build(small_udg, small_points.distance)
        assert _edge_digest(explicit.spanner) == _edge_digest(default.spanner)
        assert explicit.total_rounds == default.total_rounds
        assert explicit.ledger.total_messages == default.ledger.total_messages

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_rejected(self, params_half, jobs):
        with pytest.raises(
            ParameterError, match=f"jobs must be 1, got {jobs}"
        ):
            DistributedRelaxedGreedy(params_half, jobs=jobs)


def _edge_digest(spanner):
    """Short hash of the spanner's sorted (u, v) pairs, weights left out."""
    pairs = sorted(
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v, _ in spanner.edges()
    )
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


class TestReliableBuildPins:
    """Reliable (fault-free) distributed builds against recorded values.
    The workload and the builder share one seed.  Columns: scenario, n,
    seed, edge digest, total_rounds, total messages, MIS invocations."""

    @pytest.mark.parametrize(
        "scenario, n, seed, digest, rounds, messages, mis_runs",
        [
            ("uniform", 400, 1, "1612a809cb833b6e", 717, 32, 65),
            ("clustered", 400, 2, "b3ab55bc7ee0dfc9", 1150, 604, 98),
            ("uniform", 2000, 3, "0b1f689c46150b9f", 1068, 444, 90),
        ],
    )
    def test_reliable_build_matches_recorded_values(
        self, scenario, n, seed, digest, rounds, messages, mis_runs
    ):
        workload = make_workload(scenario, n, seed=seed)
        build = DistributedRelaxedGreedy(
            SpannerParams.from_epsilon(0.5), seed=seed
        ).build(workload.graph, workload.points.distance)
        assert _edge_digest(build.spanner) == digest
        assert build.total_rounds == rounds
        assert build.ledger.total_messages == messages
        assert build.mis_invocations == mis_runs


def _ledger_digest(ledger):
    """Short hash of every ledger entry's (phase, step, rounds, messages)
    in charge order; the free-form ``detail`` text is left out."""
    rows = [
        (int(e.phase), e.step, int(e.rounds), int(e.messages))
        for e in ledger.entries
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _pinned_build(fault):
    """The reliable build at uniform n=400 (workload and builder seed 1)
    without a fault plan, or a build at uniform n=80 (workload seed 61,
    builder seed 0) under the named fault scenario, built as E11 builds."""
    params = SpannerParams.from_epsilon(0.5)
    if fault is None:
        workload = make_workload("uniform", 400, seed=1)
        builder = DistributedRelaxedGreedy(params, seed=1)
    else:
        workload = make_workload("uniform", 80, seed=61)
        builder = DistributedRelaxedGreedy(
            params, seed=0, fault_plan=fault_scenario(fault).plan(0)
        )
    return builder, workload


class TestLedgerPins:
    """Whole ledgers against values recorded before the distributed phase
    shared one MIS runner: a charge that moves, changes its phase or step,
    or changes its rounds or messages moves the digest, where the total
    pins above would not notice a reordered or relabelled charge.
    Columns: fault scenario, ledger digest, ledger entries, final_time,
    crashed nodes, MIS invocations."""

    @pytest.mark.parametrize(
        "fault, digest, entries, final_time, crashed, mis_runs",
        [
            (None, "bfb62d5bf4faec12", 413, 0.0, (), 65),
            ("lossy", "b0fca767a3de0867", 291, 400.2586, (), 43),
            (
                "crashy", "28e8edf2171db798", 286, 47.61064749714307,
                (23, 41, 51, 55, 75), 42,
            ),
        ],
    )
    def test_ledger_matches_recorded_entries(
        self, fault, digest, entries, final_time, crashed, mis_runs
    ):
        builder, workload = _pinned_build(fault)
        build = builder.build(workload.graph, workload.points.distance)
        assert _ledger_digest(build.ledger) == digest
        assert len(build.ledger.entries) == entries
        assert build.final_time == final_time
        assert build.crashed == crashed
        assert build.mis_invocations == mis_runs


class TestBuilderState:
    def test_a_build_leaves_the_builder_unchanged(self):
        """One builder is reusable across builds: the simulation clock
        and the fault state live on the build, not on the builder."""
        builder, workload = _pinned_build("crashy")
        before = dict(vars(builder))
        first = builder.build(workload.graph, workload.points.distance)
        assert vars(builder) == before
        second = builder.build(workload.graph, workload.points.distance)
        assert _edge_digest(second.spanner) == _edge_digest(first.spanner)
        assert second.final_time == first.final_time
        assert second.crashed == first.crashed


class TestLocality:
    """Executable versions of the paper's locality arguments."""

    def test_phase0_component_from_one_hop(self, small_udg, params_half):
        """Theorem 14: every node reconstructs its G_0 component from a
        1-hop view, exactly matching the global component."""
        w0 = params_half.w0(small_udg.num_vertices)
        short = [
            (u, v, w) for u, v, w in small_udg.edges() if w <= w0
        ]
        g0 = Graph(small_udg.num_vertices)
        for u, v, w in short:
            g0.add_edge(u, v, w)
        global_comps = {
            frozenset(c) for c in connected_components(g0) if len(c) > 1
        }
        for comp in global_comps:
            for node in comp:
                local = local_component_of_short_edges(
                    small_udg, short, node
                )
                assert frozenset(local) == comp

    def test_covered_decision_local(
        self, medium_udg, medium_points, medium_build, params_half
    ):
        """The covered test needs only a 1-hop spanner view around an
        endpoint: local decision == global decision."""
        from oracles.covered import is_covered

        spanner = medium_build.spanner
        checked = 0
        for u, v, w in list(medium_udg.edges())[:60]:
            if spanner.has_edge(u, v):
                continue
            global_dec = is_covered(
                u, v, w, spanner, medium_points.distance,
                alpha=params_half.alpha, theta=params_half.theta,
            )
            view = gather_local_view(medium_udg, spanner, u, 1)
            view_v = gather_local_view(medium_udg, spanner, v, 1)
            merged = view.spanner_view.copy()
            for a, b, wt in view_v.spanner_view.edges():
                merged.add_edge(a, b, wt)
            local_dec = is_covered(
                u, v, w, merged, medium_points.distance,
                alpha=params_half.alpha, theta=params_half.theta,
            )
            assert local_dec == global_dec
            checked += 1
        assert checked > 0

    def test_local_view_contents(self, medium_udg, medium_build):
        view = gather_local_view(medium_udg, medium_build.spanner, 0, 2)
        from oracles.paths import k_hop_neighborhood

        assert view.vertices == frozenset(
            k_hop_neighborhood(medium_udg, 0, 2)
        )
        for u, v, _ in view.spanner_view.edges():
            assert u in view.vertices and v in view.vertices
            assert medium_build.spanner.has_edge(u, v)

    def test_covered_decision_from_view_helper(
        self, medium_udg, medium_points, medium_build, params_half
    ):
        view = gather_local_view(medium_udg, medium_build.spanner, 0, 1)
        for v, w in list(medium_udg.neighbor_items(0))[:3]:
            decision = covered_decision_from_view(
                view, 0, v, w, medium_points.distance, params_half
            )
            assert isinstance(decision, bool)


class TestTheorem9HopBound:
    def test_query_certificates_within_hop_bound(
        self, medium_udg, medium_points, params_half
    ):
        """Theorem 9: when sp_H(x,y) <= t|xy|, a witness path exists
        within O(1) hops of x in G.  We verify the weaker executable
        form: the G-shortest path certifying sp_G'(x,y) <= t|xy| uses
        few hops."""
        from oracles.paths import bfs_hops
        from repro.graphs.paths import dijkstra

        build = DistributedRelaxedGreedy(params_half, seed=6).build(
            medium_udg, medium_points.distance
        )
        spanner = build.spanner
        hop_bound = params_half.query_hop_bound() + math.ceil(
            2 * params_half.t / params_half.alpha
        )
        checked = 0
        for u, v, w in list(medium_udg.edges())[:40]:
            if spanner.has_edge(u, v):
                continue
            # certifying path exists within t*w; its hops in G are bounded
            dist = dijkstra(spanner, u, cutoff=params_half.t * w)
            if v not in dist:
                continue
            hops = bfs_hops(medium_udg, u, max_hops=hop_bound)
            assert v in hops
            checked += 1
        assert checked > 0
