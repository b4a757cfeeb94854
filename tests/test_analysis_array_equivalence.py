"""Array analysis kernels pinned against scalar reference implementations.

The analytics layer (measure_stretch / assess / hop_diameter / mst_weight
/ power_cost / connected_components) now runs on CSR array kernels; these
tests re-implement the pre-array scalar semantics with the package's own
dict-based primitives and require exact (or float-equal) agreement on
random geometric graphs across dimensions, plus the tricky regimes:
disconnected spanners (inf stretch), edgeless graphs and sparse
sub-spanners with large detours.
"""

import math

import pytest
from oracles.paths import bfs_hops

from repro.baselines.proximity import gabriel_graph, relative_neighborhood_graph
from repro.geometry.sampling import uniform_points
from repro.graphs.analysis import assess, hop_diameter, measure_stretch, power_cost
from repro.graphs.build import build_udg
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.mst import kruskal_mst, mst_weight
from repro.graphs.paths import dijkstra


# ----------------------------------------------------------------------
# Scalar references (the pre-array semantics, via dict primitives)
# ----------------------------------------------------------------------
def ref_measure_stretch(base: Graph, spanner: Graph):
    edges = list(base.edges())
    if not edges:
        return 1.0, 1.0, None
    worst = None
    max_ratio = 0.0
    total = 0.0
    for u, v, w in edges:
        sp = dijkstra(spanner, u, targets={v}).get(v, float("inf"))
        ratio = sp / w
        total += ratio
        if ratio > max_ratio:
            max_ratio = ratio
            worst = (u, v)
    return max_ratio, total / len(edges), worst


def ref_hop_diameter(graph: Graph) -> int:
    worst = 0
    for v in graph.vertices():
        ecc = max(bfs_hops(graph, v).values(), default=0)
        worst = max(worst, ecc)
    return worst


def ref_power_cost(graph: Graph) -> float:
    total = 0.0
    for u in graph.vertices():
        best = 0.0
        for _, w in graph.neighbor_items(u):
            best = max(best, w)
        total += best
    return total


def ref_components(graph: Graph) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        comp = sorted(bfs_hops(graph, start))
        seen.update(comp)
        comps.append(comp)
    comps.sort(key=len, reverse=True)
    return comps


def random_instance(n: int, dim: int, seed: int):
    points = uniform_points(n, dim=dim, seed=seed, expected_degree=7.0)
    base = build_udg(points)
    return base, points


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
class TestStretchEquivalence:
    def test_against_scalar_reference(self, dim, seed):
        base, points = random_instance(90, dim, seed)
        spanner = gabriel_graph(base, points)
        report = measure_stretch(base, spanner)
        max_ref, mean_ref, worst_ref = ref_measure_stretch(base, spanner)
        assert report.max_stretch == pytest.approx(max_ref, rel=1e-12)
        assert report.mean_stretch == pytest.approx(mean_ref, rel=1e-12)
        assert report.worst_edge == worst_ref
        assert report.num_edges_checked == base.num_edges

    def test_sparser_spanner_larger_detours(self, dim, seed):
        base, points = random_instance(80, dim, seed + 100)
        spanner = relative_neighborhood_graph(base, points)
        report = measure_stretch(base, spanner)
        max_ref, mean_ref, _ = ref_measure_stretch(base, spanner)
        assert report.max_stretch == pytest.approx(max_ref, rel=1e-12)
        assert report.mean_stretch == pytest.approx(mean_ref, rel=1e-12)

    def test_mst_as_spanner_stresses_limit_escalation(self, dim, seed):
        # MST shortest paths are far longer than base edges, so the
        # doubling-limit search must escalate several times and still
        # come back exact.
        base, points = random_instance(70, dim, seed + 200)
        spanner = kruskal_mst(base)
        report = measure_stretch(base, spanner)
        max_ref, mean_ref, _ = ref_measure_stretch(base, spanner)
        assert report.max_stretch == pytest.approx(max_ref, rel=1e-12)
        assert report.mean_stretch == pytest.approx(mean_ref, rel=1e-12)


class TestDisconnectedAndDegenerate:
    def test_disconnected_spanner_inf(self):
        base, points = random_instance(60, 2, 3)
        spanner = kruskal_mst(base)
        # Cut the forest apart: drop the heaviest forest edge.
        u, v, _ = max(spanner.edges(), key=lambda e: e[2])
        spanner.remove_edge(u, v)
        report = measure_stretch(base, spanner)
        max_ref, _, worst_ref = ref_measure_stretch(base, spanner)
        assert math.isinf(report.max_stretch) and math.isinf(max_ref)
        assert report.worst_edge == worst_ref

    def test_empty_spanner_all_inf(self):
        base, _ = random_instance(40, 2, 5)
        report = measure_stretch(base, Graph(base.num_vertices))
        assert math.isinf(report.max_stretch)
        assert math.isinf(report.mean_stretch)

    def test_edgeless_base(self):
        report = measure_stretch(Graph(5), Graph(5))
        assert report.max_stretch == 1.0
        assert report.worst_edge is None


@pytest.mark.parametrize("dim", [2, 3])
class TestAggregateKernels:
    def test_assess_matches_scalar_parts(self, dim):
        base, points = random_instance(80, dim, 11)
        spanner = gabriel_graph(base, points)
        q = assess(base, spanner)
        max_ref, mean_ref, _ = ref_measure_stretch(base, spanner)
        assert q.stretch == pytest.approx(max_ref, rel=1e-12)
        assert q.mean_stretch == pytest.approx(mean_ref, rel=1e-12)
        assert q.max_degree == spanner.max_degree()
        assert q.edges == spanner.num_edges
        ref_power_ratio = ref_power_cost(spanner) / ref_power_cost(base)
        assert q.power_cost_ratio == pytest.approx(ref_power_ratio, rel=1e-12)

    def test_power_cost(self, dim):
        base, _ = random_instance(70, dim, 13)
        assert power_cost(base) == pytest.approx(
            ref_power_cost(base), rel=1e-12
        )

    def test_mst_weight_matches_kruskal(self, dim):
        base, _ = random_instance(90, dim, 17)
        assert mst_weight(base) == pytest.approx(
            kruskal_mst(base).total_weight(), rel=1e-9
        )

    def test_hop_diameter(self, dim):
        base, _ = random_instance(60, dim, 19)
        assert hop_diameter(base) == ref_hop_diameter(base)

    def test_components_exact_structure(self, dim):
        # Sparse disconnected instance: low density leaves many islands.
        points = uniform_points(70, dim=dim, seed=23, expected_degree=1.5)
        base = build_udg(points)
        assert connected_components(base) == ref_components(base)


class TestDisconnectedAggregates:
    def make_islands(self):
        g = Graph(9)
        for a, b in ((0, 1), (1, 2), (2, 0)):  # triangle
            g.add_edge(a, b, 1.0)
        for a, b in ((3, 4), (4, 5), (5, 6)):  # path of 3 edges
            g.add_edge(a, b, 2.0)
        return g  # vertices 7, 8 isolated

    def test_components_with_isolated(self):
        g = self.make_islands()
        assert connected_components(g) == ref_components(g)
        assert connected_components(g) == [
            [3, 4, 5, 6], [0, 1, 2], [7], [8],
        ]

    def test_hop_diameter_max_component(self):
        g = self.make_islands()
        assert hop_diameter(g) == 3 == ref_hop_diameter(g)

    def test_mst_weight_forest(self):
        g = self.make_islands()
        assert mst_weight(g) == pytest.approx(2.0 + 6.0)
