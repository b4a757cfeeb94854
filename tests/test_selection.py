"""Tests for query-edge selection (equation (1))."""

import numpy as np
import pytest
from oracles.edges import batch, tuples

from repro.core.cover import ClusterCover
from repro.core.selection import select_query_edges
from repro.exceptions import GraphError


def make_cover(assignment: dict, distances: dict, radius: float = 1.0):
    n = max(assignment) + 1
    center = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    for v, c in assignment.items():
        center[v], dist[v] = c, distances[v]
    return ClusterCover(
        radius=radius,
        centers=tuple(sorted(set(assignment.values()))),
        center=center,
        dist=dist,
    )


@pytest.fixture()
def two_clusters():
    """Clusters {0:(0,1,2)} and {10:(10,11)} with known center distances."""
    assignment = {0: 0, 1: 0, 2: 0, 10: 10, 11: 10}
    distances = {0: 0.0, 1: 0.2, 2: 0.5, 10: 0.0, 11: 0.3}
    return make_cover(assignment, distances)


def select(edges, cover, t):
    """``select_query_edges`` on a tuple list: its selection plus the
    queries keyed by cluster pair ``(a, b)``."""
    sel = select_query_edges(batch(edges), cover, t)
    return sel, {
        (int(cover.center[x]), int(cover.center[y])): (x, y, w)
        for x, y, w in tuples(sel.queries)
    }


class TestSelectQueryEdges:
    def test_single_candidate_selected(self, two_clusters):
        _, queries = select([(1, 10, 2.0)], two_clusters, 1.5)
        assert queries == {(0, 10): (1, 10, 2.0)}

    def test_minimizer_of_equation_one(self, two_clusters):
        # score = t*len - d(a,x) - d(b,y)
        # edge A: (1, 10, 2.0): 3.0 - 0.2 - 0.0 = 2.8
        # edge B: (2, 11, 1.9): 2.85 - 0.5 - 0.3 = 2.05  <- winner
        _, queries = select([(1, 10, 2.0), (2, 11, 1.9)], two_clusters, 1.5)
        assert queries[(0, 10)] == (2, 11, 1.9)

    def test_orientation_normalized(self, two_clusters):
        """Edge given as (y, x) still keys on (min_center, max_center)
        with x aligned to the first cluster."""
        _, queries = select([(10, 1, 2.0)], two_clusters, 1.5)
        (key, (x, y, _)), = queries.items()
        assert key == (0, 10)
        assert two_clusters.center_of(x) == 0
        assert two_clusters.center_of(y) == 10

    def test_same_cluster_edge_rejected(self, two_clusters):
        with pytest.raises(GraphError, match="both endpoints"):
            select([(0, 1, 2.0)], two_clusters, 1.5)

    def test_rejects_t_below_one(self, two_clusters):
        with pytest.raises(GraphError):
            select([(1, 10, 2.0)], two_clusters, 0.9)

    def test_deterministic_tie_break(self, two_clusters):
        # Equal scores: d(a,1)=0.2 vs d... craft equal entries.
        edges = [(1, 11, 2.0), (2, 10, 2.0)]
        # scores: 3.0-0.2-0.3=2.5 and 3.0-0.5-0.0=2.5 -> tie on score;
        # tie-break by (x, y): (1, 11) < (2, 10).
        _, queries = select(edges, two_clusters, 1.5)
        assert queries[(0, 10)] == (1, 11, 2.0)

    def test_tie_on_score_and_x_broken_by_y(self):
        # d(11) == d(12), so (1, 12) -- given as (12, 1) -- and (1, 11)
        # tie on score and on x once oriented; the lower y wins.
        cover = make_cover(
            {0: 0, 1: 0, 10: 10, 11: 10, 12: 10},
            {0: 0.0, 1: 0.2, 10: 0.0, 11: 0.3, 12: 0.3},
        )
        _, queries = select([(12, 1, 2.0), (1, 11, 2.0)], cover, 1.5)
        assert queries == {(0, 10): (1, 11, 2.0)}

    def test_multiple_cluster_pairs(self):
        assignment = {0: 0, 1: 1, 2: 2}
        distances = {0: 0.0, 1: 0.0, 2: 0.0}
        cover = make_cover(assignment, distances)
        edges = [(0, 1, 1.0), (1, 2, 1.1), (0, 2, 1.2)]
        sel, queries = select(edges, cover, 1.5)
        assert len(queries) == 3
        assert sel.max_queries_per_cluster == 2

    def test_empty_candidates(self, two_clusters):
        sel, queries = select([], two_clusters, 1.5)
        assert queries == {} and sel.max_queries_per_cluster == 0

    def test_edges_listing_deterministic(self, two_clusters):
        sel, queries = select([(1, 10, 2.0), (2, 11, 1.9)], two_clusters, 1.5)
        assert tuples(sel.queries) == [queries[k] for k in sorted(queries)]
