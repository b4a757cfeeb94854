"""Tests for mutually-redundant edge elimination (Section 2.2.5)."""

import numpy as np
import pytest
from oracles.edges import batch

from repro.core.cluster_graph import ClusterGraph
from repro.core.cover import build_cluster_cover
from repro.core.redundancy import (
    _greedy_mis,
    conflict_graph_arrays,
    find_redundant_pairs,
    remove_redundant_edges,
    remove_unchosen,
)
from repro.distributed.mis import run_luby_mis_arrays
from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def make_h(edges, n) -> ClusterGraph:
    """Wrap a hand-built H graph (cover content irrelevant for these tests)."""
    h = Graph(n)
    for u, v, w in edges:
        h.add_edge(u, v, w)
    cover = build_cluster_cover(h, 0.0)
    return ClusterGraph(
        matrix=h.csr(),
        cover=cover,
        w_prev=1.0,
        num_intra_edges=0,
        num_inter_edges=0,
    )


def pair_indices(pairs):
    """The edges ``pairs`` name as one batch, in first-seen order, and
    the pairs as index arrays ``(i, j)`` into it."""
    edges = list(dict.fromkeys(e for pair in pairs for e in pair))
    pos = {e: k for k, e in enumerate(edges)}
    i = np.array([pos[a] for a, _ in pairs], dtype=np.int64)
    j = np.array([pos[b] for _, b in pairs], dtype=np.int64)
    return batch(edges), i, j


def greedy_keys(pairs) -> set[tuple[int, int]]:
    """Edge keys the greedy MIS keeps from the conflict graph of ``pairs``."""
    added, i, j = pair_indices(pairs)
    nodes, indptr, indices = conflict_graph_arrays(added, i, j)
    kept = nodes[_greedy_mis(indptr, indices)]
    lo, hi = np.minimum(added.u, added.v), np.maximum(added.u, added.v)
    return set(zip(lo[kept].tolist(), hi[kept].tolist()))


def redundant(added, h, **kwargs) -> list[tuple[int, int]]:
    """``find_redundant_pairs`` on a tuple list, as ``(i, j)`` pairs."""
    i, j = find_redundant_pairs(batch(added), h, **kwargs)
    return list(zip(i.tolist(), j.tolist()))


def split(added, removed) -> tuple[list, list]:
    """The tuple list ``added`` split by the mask ``removed`` into
    ``(removed, kept)``, each in ``added`` order."""
    flags = removed.tolist()
    return (
        [e for e, r in zip(added, flags) if r],
        [e for e, r in zip(added, flags) if not r],
    )


class TestGreedyMis:
    def test_empty(self):
        assert greedy_keys([]) == set()

    def test_independent_and_maximal(self):
        rng = np.random.default_rng(11)
        edges = [(u, u + 1, 1.0) for u in range(0, 60, 2)]
        pairs = []
        for _ in range(70):
            i, j = rng.choice(len(edges), size=2, replace=False)
            pairs.append((edges[i], edges[j]))
        _, indptr, indices = conflict_graph_arrays(*pair_indices(pairs))
        mis = set(_greedy_mis(indptr, indices))
        for node in range(indptr.size - 1):
            nbrs = set(indices[indptr[node] : indptr[node + 1]].tolist())
            if node in mis:
                assert not nbrs & mis
            else:
                assert nbrs & mis

    def test_prefers_low_ids(self):
        assert greedy_keys([((5, 6, 1.0), (0, 1, 1.0))]) == {(0, 1)}
        # A low-keyed hub shuts out all its leaves; a high-keyed hub is
        # dropped in favor of them.
        hub, leaves = (0, 1, 1.0), [(2, 3, 1.0), (4, 5, 1.0), (6, 7, 1.0)]
        assert greedy_keys([(leaf, hub) for leaf in leaves]) == {(0, 1)}
        hub = (8, 9, 1.0)
        assert greedy_keys([(leaf, hub) for leaf in leaves]) == {
            (2, 3), (4, 5), (6, 7),
        }


class TestFindRedundantPairs:
    def test_parallel_close_edges_are_redundant(self):
        """Two nearly-parallel edges with tiny H-connections between
        endpoints satisfy both conditions."""
        # u=0, v=1 and u'=2, v'=3; H gives sp(0,2)=sp(1,3)=0.01.
        h = make_h([(0, 2, 0.01), (1, 3, 0.01)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        pairs = redundant(added, h, t1=1.2, w_cur=1.0)
        assert len(pairs) == 1

    def test_far_edges_not_redundant(self):
        h = make_h([(0, 2, 3.0), (1, 3, 3.0)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not redundant(added, h, t1=1.2, w_cur=1.0)

    def test_disconnected_endpoints_not_redundant(self):
        h = make_h([], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not redundant(added, h, t1=1.2, w_cur=1.0)

    def test_opposite_orientation_detected(self):
        """Pairing (u,v') and (v,u') must also be checked (d_J takes the
        min of the two pairings)."""
        h = make_h([(0, 3, 0.01), (1, 2, 0.01)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        pairs = redundant(added, h, t1=1.2, w_cur=1.0)
        assert len(pairs) == 1

    def test_one_sided_condition_insufficient(self):
        """Condition must hold for *both* edges: a cheap bypass for one
        edge only does not make the pair mutually redundant."""
        # sp(0,2)=0.01 but sp(1,3)=5 -> neither condition can hold.
        h = make_h([(0, 2, 0.01), (1, 3, 5.0)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not redundant(added, h, t1=1.2, w_cur=5.0)

    def test_rejects_bad_t1(self):
        h = make_h([], 2)
        with pytest.raises(GraphError):
            redundant([(0, 1, 1.0)], h, t1=1.0, w_cur=1.0)

    def test_empty_added(self):
        h = make_h([], 2)
        assert redundant([], h, t1=1.2, w_cur=1.0) == []


class TestConflictGraphAndRemoval:
    def test_conflict_graph_symmetric(self):
        added, i, j = pair_indices([((2, 3, 1.0), (1, 0, 1.0))])
        nodes, indptr, indices = conflict_graph_arrays(added, i, j)
        assert nodes.tolist() == [1, 0]  # keys (0, 1), (2, 3)
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0]

    def test_conflict_graph_empty(self):
        """No pairs gives zero nodes: one indptr entry, int64 throughout
        (the static driver builds it every phase, pairs or not)."""
        arrays = conflict_graph_arrays(*pair_indices([]))
        assert [a.tolist() for a in arrays] == [[], [0], []]
        assert all(a.dtype == np.int64 for a in arrays)

    def test_removal_keeps_counterpart(self):
        """Every removed edge must keep a surviving redundant partner
        (the Theorem 10 safety condition)."""
        h = make_h([(0, 2, 0.01), (1, 3, 0.01)], 4)
        spanner = Graph(4)
        spanner.add_edge(0, 1, 1.0)
        spanner.add_edge(2, 3, 1.0)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        outcome = remove_redundant_edges(
            spanner, batch(added), h, t1=1.2, w_cur=1.0
        )
        removed, kept = split(added, outcome.removed)
        assert len(removed) == 1
        assert len(kept) == 1
        pairs = [
            (added[i], added[j])
            for i, j in redundant(added, h, t1=1.2, w_cur=1.0)
        ]
        kept = set(kept)
        for edge in removed:
            assert any(
                (edge == a and b in kept) or (edge == b and a in kept)
                for a, b in pairs
            )
        # spanner mutated accordingly
        assert spanner.num_edges == 1

    def test_no_pairs_no_removal(self):
        h = make_h([], 4)
        spanner = Graph(4)
        spanner.add_edge(0, 1, 1.0)
        outcome = remove_redundant_edges(
            spanner, batch([(0, 1, 1.0)]), h, t1=1.2, w_cur=1.0
        )
        assert not outcome.removed.any() and spanner.num_edges == 1

    def test_remove_unchosen_matches_keys_either_orientation(self):
        """An added edge named high endpoint first still matches its
        node key; unimplicated edges stay, and both lists keep the
        order of ``added``."""
        added = [(3, 2, 1.0), (4, 5, 1.0), (1, 0, 1.0), (7, 6, 1.0)]
        spanner = Graph(8)
        for u, v, w in added:
            spanner.add_edge(u, v, w)
        i, j = np.array([0, 3]), np.array([2, 0])
        nodes, _, _ = conflict_graph_arrays(batch(added), i, j)
        assert nodes.tolist() == [2, 0, 3]  # keys (0, 1), (2, 3), (6, 7)
        removed, kept = split(
            added, remove_unchosen(spanner, batch(added), nodes, [0, 2])
        )
        assert removed == [(3, 2, 1.0)]
        assert kept == [(4, 5, 1.0), (1, 0, 1.0), (7, 6, 1.0)]
        assert spanner.edge_set() == {(4, 5), (0, 1), (6, 7)}

    def test_luby_choice_keeps_counterpart(self):
        """The distributed driver drops Luby's complement through the
        same helper; every dropped edge keeps a surviving partner."""
        rng = np.random.default_rng(4)
        added = [(u, u + 1, 1.0) for u in range(0, 40, 2)]
        i, j = np.array(
            [rng.choice(len(added), size=2, replace=False) for _ in range(45)]
        ).T
        pairs = [(added[a], added[b]) for a, b in zip(i, j)]
        spanner = Graph(40)
        for u, v, w in added:
            spanner.add_edge(u, v, w)
        nodes, indptr, indices = conflict_graph_arrays(batch(added), i, j)
        mis = run_luby_mis_arrays(indptr, indices, seed=3)
        chosen = np.flatnonzero(mis.chosen)
        removed, kept = split(
            added, remove_unchosen(spanner, batch(added), nodes, chosen)
        )
        assert removed
        assert len(removed) == len(nodes) - len(chosen)
        assert sorted(spanner.edges()) == sorted(kept)
        survivors = set(kept)
        for edge in removed:
            assert any(
                (edge == a and b in survivors) or (edge == b and a in survivors)
                for a, b in pairs
            )

    def _removal(self, h_edges, added):
        h = make_h(h_edges, 6)
        spanner = Graph(6)
        for u, v, w in added:
            spanner.add_edge(u, v, w)
        outcome = remove_redundant_edges(
            spanner, batch(added), h, t1=1.15, w_cur=1.0
        )
        removed, kept = split(added, outcome.removed)
        assert sorted(spanner.edges()) == sorted(kept)
        return outcome.num_pairs, removed, kept

    def test_conflict_path_keeps_both_ends(self):
        """a-b and b-c are redundant pairs, a-c is not (its H detours
        sum to 1.2 > t1): the greedy MIS in key order keeps a and c."""
        a, b, c = (0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)
        h_edges = [(0, 2, 0.05), (1, 3, 0.05), (2, 4, 0.05), (3, 5, 0.05)]
        num_pairs, removed, kept = self._removal(h_edges, [c, b, a])
        assert num_pairs == 2
        assert removed == [b]
        assert kept == [c, a]

    def test_triangle_keeps_lowest_key(self):
        """All three pairs are redundant; only the lowest key survives,
        whatever order the phase added the edges in."""
        a, b, c = (0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)
        h_edges = [
            (0, 2, 0.05), (1, 3, 0.05), (2, 4, 0.05),
            (3, 5, 0.05), (0, 4, 0.05), (1, 5, 0.05),
        ]
        num_pairs, removed, kept = self._removal(h_edges, [c, b, a])
        assert num_pairs == 3
        assert removed == [c, b]
        assert kept == [a]
