"""Tests for the disjoint-set union structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs.unionfind import UnionFind


class TestBasics:
    def test_initial_singletons(self):
        dsu = UnionFind(4)
        assert len(dsu.groups()) == 4
        assert all(dsu.find(i) == i for i in range(4))

    def test_union_merges(self):
        dsu = UnionFind(4)
        assert dsu.union(0, 1) is True
        assert dsu.find(0) == dsu.find(1)
        assert len(dsu.groups()) == 3

    def test_union_idempotent(self):
        dsu = UnionFind(4)
        dsu.union(0, 1)
        assert dsu.union(1, 0) is False
        assert len(dsu.groups()) == 3

    def test_transitivity(self):
        dsu = UnionFind(5)
        dsu.union(0, 1)
        dsu.union(1, 2)
        assert dsu.find(0) == dsu.find(2)
        assert dsu.find(0) != dsu.find(3)

    def test_groups(self):
        dsu = UnionFind(4)
        dsu.union(0, 2)
        groups = dsu.groups()
        assert sorted(map(sorted, groups.values())) == [[0, 2], [1], [3]]

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            UnionFind(3).find(3)

    def test_rejects_negative_size(self):
        with pytest.raises(GraphError):
            UnionFind(-1)

    def test_len(self):
        assert len(UnionFind(7)) == 7


class NaiveDSU:
    """Reference implementation: explicit set partition."""

    def __init__(self, n):
        self.sets = [{i} for i in range(n)]

    def find_set(self, x):
        for s in self.sets:
            if x in s:
                return s
        raise AssertionError

    def union(self, x, y):
        sx, sy = self.find_set(x), self.find_set(y)
        if sx is sy:
            return
        self.sets.remove(sy)
        sx |= sy


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_matches_naive_partition(n, ops):
    """Property: DSU partition equals a naive set-merge partition."""
    dsu = UnionFind(n)
    naive = NaiveDSU(n)
    for a, b in ops:
        a, b = a % n, b % n
        dsu.union(a, b)
        naive.union(a, b)
    for a in range(n):
        for b in range(n):
            same = dsu.find(a) == dsu.find(b)
            assert same == (naive.find_set(a) is naive.find_set(b))
    assert len(dsu.groups()) == len(naive.sets)
