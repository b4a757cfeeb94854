"""Graphs as :mod:`networkx` graphs, for the tests that check paths,
components and MSTs against networkx's own algorithms."""

from __future__ import annotations

import networkx as nx


def to_networkx(graph) -> nx.Graph:
    """``graph`` as an ``nx.Graph`` on the same vertices, with ``weight``
    edge attributes."""
    out = nx.Graph()
    out.add_nodes_from(graph.vertices())
    out.add_weighted_edges_from(graph.edges())
    return out
