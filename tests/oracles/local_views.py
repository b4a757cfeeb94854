"""Locality verification: node decisions from k-hop views only.

The distributed algorithm's correctness rests on every per-node decision
being computable from a bounded-hop neighborhood (Theorems 9, 14, 16-19).
This module reconstructs, for a given node, the exact information the
LOCAL-model gathers would deliver, and recomputes decisions from that
restricted view.  The test-suite compares these against the global run --
the executable counterpart of the paper's locality arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracles.covered import is_covered
from oracles.paths import k_hop_neighborhood

from repro.core.oracle import DistanceOracle
from repro.graphs.graph import Graph
from repro.params import SpannerParams


@dataclass(frozen=True)
class LocalView:
    """What one node knows after a k-hop gather.

    Attributes
    ----------
    node:
        The observing node.
    hops:
        Gather radius used.
    vertices:
        Vertices within ``hops`` of ``node`` in the communication graph.
    spanner_view:
        Subgraph of the partial spanner induced by ``vertices``
        (vertex ids preserved; everything else isolated).
    graph_view:
        Subgraph of the network graph induced by ``vertices``.
    """

    node: int
    hops: int
    vertices: frozenset[int]
    spanner_view: Graph
    graph_view: Graph


def gather_local_view(
    graph: Graph, spanner: Graph, node: int, hops: int
) -> LocalView:
    """Simulate a ``hops``-round gather for ``node``.

    The view contains exactly the facts flooding would deliver: the
    network topology and partial-spanner edges among vertices within
    ``hops`` of ``node``.
    """
    ball = k_hop_neighborhood(graph, node, hops)
    return LocalView(
        node=node,
        hops=hops,
        vertices=frozenset(ball),
        spanner_view=spanner.subgraph(ball),
        graph_view=graph.subgraph(ball),
    )


def local_component_of_short_edges(
    graph: Graph, short_edges: list[tuple[int, int, float]], node: int
) -> list[int]:
    """Phase 0 locality: the node's ``G_0`` component from a 1-hop view.

    Lemma 1 implies the component lies inside the node's closed
    neighborhood, so a single round of flooding incident ``E_0`` edges
    suffices for every node to see its whole component.  Returns the
    component members (sorted) computed *only* from 1-hop information.
    """
    view = gather_local_view(graph, graph, node, 1)
    visible = {
        (u, v)
        for u, v, _ in short_edges
        if u in view.vertices and v in view.vertices
    }
    adjacency: dict[int, set[int]] = {}
    for u, v in visible:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    component = {node}
    frontier = [node]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency.get(current, ()):  # BFS over local G_0 facts
            if nxt not in component:
                component.add(nxt)
                frontier.append(nxt)
    return sorted(component)


def covered_decision_from_view(
    view: LocalView,
    u: int,
    v: int,
    length: float,
    dist: DistanceOracle,
    params: SpannerParams,
) -> bool:
    """Covered-edge test evaluated on a local view only.

    A witness ``z`` is a spanner neighbor of ``u`` or ``v``; spanner
    neighbors are 1 hop away, so a view of radius >= 1 around either
    endpoint decides the test exactly -- this function exists so tests
    can confirm that.
    """
    return is_covered(
        u,
        v,
        length,
        view.spanner_view,
        dist,
        alpha=params.alpha,
        theta=params.theta,
    )
