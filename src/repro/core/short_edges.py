"""Phase 0: processing the short edges ``E_0`` (Section 2.1).

``G_0`` is the subgraph of edges no longer than ``W_0 = alpha/n``.  Since
a connected component of ``G_0`` has at most ``n`` vertices and each hop
is at most ``alpha/n``, any two vertices of a component are within
``(n-1) * alpha/n < alpha`` of each other -- so every component induces a
clique of the alpha-UBG (Lemma 1).  ``PROCESS-SHORT-EDGES`` therefore runs
``SEQ-GREEDY`` on each component's clique and unions the outputs, giving
``G'_0`` with all three spanner properties restricted to ``E_0``
(Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import GraphError
from ..graphs.components import connected_components
from ..graphs.graph import EdgeArrays, Graph
from .covered import DistanceOracle
from .seq_greedy import GreedyStats, greedy_spanner_of_clique

__all__ = ["ShortEdgeOutcome", "process_short_edges"]


@dataclass(frozen=True)
class ShortEdgeOutcome:
    """Result of phase 0.

    Attributes
    ----------
    spanner:
        ``G'_0`` -- the union of per-component clique spanners, on the
        full vertex set.
    components:
        The non-singleton components of ``G_0`` that were processed.
    num_short_edges:
        ``|E_0|``.
    stats:
        Aggregated greedy work counters.
    """

    spanner: Graph
    components: tuple[tuple[int, ...], ...]
    num_short_edges: int
    stats: GreedyStats


def process_short_edges(
    graph: Graph,
    short_edges: EdgeArrays,
    dist: DistanceOracle,
    t: float,
    *,
    check_clique: bool = True,
) -> ShortEdgeOutcome:
    """Run ``PROCESS-SHORT-EDGES`` on the bin-0 edges.

    Parameters
    ----------
    graph:
        The input alpha-UBG (used to validate Lemma 1 when
        ``check_clique``).
    short_edges:
        The edges of ``E_0`` as one ``(u, v, length)`` batch.
    dist:
        Euclidean distance oracle (clique edge weights).
    t:
        Stretch parameter.
    check_clique:
        When true, assert Lemma 1 -- every component pair must be a
        network edge.  Costs one ``has_edge`` per clique pair; disable
        for very dense phase-0 components.

    Returns
    -------
    ShortEdgeOutcome
        ``G'_0`` plus bookkeeping.
    """
    if t < 1.0:
        raise GraphError(f"t must be >= 1, got {t}")
    g0 = Graph(graph.num_vertices)
    g0.add_weighted_edges_arrays(*short_edges)
    spanner = Graph(graph.num_vertices)
    stats = GreedyStats()
    processed: list[tuple[int, ...]] = []
    for component in connected_components(g0):
        if len(component) < 2:
            continue
        if check_clique:
            for i, u in enumerate(component):
                for v in component[i + 1 :]:
                    if not graph.has_edge(u, v):
                        raise GraphError(
                            f"Lemma 1 violated: component pair ({u}, {v}) "
                            "is not an edge of the input graph; the input "
                            "is not a valid alpha-UBG for this alpha"
                        )
        clique_spanner = greedy_spanner_of_clique(
            component, graph.num_vertices, dist, t, stats=stats
        )
        for u, v, w in clique_spanner.edges():
            spanner.add_edge(u, v, w)
        processed.append(tuple(component))
    return ShortEdgeOutcome(
        spanner=spanner,
        components=tuple(processed),
        num_short_edges=int(short_edges.w.size),
        stats=stats,
    )
