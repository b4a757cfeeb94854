"""Spanner quality measurement: stretch, degree, lightness, power cost.

These are the quantities the paper's three theorems bound:

* **stretch** (Theorem 10) -- verified *exactly*: a subgraph ``G'`` is a
  t-spanner of ``G`` iff every *edge* ``{u,v}`` of ``G`` has
  ``sp_{G'}(u, v) <= t * w(u, v)`` (any path factors into edges), so it
  suffices to compare shortest-path distances in ``G'`` against single-edge
  weights in ``G``;
* **maximum degree** (Theorem 11);
* **lightness** ``w(G') / w(MST(G))`` (Theorem 13);
* **power cost** ``sum_u max_{v in N(u)} w(u, v)`` (Section 1.6(3)).

Everything here is an array kernel over :meth:`Graph.csr` /
:meth:`Graph.edges_arrays` (no per-vertex dicts anywhere).  Stretch is
one :func:`repro.graphs.paths.pair_distances` call over the base edges
without a cutoff: edges whose endpoints sit in different spanner
components are ``inf`` by the component labelling, and the rest are
searched at the spanner's longest edge, escalating only the edges left
unresolved with a doubled cutoff.  A certificate path stays inside a
small ball around its edge, so most edges resolve on the first rung and
only the rest pay for wider searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphError
from .graph import Graph
from .mst import mst_weight
from .paths import multi_source_distances, pair_distances, source_block_size

__all__ = [
    "StretchReport",
    "measure_stretch",
    "lightness",
    "power_cost",
    "hop_diameter",
    "SpannerQuality",
    "assess",
]


@dataclass(frozen=True)
class StretchReport:
    """Exact stretch measurement of a spanner against its base graph.

    Attributes
    ----------
    max_stretch:
        ``max over edges {u,v} of G`` of ``sp_{G'}(u,v) / w_G(u,v)``;
        ``inf`` if some edge's endpoints are disconnected in the spanner.
    mean_stretch:
        Average of the per-edge ratios.
    worst_edge:
        The edge attaining ``max_stretch`` (``None`` for edgeless graphs).
    num_edges_checked:
        Number of base-graph edges examined.
    """

    max_stretch: float
    mean_stretch: float
    worst_edge: tuple[int, int] | None
    num_edges_checked: int


def measure_stretch(base: Graph, spanner: Graph) -> StretchReport:
    """Exact stretch of ``spanner`` w.r.t. ``base``.

    Both graphs must share the vertex set; ``spanner`` need not be an edge
    subgraph of ``base`` (useful when comparing unrelated topologies), but
    for the paper's algorithms it always is.
    """
    if base.num_vertices != spanner.num_vertices:
        raise GraphError(
            "vertex count mismatch: "
            f"{base.num_vertices} vs {spanner.num_vertices}"
        )
    us, vs, ws = base.edges_arrays()
    m = us.shape[0]
    if m == 0:
        return StretchReport(1.0, 1.0, None, 0)
    sp = pair_distances(spanner, us, vs)
    ratios = sp / ws
    worst_i = int(np.argmax(ratios))
    max_ratio = float(ratios[worst_i])
    return StretchReport(
        max_stretch=max_ratio,
        mean_stretch=float(ratios.mean()),
        worst_edge=(int(us[worst_i]), int(vs[worst_i])),
        num_edges_checked=m,
    )


def lightness(base: Graph, spanner: Graph) -> float:
    """Weight ratio ``w(spanner) / w(MST(base))``.

    Theorem 13 bounds this by a constant.  Returns ``inf`` when the base
    graph has an empty MST but the spanner has weight (cannot happen for
    subgraph spanners) and 1.0 when both are empty.
    """
    mst_w = mst_weight(base)
    span_w = spanner.total_weight()
    if mst_w == 0.0:
        return 1.0 if span_w == 0.0 else float("inf")
    return span_w / mst_w


def power_cost(graph: Graph) -> float:
    """Power cost ``sum_u max_{v in N(u)} w(u, v)`` (Section 1.6(3)).

    Isolated vertices contribute 0 (they need not transmit).
    """
    us, vs, ws = graph.edges_arrays()
    best = np.zeros(graph.num_vertices)
    np.maximum.at(best, us, ws)
    np.maximum.at(best, vs, ws)
    return float(best.sum())


def hop_diameter(graph: Graph) -> int:
    """Largest hop eccentricity within any connected component.

    Computed as BFS-level arrays: blocks of unweighted
    :func:`~repro.graphs.paths.multi_source_distances` rows, taking the
    largest finite entry (exact on general graphs, not just trees).
    """
    n = graph.num_vertices
    if n == 0 or graph.num_edges == 0:
        return 0
    block = source_block_size(graph)
    worst = 0.0
    for lo in range(0, n, block):
        rows = multi_source_distances(
            graph, np.arange(lo, min(lo + block, n)), unweighted=True
        )
        worst = max(worst, rows[np.isfinite(rows)].max(initial=0.0))
    return int(worst)


@dataclass(frozen=True)
class SpannerQuality:
    """One-stop quality summary used by experiments and examples.

    Attributes mirror the paper's three guarantees plus the power-cost
    extension; ``edges`` and ``avg_degree`` give sparseness context.
    """

    stretch: float
    mean_stretch: float
    max_degree: int
    avg_degree: float
    lightness: float
    weight: float
    edges: int
    power_cost_ratio: float

    def as_row(self) -> dict[str, float]:
        """Flat dict form for table rendering."""
        return {
            "stretch": self.stretch,
            "mean_stretch": self.mean_stretch,
            "max_degree": float(self.max_degree),
            "avg_degree": self.avg_degree,
            "lightness": self.lightness,
            "weight": self.weight,
            "edges": float(self.edges),
            "power_cost_ratio": self.power_cost_ratio,
        }


def assess(base: Graph, spanner: Graph) -> SpannerQuality:
    """Measure every quality dimension of ``spanner`` against ``base``."""
    report = measure_stretch(base, spanner)
    n = max(1, spanner.num_vertices)
    base_power = power_cost(base)
    ratio = (
        power_cost(spanner) / base_power if base_power > 0 else 1.0
    )
    return SpannerQuality(
        stretch=report.max_stretch,
        mean_stretch=report.mean_stretch,
        max_degree=spanner.max_degree(),
        avg_degree=2.0 * spanner.num_edges / n,
        lightness=lightness(base, spanner),
        weight=spanner.total_weight(),
        edges=spanner.num_edges,
        power_cost_ratio=ratio,
    )
