"""repro: distributed (1 + eps)-spanners for quasi unit ball graphs.

Reproduction of Damian, Pandit & Pemmaraju, *Local Approximation Schemes
for Topology Control* (PODC 2006).  The package provides:

* :mod:`repro.core` -- the sequential relaxed greedy spanner (Section 2)
  and every data structure it is built from;
* :mod:`repro.distributed` -- a synchronous message-passing simulator and
  the distributed version of the algorithm (Section 3) with exact round
  accounting;
* :mod:`repro.graphs` / :mod:`repro.geometry` -- the alpha-UBG network
  model, point processes, and spanner quality measurement;
* :mod:`repro.baselines` -- classical topology-control comparators (Yao,
  Gabriel, RNG, XTC, ...);
* :mod:`repro.extensions` -- the paper's Section 1.6 extensions
  (fault tolerance, energy metrics, power cost);
* :mod:`repro.experiments` -- the E/F experiment suite of DESIGN.md.

Quickstart::

    from repro import build_spanner, build_udg, uniform_points

    pts = uniform_points(200, seed=7)
    g = build_udg(pts)
    result = build_spanner(g, pts.distance, epsilon=0.5)
    print(result.spanner.num_edges, "edges")
"""

from .exceptions import (
    GraphError,
    ParameterError,
    ProtocolError,
    ReproError,
    SimulationLimitError,
)
from .geometry import (
    EnergyMetric,
    EuclideanMetric,
    PointSet,
    clustered_points,
    corridor_points,
    grid_jitter_points,
    uniform_points,
)
from .graphs import (
    Graph,
    assess,
    build_qubg,
    build_udg,
    kruskal_mst,
    lightness,
    measure_stretch,
    mst_weight,
    power_cost,
)
from .core import (
    RelaxedGreedySpanner,
    SpannerResult,
    build_spanner,
    seq_greedy,
)
from .params import SpannerParams

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ParameterError",
    "GraphError",
    "ProtocolError",
    "SimulationLimitError",
    "PointSet",
    "EuclideanMetric",
    "EnergyMetric",
    "uniform_points",
    "clustered_points",
    "grid_jitter_points",
    "corridor_points",
    "Graph",
    "build_udg",
    "build_qubg",
    "kruskal_mst",
    "mst_weight",
    "measure_stretch",
    "lightness",
    "power_cost",
    "assess",
    "SpannerParams",
    "RelaxedGreedySpanner",
    "SpannerResult",
    "build_spanner",
    "seq_greedy",
]
