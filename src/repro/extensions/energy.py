"""Energy-metric spanners (Section 1.6, extension 2).

The paper states the relaxed greedy algorithm still yields a spanner when
edge weights are ``w(u, v) = c * |uv|^gamma`` (``c > 0``, ``gamma >= 1``)
-- the standard radio-energy model.  The construction used here rests on
the classical norm inequality: for any path ``P`` and ``gamma >= 1``,

    ``sum_i c*l_i^gamma  <=  c * (sum_i l_i)^gamma``,

so a ``t``-spanner in *length* is automatically a ``t^gamma``-spanner in
*energy*.  Running the core builder with length-stretch
``t_len = (1 + eps)^(1/gamma)`` therefore produces a ``(1+eps)``-energy
spanner while inheriting the degree bound verbatim and the weight bound in
length space.  This is the documented substitution for the paper's
omitted-for-space direct analysis (DESIGN.md); experiment E9 verifies the
resulting energy stretch, energy lightness and power cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.covered import DistanceOracle
from ..core.oracle import as_oracle
from ..core.relaxed_greedy import RelaxedGreedySpanner, SpannerResult
from ..exceptions import ParameterError
from ..geometry.metrics import EnergyMetric
from ..graphs.graph import Graph
from ..params import SpannerParams

__all__ = [
    "EnergySpannerResult",
    "EnergyCostOracle",
    "energy_cost_oracle",
    "reweight_graph",
    "build_energy_spanner",
]


class EnergyCostOracle:
    """Batched oracle reporting energy costs ``c * d(u, v)^gamma``.

    Wraps a base distance oracle (upgraded via
    :func:`repro.core.oracle.as_oracle`) and maps every distance through
    an :class:`EnergyMetric`.  Scalar and ``pairs`` queries share the
    metric's array path (``weights_of_lengths``), so they agree
    bit-for-bit per pair whenever the base oracle does -- the energy
    extension's ticket onto the flattened covered-filter witness scan.
    """

    __slots__ = ("_base", "metric")

    def __init__(
        self, base: DistanceOracle, metric: EnergyMetric | None = None
    ) -> None:
        self._base = as_oracle(base)
        self.metric = metric if metric is not None else EnergyMetric()

    def __call__(self, u: int, v: int) -> float:
        return self.metric.weight_of_length(self._base(u, v))

    def pairs(self, u, v):
        return self.metric.weights_of_lengths(self._base.pairs(u, v))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnergyCostOracle({self.metric!r})"


def energy_cost_oracle(
    dist: DistanceOracle, *, gamma: float = 2.0, c: float = 1.0
) -> EnergyCostOracle:
    """Energy-cost view of a Euclidean oracle (``w = c * |uv|^gamma``)."""
    return EnergyCostOracle(dist, EnergyMetric(gamma=gamma, c=c))


@dataclass
class EnergySpannerResult:
    """Energy-spanner build output.

    Attributes
    ----------
    length_result:
        The underlying length-space construction (its ``spanner`` carries
        Euclidean weights).
    energy_spanner:
        The same topology, reweighted by the energy metric.
    energy_base:
        The input graph reweighted by the energy metric (for stretch
        measurement).
    metric:
        The :class:`EnergyMetric` used.
    length_t:
        Length-space stretch target ``(1 + eps)^(1/gamma)`` that was run.
    """

    length_result: SpannerResult
    energy_spanner: Graph
    energy_base: Graph
    metric: EnergyMetric
    length_t: float


def reweight_graph(graph: Graph, metric: EnergyMetric) -> Graph:
    """Copy ``graph`` with each edge's Euclidean length mapped through
    ``metric`` (lengths must be the current weights)."""
    out = Graph(graph.num_vertices)
    for u, v, w in graph.edges():
        out.add_edge(u, v, metric.weight_of_length(w))
    return out


def build_energy_spanner(
    graph: Graph,
    dist: DistanceOracle,
    epsilon: float,
    *,
    gamma: float = 2.0,
    c: float = 1.0,
    alpha: float = 1.0,
    dim: int = 2,
) -> EnergySpannerResult:
    """Build a ``(1 + epsilon)``-spanner under the energy metric.

    Parameters
    ----------
    graph:
        Input alpha-UBG with Euclidean edge weights.
    dist:
        Euclidean distance oracle.
    epsilon:
        Energy-stretch slack; the output satisfies
        ``sp_energy(G', u, v) <= (1 + epsilon) * w_energy(u, v)`` for
        every edge ``{u, v}`` of ``graph``.
    gamma / c:
        Energy-metric parameters (path-loss exponent and radio constant).
    """
    if epsilon <= 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    metric = EnergyMetric(gamma=gamma, c=c)
    length_t = (1.0 + epsilon) ** (1.0 / gamma)
    length_eps = length_t - 1.0
    params = SpannerParams.from_epsilon(length_eps, alpha=alpha, dim=dim)
    result = RelaxedGreedySpanner(params).build(graph, dist)
    return EnergySpannerResult(
        length_result=result,
        energy_spanner=reweight_graph(result.spanner, metric),
        energy_base=reweight_graph(graph, metric),
        metric=metric,
        length_t=length_t,
    )
