"""k-fault-tolerant spanners (Section 1.6, extension 1).

The paper notes that ideas from Czumaj--Zhao [2] extend the relaxed greedy
algorithm to produce k-vertex/k-edge fault-tolerant t-spanners in
polylogarithmic rounds, with details omitted for space.  This module
supplies the reproduction's working version of that extension:

* :func:`multipass_fault_tolerant_spanner` -- the general-``k``
  construction used by experiments: ``k + 1`` edge-disjoint passes of the
  relaxed greedy builder, unioned.  Each pass certifies stretch using
  edges disjoint from all earlier passes, so ``k`` edge faults leave at
  least one pass intact; vertex faults are validated empirically;
* :func:`fault_injection_report` -- randomized fault injection measuring
  surviving stretch, the construction's acceptance check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core.covered import DistanceOracle
from ..core.oracle import as_oracle
from ..core.relaxed_greedy import RelaxedGreedySpanner
from ..exceptions import GraphError
from ..graphs.analysis import measure_stretch
from ..graphs.graph import Graph
from ..params import SpannerParams

__all__ = [
    "FaultMaskedOracle",
    "multipass_fault_tolerant_spanner",
    "FaultInjectionReport",
    "fault_injection_report",
    "is_k_vertex_fault_tolerant",
]


class FaultMaskedOracle:
    """Distance oracle with a set of failed vertices masked to ``inf``.

    Any pair touching a failed vertex reports ``inf``; all other pairs
    defer to the wrapped base oracle (upgraded via
    :func:`repro.core.oracle.as_oracle`).  Under the covered-edge filter
    this excludes failed vertices as Lemma 3 witnesses -- an ``inf``
    witness leg fails both the ``|uz| <= |uv|`` precondition and the
    ``|vz| <= alpha`` network-edge condition -- which is how
    fault-injection analyses probe a spanner's filter decisions after
    faults without rebuilding the point set.  Scalar and ``pairs``
    queries agree bit-for-bit whenever the base oracle's do (masked
    entries are the same literal ``inf`` on both paths).
    """

    __slots__ = ("_base", "_faults", "_fault_arr")

    def __init__(self, base: DistanceOracle, faults) -> None:
        self._base = as_oracle(base)
        self._faults = frozenset(int(x) for x in faults)
        self._fault_arr = np.asarray(sorted(self._faults), dtype=np.int64)

    @property
    def faults(self) -> frozenset:
        """The masked vertex ids."""
        return self._faults

    def __call__(self, u: int, v: int) -> float:
        if u in self._faults or v in self._faults:
            return float("inf")
        return self._base(u, v)

    def pairs(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = np.asarray(self._base.pairs(u, v), dtype=np.float64)
        if self._fault_arr.size:
            masked = np.isin(u, self._fault_arr) | np.isin(v, self._fault_arr)
            if masked.any():
                out = np.where(masked, np.inf, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultMaskedOracle(faults={sorted(self._faults)})"


def multipass_fault_tolerant_spanner(
    graph: Graph,
    dist: DistanceOracle,
    epsilon: float,
    k: int,
    *,
    alpha: float = 1.0,
    dim: int = 2,
    pass_epsilon_factor: float = 1.0,
) -> Graph:
    """Union of ``k + 1`` edge-disjoint relaxed greedy spanners.

    Pass ``j`` runs the relaxed greedy builder on ``graph`` minus every
    edge selected by passes ``< j``; the union tolerates ``k`` *edge*
    faults by construction (each pass's certificates are edge-disjoint).
    *Vertex* faults can still sever certificates that share an interior
    vertex across passes; on adversarial workloads this shows up as a
    marginal stretch excess under faults.  ``pass_epsilon_factor < 1``
    tightens each pass (pass stretch ``1 + factor*epsilon``) so surviving
    certificates keep slack to absorb such detours -- the knob the
    fault-tolerant backbone example and E10's clustered rows use.
    """
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    if not 0.0 < pass_epsilon_factor <= 1.0:
        raise GraphError(
            f"pass_epsilon_factor must be in (0, 1], got {pass_epsilon_factor}"
        )
    params = SpannerParams.from_epsilon(
        epsilon * pass_epsilon_factor, alpha=alpha, dim=dim
    )
    builder = RelaxedGreedySpanner(params, check_clique=False)
    dist = as_oracle(dist)  # upgrade once; all k+1 passes share the oracle
    residual = graph.copy()
    union = Graph(graph.num_vertices)
    for _ in range(k + 1):
        if residual.num_edges == 0:
            break
        result = builder.build(residual, dist)
        for u, v, w in result.spanner.edges():
            union.add_edge(u, v, w)
            residual.remove_edge(u, v)
    return union


@dataclass(frozen=True)
class FaultInjectionReport:
    """Outcome of randomized fault injection.

    Attributes
    ----------
    worst_stretch:
        Max over trials of the spanner's stretch measured against the
        base graph *after applying the same faults to both* (surviving
        pairs only).
    trials:
        Fault sets sampled.
    failures:
        Trials where the surviving spanner exceeded the threshold.
    threshold:
        Stretch bound that counted as success.
    """

    worst_stretch: float
    trials: int
    failures: int
    threshold: float

    @property
    def tolerant(self) -> bool:
        """Whether every sampled fault set preserved the guarantee."""
        return self.failures == 0


def _delete_vertices(graph: Graph, faults: set[int]) -> Graph:
    return graph.subgraph(set(graph.vertices()) - faults)


def fault_injection_report(
    base: Graph,
    spanner: Graph,
    t: float,
    k: int,
    *,
    trials: int = 30,
    seed: int | None = 0,
    tol: float = 1e-9,
) -> FaultInjectionReport:
    """Sample ``trials`` random k-vertex fault sets and measure stretch.

    For each fault set ``F`` the report compares ``spanner - F`` against
    ``base - F`` (the paper's definition: ``G'[V \\ S]`` must t-span
    ``G[V \\ S]``).
    """
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    rng = np.random.default_rng(seed)
    n = base.num_vertices
    worst = 1.0
    failures = 0
    for _ in range(max(1, trials)):
        faults = set(
            int(x) for x in rng.choice(n, size=min(k, n), replace=False)
        ) if k else set()
        reduced_base = _delete_vertices(base, faults)
        reduced_span = _delete_vertices(spanner, faults)
        report = measure_stretch(reduced_base, reduced_span)
        worst = max(worst, report.max_stretch)
        if report.max_stretch > t * (1.0 + tol):
            failures += 1
    return FaultInjectionReport(
        worst_stretch=worst, trials=max(1, trials), failures=failures,
        threshold=t,
    )


def is_k_vertex_fault_tolerant(
    base: Graph,
    spanner: Graph,
    t: float,
    k: int,
    *,
    tol: float = 1e-9,
    max_sets: int = 2000,
) -> bool:
    """Exhaustive k-vertex fault check (small instances only).

    Enumerates every fault set of size exactly ``k`` (up to ``max_sets``,
    raising if the instance is too large to enumerate) and verifies the
    paper's definition.
    """
    from math import comb

    n = base.num_vertices
    if comb(n, k) > max_sets:
        raise GraphError(
            f"C({n},{k}) fault sets exceed max_sets={max_sets}; "
            "use fault_injection_report instead"
        )
    for faults in itertools.combinations(range(n), k):
        fault_set = set(faults)
        reduced_base = _delete_vertices(base, fault_set)
        reduced_span = _delete_vertices(spanner, fault_set)
        if measure_stretch(reduced_base, reduced_span).max_stretch > t * (
            1.0 + tol
        ):
            return False
    return True
