"""Sequential-construction scaling bench.

One claim is gated here: the array-native construction core
(frontier-sharing ball growing, batched cover/cluster-graph/redundancy,
append-log edge store) builds the n = 2000 uniform workload at least 3x
faster than the earlier dict-based pipeline (1.1 s -> well under
0.55 s) and completes n = 10000 inside a fixed budget.

Wall times land in the ``results/bench`` trajectory store and are gated
against their own history (>2x slowdown fails when REPRO_BENCH_GATE=1).

Run everything (the n=10000 row takes a few seconds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_construction_scaling.py -s

CI smoke runs ``-k "not 10000"``.
"""

from __future__ import annotations

import pytest

from repro.core.relaxed_greedy import build_spanner
from repro.experiments.workloads import make_workload
from repro.graphs.analysis import measure_stretch
from repro.params import SpannerParams


@pytest.mark.parametrize("n,budget_s", [(2000, 0.55), (10000, 6.0)])
def test_sequential_construction_scaling(benchmark, bench_gate, n, budget_s):
    params = SpannerParams.from_epsilon(0.5)
    workload = make_workload("uniform", n, seed=0)

    result = benchmark.pedantic(
        lambda: build_spanner(workload.graph, workload.points.distance, 0.5),
        rounds=1,
        iterations=1,
    )
    wall_s = benchmark.stats.stats.mean
    stretch = measure_stretch(workload.graph, result.spanner).max_stretch
    print(
        f"\nsequential n={n}: {wall_s:.3f}s, "
        f"edges={result.spanner.num_edges}, phases={result.executed_phases}, "
        f"stretch={stretch:.3f}"
    )
    bench_gate(
        f"construction-seq-n{n}",
        {
            "n": n,
            "wall_s": wall_s,
            "edges": result.spanner.num_edges,
            "phases": result.executed_phases,
            "stretch": stretch,
        },
    )
    assert stretch <= params.t * (1.0 + 1e-9)
    assert wall_s < budget_s, (
        f"sequential build at n={n} took {wall_s:.2f}s (budget {budget_s}s)"
    )
