"""The three benchmark workloads: set-up, closed loop, output checks.

Every workload is a closed loop with one client: the next build or
epoch starts when the previous one returns.  Inputs come from the
workload seed alone; the program only sees the generated instance.
All instances use epsilon = 0.5 (t = 1.5).

* ``static-uniform``: ``RelaxedGreedySpanner`` builds for ``seconds``,
  each on a fresh copy of the base graph so no graph-level cache
  survives from one build to the next.  Every build
  is checked, and the check's ``assess`` call is the timed ``assess_s``
  sample, so those samples spread over the whole run.
* ``distributed-uniform``: the same loop with
  ``DistributedRelaxedGreedy(seed=0, jobs=1)`` on the instances of
  ``static-uniform``.
* ``churn-flocking``: a ``MaintenanceSession`` fed a precomputed
  flocking stream through ``apply_epoch``.  The session's state evolves,
  so the stream has a fixed length (``EPOCHS_PER_SECOND`` per second of
  ``seconds``, at least ``MIN_EPOCHS``): the same arguments always do
  the same work, and final-state quality and repair counts repeat
  exactly.  The stream is replayed on ``REPLICAS`` identical sessions,
  one after the other, and every epoch of every untraced replica is
  one latency sample.  Halfway and at
  the end of each replica a checkpoint verifies the session, times
  ``assess`` on it, and times ``rebuild_reference()`` from scratch on
  the current topology (twice each) -- the build
  that local repair saves, reported as the workload's ``build_s``.

Every timed interval is bracketed by host-speed probes (``hostspeed``),
outside any layer span.  Output checks run outside the timed
intervals.  In a traced run the
loop alternates untraced and traced builds (churn traces its last
replica), so the tracing overhead is measured on the same instance in
the same run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.core.maintenance as maintenance_mod
import repro.core.relaxed_greedy as relaxed_greedy_mod
import repro.distributed.dist_spanner as dist_spanner_mod
import repro.distributed.engine as engine_mod
import repro.experiments.workloads as workloads_mod
from repro.core.bins import EdgeBinning
from repro.core.maintenance import MaintenanceSession
from repro.core.relaxed_greedy import RelaxedGreedySpanner
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.experiments.workloads import make_mobility, make_workload
from repro.graphs.analysis import assess
from repro.graphs.components import component_labels
from repro.params import SpannerParams

from hostspeed import HostSpeed
from spans import Tracer, patched

EPSILON = 0.5
SETUP_REPEATS = 5
MIN_BUILDS = 3
MOVE_FRACTION = 0.01
MOBILITY_SPEED = 0.2
# Churn replays one fixed stream on REPLICAS identical sessions, one
# after the other.  An epoch takes 150-220 ms plus a 25-ms host-speed
# probe, so two replicas of EPOCHS_PER_SECOND epochs per run-second
# fill most of the run; the checkpoints take the rest.  The two
# replicas give at least 100 epoch samples, 10 beyond p90.
REPLICAS = 2
EPOCHS_PER_SECOND = 2.2
MIN_EPOCHS = 50
# Timed assess and from-scratch rebuild calls at each churn checkpoint.
CHECKPOINT_REPEATS = 2
# Session counts that must agree between replicas of one stream.
REPLICA_COUNTS = (
    "events", "epochs", "dirty_balls", "repaired_edges", "resyncs",
    "cover_cache_hits", "cover_cache_misses",
)
# Share of vertices, highest degree first, averaged into degree_top1pct.
TOP_DEGREE_SHARE = 0.01
SMOKE_N = 300
SMOKE_MIN_EPOCHS = 10
# Least share of build time the layer spans must cover in a traced run;
# less means a wrapped name is no longer looked up where it is wrapped.
MIN_COVERAGE = 0.9


@dataclass(frozen=True)
class Workload:
    scenario: str
    n: int
    alpha: float
    driver: str  # "static", "distributed" or "churn"


WORKLOADS = {
    "static-uniform": Workload("uniform", 10_000, 1.0, "static"),
    "distributed-uniform": Workload("uniform", 10_000, 1.0, "distributed"),
    "churn-flocking": Workload("uniform", 4_000, 1.0, "churn"),
}

# Public functions wrapped in a traced run, named in the namespace the
# caller looks them up in, with the layer span each call opens.
SETUP_LAYERS = [
    (workloads_mod, "uniform_points", "geometry.sampling"),
    (workloads_mod, "build_udg", "graphs.build"),
]
_SHARED_STEPS = [
    ("process_short_edges", "core.short_edges"),
    ("split_covered", "core.covered"),
    ("select_query_edges", "core.selection"),
    ("build_cluster_graph", "core.cluster_graph.build"),
    ("answer_spanner_queries", "core.cluster_graph.query"),
]
_BINS = (EdgeBinning, "assign", "core.bins")
OP_LAYERS = {
    "static": [_BINS] + [(relaxed_greedy_mod, a, s) for a, s in _SHARED_STEPS] + [
        (relaxed_greedy_mod, "build_cluster_cover", "core.cover"),
        (relaxed_greedy_mod, "remove_redundant_edges", "core.redundancy"),
    ],
    "distributed": [_BINS] + [(dist_spanner_mod, a, s) for a, s in _SHARED_STEPS] + [
        (dist_spanner_mod, "cover_from_centers", "core.cover"),
        (dist_spanner_mod, "find_redundant_pairs", "core.redundancy"),
        (dist_spanner_mod, "conflict_graph_arrays", "core.redundancy"),
        (dist_spanner_mod, "run_luby_mis_arrays", "distributed.mis"),
        (dist_spanner_mod, "multi_source_ball_lists", "graphs.paths.ball"),
        (dist_spanner_mod, "multi_source_distances", "graphs.paths.ball"),
        (dist_spanner_mod, "prefer_batched_sources", "graphs.paths.ball"),
        (engine_mod.SynchronousNetwork, "run", "distributed.engine"),
    ],
    "churn": [
        (maintenance_mod, "pair_distances", "graphs.paths.pair"),
        (maintenance_mod, "detour_distance", "graphs.paths.pair"),
        (maintenance_mod, "dijkstra_distance", "graphs.paths.pair"),
    ],
}
# Layer span -> per-layer metric holding its self time per operation.
SPAN_METRICS = {
    "core.bins": "core.bins.s",
    "core.short_edges": "core.short_edges.s",
    "core.cover": "core.cover.s",
    "core.covered": "core.covered.s",
    "core.selection": "core.selection.s",
    "core.cluster_graph.build": "core.cluster_graph.build_s",
    "core.cluster_graph.query": "core.cluster_graph.query_s",
    "core.redundancy": "core.redundancy.s",
    "graphs.paths.ball": "graphs.paths.ball_s",
    "distributed.mis": "distributed.mis.s",
    "distributed.engine": "distributed.engine.s",
}
REMAINDER_METRIC = {
    "static": "core.relaxed_greedy.other_s",
    "distributed": "distributed.dist_spanner.other_s",
}


@dataclass
class Outcome:
    """What one benchmark run measured.  ``problems`` names measurements
    that went wrong without an operation failing (a traced run whose
    layer spans stopped firing); any entry makes the run incorrect."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    detail: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    # Timed operations are bracketed by host-speed probes; an outcome
    # without one (a throwaway check) records no timings.
    host: HostSpeed | None = None
    assess_s: list[tuple[float, float, float]] = field(default_factory=list)
    quality: object = None
    top_degree: float = 0.0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# ----------------------------------------------------------------------
# Output checks (never inside a timed operation)
# ----------------------------------------------------------------------
def check_spanner(base, spanner, t: float, out: Outcome) -> bool:
    """The output contract on one spanner: a subgraph of the base graph
    with the same components and stretch <= t on every base edge.

    The stretch comes from ``assess`` on fresh copies (no cached CSR or
    edge arrays), timed as one ``assess_s`` sample.
    """
    if not spanner.is_subgraph_of(base):
        print("check failed: spanner is not a subgraph of the base graph")
        return False
    if not np.array_equal(component_labels(base), component_labels(spanner)):
        print("check failed: spanner does not preserve the base components")
        return False
    b, s = base.copy(), spanner.copy()
    tracer = out.tracer
    run = f"assess-{len(out.assess_s)}"
    with out.host.timed(out.assess_s) if out.host else nullcontext():
        with tracer.run(run, "graphs.analysis") if tracer else nullcontext():
            quality = assess(b, s)
    if not quality.stretch <= t * (1.0 + 1e-9):
        print(f"check failed: stretch {quality.stretch!r} exceeds t = {t}")
        return False
    out.quality = quality
    out.top_degree = top_degree_mean(spanner)
    return True


def top_degree_mean(spanner) -> float:
    """Mean degree of the ``TOP_DEGREE_SHARE`` highest-degree vertices:
    the degree tail the paper bounds by a constant, without the 6-to-8
    jumps of the maximum between seeds of one workload."""
    degrees = sorted(spanner.degree_sequence(), reverse=True)
    top = degrees[: max(1, int(len(degrees) * TOP_DEGREE_SHARE))]
    return sum(top) / len(top)


def _session_ok(session) -> bool:
    verdict = session.verify()
    audit = session.cover_cache_audit()
    if not verdict["ok"]:
        print(f"check failed: session.verify() = {verdict}")
    if audit:
        print(f"check failed: {len(audit)} stale cover-cache rows")
    return bool(verdict["ok"]) and not audit


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _scaled(out: Outcome, name: str, samples: list) -> list[float]:
    """Host-speed-corrected seconds of probed ``samples``; the raw and
    corrected values both go to the detail line."""
    scaled = out.host.scaled(samples)
    out.detail.setdefault("raw_s", {})[name] = [round(x, 4) for x in out.host.raw(samples)]
    out.detail.setdefault("scaled_s", {})[name] = [round(x, 4) for x in scaled]
    return scaled


def _put_common(out: Outcome, build_s: list, ops: list, nodes: int) -> None:
    """Timings from probed samples, and the checked output's quality."""
    q = out.quality
    out.put("build_s", statistics.median(_scaled(out, "build_s", build_s)), "s")
    out.put("assess_s", statistics.median(_scaled(out, "assess_s", out.assess_s)), "s")
    op_ms = [1e3 * x for x in _scaled(out, "op_s", ops)]
    out.put("op_ms_p50", statistics.median(op_ms), "ms")
    out.put("op_ms_p90", _p90(op_ms), "ms")
    out.put("stretch", q.stretch, "ratio")
    out.put("degree_top1pct", out.top_degree, "count")
    out.put("graphs.analysis.max_degree", q.max_degree, "count")
    out.put("lightness", q.lightness, "ratio")
    out.put("edges_per_node", q.edges / nodes, "edges/node")


def _put_build_counters(wl: Workload, result, out: Outcome) -> None:
    """Work counts of one build, read from its public result objects."""
    long_phases = [p for p in result.phases if p.index > 0]
    out.detail["short_edges"] = sum(p.num_bin_edges for p in result.phases if p.index == 0)
    bin_edges = sum(p.num_bin_edges for p in long_phases)
    covered = sum(p.num_covered for p in long_phases)
    queries = sum(p.num_queries for p in long_phases)
    added = sum(p.num_added for p in long_phases)
    removed = sum(p.num_removed for p in long_phases)
    out.put("core.cover.clusters", sum(p.num_clusters for p in long_phases), "count")
    out.put("core.covered.covered", covered, "count")
    out.put("core.covered.bin_edges", bin_edges, "count")
    out.put("core.covered.filtered_ratio", covered / max(1, bin_edges), "ratio")
    out.put("core.selection.queries", queries, "count")
    out.put(
        "core.cluster_graph.inter_edges",
        sum(p.num_inter_edges for p in long_phases),
        "count",
    )
    out.put("core.cluster_graph.added", added, "count")
    out.put("core.cluster_graph.query_yield", added / max(1, queries), "ratio")
    out.put("core.redundancy.removed", removed, "count")
    out.put("core.redundancy.removed_ratio", removed / max(1, added), "ratio")
    if wl.driver == "distributed":
        ledger = result.ledger
        mis_messages = sum(
            e.messages for e in ledger.entries if e.step.endswith(".mis")
        )
        out.put("distributed.mis.calls", result.mis_invocations, "count")
        out.put("distributed.mis.rounds", ledger.mis_rounds(), "count")
        out.put("distributed.mis.messages", mis_messages, "count")
        out.put("distributed.gather.rounds", ledger.gather_rounds(), "count")
        out.put("distributed.rounds", ledger.total_rounds, "count")
        out.put("distributed.messages", ledger.total_messages, "count")
        out.detail["rounds_by_step"] = ledger.rounds_by_step()


def _put_maintenance_counters(replay: dict, epochs_s: float, out: Outcome) -> None:
    """Layer splits and work counts from the session's own accounting;
    ``epochs_s`` is the corrected wall of one replica's epochs."""
    stats = replay["stats"]
    epochs, events = stats["epochs"], stats["events"]
    splits = ("cover_s", "promotion_s", "redundancy_s", "certification_s")
    for name in splits:
        out.put(f"core.maintenance.{name}", stats[name] / epochs, "s")
    accounted = sum(stats[name] for name in splits)
    out.put("core.maintenance.other_s", (stats["wall_s"] - accounted) / epochs, "s")
    hits, misses = stats["cover_cache_hits"], stats["cover_cache_misses"]
    out.put("core.maintenance.cover_cache_hits", hits, "count")
    out.put("core.maintenance.cover_cache_misses", misses, "count")
    out.put("core.maintenance.cover_cache_hit_ratio", hits / max(1, hits + misses), "ratio")
    out.put("core.maintenance.resyncs", stats["resyncs"], "count")
    out.put("core.maintenance.dirty_nodes_per_event", replay["dirty_nodes"] / events, "count")
    out.put("core.maintenance.repaired_edges", stats["repaired_edges"], "count")
    out.put("core.maintenance.repair_ms_per_event", 1e3 * epochs_s / events, "ms")
    out.put("trace.coverage", accounted / stats["wall_s"], "ratio")


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _setup_once(wl: Workload, n: int, seed: int, epochs: int) -> dict:
    instance = make_workload(wl.scenario, n, seed, alpha=wl.alpha)
    state = {"instance": instance}
    if wl.driver == "churn":
        state["session"] = MaintenanceSession(instance.points, EPSILON, alpha=wl.alpha)
        mobility = make_mobility(
            "flocking", instance.points.coords, seed, speed=MOBILITY_SPEED
        )
        state["stream"] = [
            mobility.step_events(MOVE_FRACTION, time=float(e)) for e in range(epochs)
        ]
    return state


def _run_builds(wl, params, state, seconds, out: Outcome) -> None:
    tracer = out.tracer
    instance = state["instance"]
    base, dist = instance.graph, instance.points.distance
    if wl.driver == "static":
        build = RelaxedGreedySpanner(params).build
    else:
        build = DistributedRelaxedGreedy(params, seed=0, jobs=1).build
    times: dict[bool, list] = {False: [], True: []}
    start = perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        graph = result = None
        gc.collect()  # the previous build's garbage is not this build's cost
        graph = base.copy()
        out.attempted += 1
        try:
            with out.host.timed(times[traced]):
                with patched(tracer, OP_LAYERS[wl.driver]) if traced else nullcontext():
                    with tracer.run(f"build-{k}", "build") if traced else nullcontext():
                        result = build(graph, dist)
        except Exception:
            traceback.print_exc()
            out.failed += 1
        else:
            if check_spanner(base, result.spanner, params.t, out):
                _put_build_counters(wl, result, out)
            else:
                out.failed += 1
        k += 1
        enough = len(times[False]) >= MIN_BUILDS and (
            tracer is None or len(times[True]) >= MIN_BUILDS
        )
        if perf_counter() - start >= seconds and (enough or out.failed):
            break
    out.detail["builds"] = len(times[False])
    if out.quality is None:
        return
    _put_common(out, times[False], times[False], base.num_vertices)
    if tracer is not None:
        self_s, runs, wall = tracer.self_times("build")
        for span, metric in SPAN_METRICS.items():
            if span in self_s:
                out.put(metric, self_s[span] / runs, "s")
        if out.detail["short_edges"] == 0:
            # The distributed driver skips phase 0 when there are no
            # short edges (small instances), so the layer had no work.
            out.put("core.short_edges.s", self_s.get("core.short_edges", 0.0) / runs, "s")
        out.put(REMAINDER_METRIC[wl.driver], self_s["build"] / runs, "s")
        coverage = 1.0 - self_s["build"] / wall
        out.put("trace.coverage", coverage, "ratio")
        if coverage < MIN_COVERAGE:
            out.problems.append(
                f"layer spans cover {coverage:.3f} of build time, below {MIN_COVERAGE}"
            )
        traced_s = out.host.scaled(times[True])
        untraced_s = out.host.scaled(times[False])
        out.put(
            "trace.overhead_s", statistics.median(traced_s) - statistics.median(untraced_s), "s"
        )


def _checkpoint(session, params, out: Outcome, rebuild_s: list) -> bool:
    """Verify the session, then ``CHECKPOINT_REPEATS`` times check it
    with a timed ``assess`` and time a from-scratch rebuild of its
    current topology."""
    ok = _session_ok(session)
    for _ in range(CHECKPOINT_REPEATS):
        ok = check_spanner(session.graph, session.spanner, params.t, out) and ok
        out.attempted += 1
        gc.collect()
        with out.host.timed(rebuild_s):
            base, rebuilt = session.rebuild_reference()
        # A throwaway outcome: the rebuild is checked, its assess not sampled.
        if not check_spanner(base, rebuilt.spanner, params.t, Outcome()):
            out.failed += 1
        base = rebuilt = None
    return ok


def _replay(state, params, out: Outcome, rebuild_s: list, traced: bool):
    """Apply the state's stream to its session one epoch at a time, with
    a checkpoint halfway and at the end.  Return the epoch latencies and
    the session's own accounting, or None when an epoch raised."""
    tracer = out.tracer if traced else None
    session, stream = state["session"], state["stream"]
    checkpoints = {len(stream) // 2, len(stream)}
    times: list = []
    checked = 0
    for e, events in enumerate(stream):
        out.attempted += 1
        gc.collect()  # the previous epoch's garbage is not this epoch's cost
        try:
            with out.host.timed(times):
                with patched(tracer, OP_LAYERS["churn"]) if traced else nullcontext():
                    with tracer.run(f"epoch-{e}", "epoch") if traced else nullcontext():
                        session.apply_epoch(events)
        except Exception:
            traceback.print_exc()
            out.failed += 1
            return None
        if e + 1 in checkpoints:
            if not _checkpoint(session, params, out, rebuild_s):
                out.failed += e + 1 - checked
            checked = e + 1
    return {
        "traced": traced,
        "times": times,
        "stats": session.stats(),
        "dirty_nodes": sum(r.dirty_nodes for r in session.reports),
        "alive": session.num_alive,
    }


def _put_churn(replays: list[dict], rebuild_s: list, out: Outcome) -> None:
    """Combine the replicas of one stream: every untraced epoch sample
    is one latency sample."""
    first = replays[0]
    for other in replays[1:]:
        if other["dirty_nodes"] != first["dirty_nodes"] or any(
            other["stats"][k] != first["stats"][k] for k in REPLICA_COUNTS
        ):
            out.problems.append("replicas of one stream did different work")
    untraced = [r["times"] for r in replays if not r["traced"]]
    samples = sum(untraced, [])
    out.detail["epochs"] = len(samples)
    _put_common(out, rebuild_s, samples, first["alive"])
    epochs_s = sum(out.host.scaled(samples)) / len(untraced)
    _put_maintenance_counters(first, epochs_s, out)
    if out.tracer is not None:
        traced = [r["times"] for r in replays if r["traced"]][0]
        self_s, runs, _ = out.tracer.self_times("epoch")
        if "graphs.paths.pair" in self_s:
            out.put("graphs.paths.pair_s", self_s["graphs.paths.pair"] / runs, "s")
        traced_s = statistics.median(out.host.scaled(traced))
        out.put(
            "trace.overhead_s", traced_s - statistics.median(out.host.scaled(samples)), "s"
        )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Outcome:
    """Run one workload and return what it measured.

    The instance is set up ``SETUP_REPEATS`` times.  The closed loop
    runs on the first set-up (churn: one stream replica on each of the
    first ``REPLICAS``; in a traced run the last replica is the traced
    one), and each state is dropped before the next set-up, so the peak
    memory of a run holds one instance.
    """
    wl = WORKLOADS[name]
    n = SMOKE_N if smoke else wl.n
    min_epochs = SMOKE_MIN_EPOCHS if smoke else MIN_EPOCHS
    epochs = max(min_epochs, int(round(EPOCHS_PER_SECOND * seconds)))
    params = SpannerParams.from_epsilon(EPSILON, alpha=wl.alpha, dim=2)
    tracer = Tracer() if trace else None
    out = Outcome(tracer=tracer, host=HostSpeed())
    out.detail.update(workload=name, n=n, seed=seed)
    replicas = REPLICAS if wl.driver == "churn" else 1

    setup_s: list = []
    replays: list[dict | None] = []
    rebuild_s: list = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        with out.host.timed(setup_s):
            with patched(tracer, SETUP_LAYERS) if tracer else nullcontext():
                with tracer.run(f"setup-{k}", "setup") if tracer else nullcontext():
                    state = _setup_once(wl, n, seed, epochs)
        out.detail["base_edges"] = state["instance"].graph.num_edges
        if k < replicas and wl.driver == "churn":
            traced = tracer is not None and k == replicas - 1
            replays.append(_replay(state, params, out, rebuild_s, traced))
        elif k < replicas:
            _run_builds(wl, params, state, seconds, out)
        state = None
    out.put("setup_s", statistics.median(_scaled(out, "setup_s", setup_s)), "s")
    if replays and None not in replays and out.quality is not None:
        _put_churn(replays, rebuild_s, out)
    out.detail["host"] = out.host.summary()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.put("peak_rss_mb", rss_kib / 1024.0, "MB")

    if tracer is not None:
        self_s, runs, _ = tracer.self_times("setup")
        for span in ("geometry.sampling", "graphs.build"):
            if span in self_s:
                out.put(f"{span}.s", self_s[span] / runs, "s")
        out.put("graphs.build.edges", out.detail["base_edges"], "count")
        _, runs, wall = tracer.self_times("graphs.analysis")
        out.put("graphs.analysis.s", wall / max(1, runs), "s")
    return out
