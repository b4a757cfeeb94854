"""Scenario sweep driver: fan a (scenario x n x seed) grid over workers.

Single experiments answer one question about one deployment; the sweep
driver regenerates the whole quality surface in one command.  Two cell
kinds share the same (scenario x n x seed) grid and process pool:

* **build cells** (the default): every grid cell builds the sequential
  relaxed greedy spanner for one concrete workload, assesses it, and
  reports one flat row (wall clocks included);
* **experiment cells** (``--experiments E1,E4,...``): the registered
  E/F/A/X experiment bodies run once per grid cell instead, each
  receiving the cell's scenario/size/seed through the override kwargs
  the bodies expose (bodies without an override run their built-in
  workload for that seed), and report pass/fail plus aggregate metrics.

Per-cell rows aggregate into a single ``results/sweep.json`` artifact
(grid provenance + rows + per-scenario summary) that dashboards can
diff run-to-run -- ``--diff old.json`` compares the fresh report
against a previous artifact cell-by-cell and prints every numeric
metric that moved.

CLI::

    python -m repro sweep --scenarios uniform,ring --sizes 256,1024 \
                          --seeds 0,1 --jobs 4 --output results/sweep.json
    python -m repro sweep --experiments E1,E4 --sizes 64 --seeds 0 \
                          --diff results/sweep-prev.json
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from ..core.relaxed_greedy import RelaxedGreedySpanner
from ..exceptions import ReproError
from ..graphs.analysis import assess
from ..params import SpannerParams
from .runner import (
    EXPERIMENT_REGISTRY,
    format_table,
    make_output_dir,
    stopwatch,
)
from .workloads import make_workload, scenario_names

__all__ = [
    "run_cell",
    "run_experiment_cell",
    "run_sweep",
    "save_sweep",
    "diff_reports",
    "add_arguments",
    "run",
    "main",
]

#: Numeric row metrics aggregated into experiment-cell rows (max over
#: the experiment's own rows; enough for run-to-run diffing).
_AGGREGATE_KEYS = (
    "stretch",
    "energy_stretch",
    "max_degree",
    "lightness",
    "retransmissions",
    "recovery_rounds",
    "crashed",
    "rounds_total",
    "messages",
)


def run_cell(
    scenario: str,
    n: int,
    seed: int,
    *,
    epsilon: float = 0.5,
    alpha: float = 1.0,
) -> dict[str, Any]:
    """Build + assess one grid cell; returns a flat metrics row.

    Module-level (and keyword-light) so process-pool workers can receive
    it by reference.
    """
    row: dict[str, Any] = {"scenario": scenario, "n": n, "seed": seed}
    workload = make_workload(scenario, n, seed, alpha=alpha)
    params = SpannerParams.from_epsilon(
        epsilon, alpha=alpha, dim=workload.points.dim
    )
    with stopwatch(row, "build_s"):
        result = RelaxedGreedySpanner(params).build(
            workload.graph, workload.points.distance
        )
    with stopwatch(row, "assess_s"):
        quality = assess(workload.graph, result.spanner)
    row.update(
        input_edges=workload.graph.num_edges,
        spanner_edges=quality.edges,
        stretch=round(quality.stretch, 6),
        max_degree=quality.max_degree,
        lightness=round(quality.lightness, 6),
        phases=len(result.phases),
        passed=bool(quality.stretch <= params.t * (1.0 + 1e-9)),
    )
    return row


def run_experiment_cell(
    experiment: str,
    scenario: str,
    n: int,
    seed: int,
    fault: str | None = None,
) -> dict[str, Any]:
    """Run one registered experiment body for one grid cell.

    The body executes in quick mode with the cell's seed; bodies
    exposing ``scenarios``/``sizes``/``faults`` override kwargs
    (detected by signature) are pinned to the cell's scenario, size and
    failure scenario, so the same claim re-verifies across the whole
    deployment grid.  Returns a flat row: identity keys, pass/fail,
    row count, wall clock, and the max of each recognized numeric
    metric over the experiment's own rows.
    """
    fn = EXPERIMENT_REGISTRY[experiment]
    params = inspect.signature(fn).parameters
    kwargs: dict[str, Any] = {}
    if "scenarios" in params:
        kwargs["scenarios"] = (scenario,)
    if "sizes" in params:
        kwargs["sizes"] = (n,)
    if fault is not None and "faults" in params:
        kwargs["faults"] = (fault,)
    row: dict[str, Any] = {
        "experiment": experiment,
        "scenario": scenario,
        "n": n,
        "seed": seed,
    }
    if fault is not None:
        row["fault"] = fault
    with stopwatch(row, "wall_s"):
        result = fn(quick=True, seed=seed, **kwargs)
    row.update(passed=bool(result.passed), rows=len(result.rows))
    for key in _AGGREGATE_KEYS:
        values = [
            r[key]
            for r in result.rows
            if isinstance(r.get(key), (int, float))
        ]
        if values:
            row[key] = max(values)
    return row


def _run_cell_args(args: tuple) -> dict[str, Any]:
    scenario, n, seed, epsilon, alpha = args
    return run_cell(scenario, n, seed, epsilon=epsilon, alpha=alpha)


def _run_experiment_cell_args(args: tuple) -> dict[str, Any]:
    experiment, scenario, n, seed, fault = args
    return run_experiment_cell(experiment, scenario, n, seed, fault)


def run_sweep(
    scenarios: Sequence[str],
    sizes: Sequence[int],
    seeds: Sequence[int],
    *,
    epsilon: float = 0.5,
    alpha: float = 1.0,
    jobs: int = 1,
    experiments: Sequence[str] = (),
    faults: Sequence[str] = (),
) -> dict[str, Any]:
    """Execute the full grid and aggregate one report dict.

    Cells run on a process pool when ``jobs > 1``; rows always come back
    in grid order (experiment-major when ``experiments`` are given, then
    scenario, n, seed, fault), so reports are diffable run-to-run
    regardless of completion order.  ``faults`` adds a failure-scenario
    axis for experiment cells (bodies without a ``faults`` kwarg simply
    run once per fault cell under their default conditions).
    """
    if experiments:
        grid = [
            (e, s, int(n), int(seed), f)
            for e, s, n, seed, f in itertools.product(
                experiments, scenarios, sizes, seeds, faults or (None,)
            )
        ]
        worker = _run_experiment_cell_args
    else:
        grid = [
            (s, int(n), int(seed), float(epsilon), float(alpha))
            for s, n, seed in itertools.product(scenarios, sizes, seeds)
        ]
        worker = _run_cell_args
    if jobs > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(grid))) as pool:
            rows = list(pool.map(worker, grid))
    else:
        rows = [worker(cell) for cell in grid]

    summary: dict[str, dict[str, Any]] = {}
    for scenario in scenarios:
        cells = [r for r in rows if r["scenario"] == scenario]
        if not cells:
            continue
        entry: dict[str, Any] = {
            "cells": len(cells),
            "passed": all(r["passed"] for r in cells),
        }
        for key in ("stretch", "max_degree", "lightness"):
            values = [r[key] for r in cells if key in r]
            if values:
                entry[f"max_{key}" if key != "max_degree" else key] = max(
                    values
                )
        wall = [r[k] for r in cells for k in ("build_s", "wall_s") if k in r]
        if wall:
            entry["total_build_s"] = round(sum(wall), 6)
        summary[scenario] = entry
    return {
        "epsilon": epsilon,
        "alpha": alpha,
        "scenarios": list(scenarios),
        "sizes": [int(n) for n in sizes],
        "seeds": [int(s) for s in seeds],
        "experiments": list(experiments),
        "faults": list(faults),
        "num_cells": len(rows),
        "passed": all(r["passed"] for r in rows),
        "cells": rows,
        "summary": summary,
    }


def save_sweep(report: dict[str, Any], path: str | Path) -> Path:
    """Persist the aggregated sweep report as one JSON artifact."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    return path


#: Cell identity: the grid coordinates (build cells lack "experiment"
#: and "fault").
_IDENTITY_KEYS = ("experiment", "scenario", "n", "seed", "fault")


def _cell_key(row: dict[str, Any]) -> tuple:
    return tuple(row.get(k) for k in _IDENTITY_KEYS)


def diff_reports(
    old: dict[str, Any],
    new: dict[str, Any],
    *,
    rel_tol: float = 1e-9,
) -> dict[str, Any]:
    """Cell-by-cell metric deltas between two sweep reports.

    Cells match on their grid identity (experiment, scenario, n, seed).
    Every numeric metric on either side of a matched pair is compared
    (a metric that appears on or disappears from one side is itself a
    change and is reported with the missing side as ``None``); entries
    whose relative change exceeds ``rel_tol`` (wall clocks are skipped
    -- they never reproduce) land in ``changed`` as flat rows ready for
    :func:`repro.experiments.runner.format_table`.  Cells present on
    only one side are reported as ``added`` / ``removed`` identities.
    """
    old_cells = {_cell_key(r): r for r in old.get("cells", [])}
    new_cells = {_cell_key(r): r for r in new.get("cells", [])}
    changed: list[dict[str, Any]] = []
    for key in new_cells:
        if key not in old_cells:
            continue
        before, after = old_cells[key], new_cells[key]
        for metric in {**before, **after}:
            if metric in _IDENTITY_KEYS or metric.endswith("_s"):
                continue
            a, b = before.get(metric), after.get(metric)
            a_num = isinstance(a, (int, float))
            b_num = isinstance(b, (int, float))
            if not a_num and not b_num:
                continue
            if a_num and b_num:
                a, b = float(a), float(b)
                if abs(b - a) <= rel_tol * max(abs(a), abs(b), 1.0):
                    continue
                delta = b - a
            else:
                delta = None  # metric appeared or disappeared
            changed.append(
                {
                    **{
                        k: v
                        for k, v in zip(_IDENTITY_KEYS, key)
                        if v is not None
                    },
                    "metric": metric,
                    "old": a,
                    "new": b,
                    "delta": delta,
                }
            )
    return {
        "changed": changed,
        "added": [list(k) for k in new_cells if k not in old_cells],
        "removed": [list(k) for k in old_cells if k not in new_cells],
    }


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _names(option: str, text: str) -> list[str]:
    """The names a comma-separated option lists.  The empty default
    lists none; given text that lists none (``,``) is refused."""
    names = _csv(text)
    if text and not names:
        raise ReproError(f"{option} {text!r} names nothing")
    return names


def _ints(option: str, text: str, low: int) -> list[int]:
    """The integers a comma-separated option lists; an empty or
    malformed list, or a value below ``low``, is refused."""
    try:
        values = [int(x) for x in _csv(text)]
    except ValueError:
        values = []
    if not values or min(values) < low:
        raise ReproError(
            f"{option} needs comma-separated integers >= {low}, "
            f"got {text!r}"
        )
    return values


def _load_report(path: str) -> dict[str, Any]:
    """A previous sweep report for ``--diff``; a file that cannot be
    read, is not JSON or holds no list of cells is refused."""
    try:
        report = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ReproError(
            f"cannot read --diff {path}: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise ReproError(f"--diff {path} is not JSON: {exc}") from None
    cells = report.get("cells") if isinstance(report, dict) else None
    if not isinstance(cells, list) or not all(
        isinstance(row, dict) for row in cells
    ):
        raise ReproError(f"--diff {path} is not a sweep report")
    return report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep options, shared by ``repro sweep`` and :func:`main`."""
    parser.add_argument(
        "--scenarios", default="",
        help="comma-separated scenario names (default: all registered)",
    )
    parser.add_argument(
        "--sizes", default="128,256", help="comma-separated node counts"
    )
    parser.add_argument(
        "--seeds", default="0", help="comma-separated workload seeds"
    )
    parser.add_argument(
        "--experiments", default="",
        help=(
            "comma-separated experiment ids (e.g. E1,E4): run those "
            "bodies over the grid instead of build cells"
        ),
    )
    parser.add_argument(
        "--faults", default="",
        help=(
            "comma-separated failure scenario names (see "
            "repro.experiments.failures); adds a fault axis to "
            "experiment cells"
        ),
    )
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial)",
    )
    parser.add_argument(
        "--output", default="results/sweep.json",
        help="aggregated report path ('' skips persistence)",
    )
    parser.add_argument(
        "--diff", default="",
        help="previous sweep.json to diff the fresh report against",
    )


def run(args: argparse.Namespace) -> int:
    """Run a parsed sweep command line; returns a process exit code.

    Every option is checked, and the output directory made, before any
    cell runs: bad input raises :class:`ReproError` and writes nothing.
    """
    scenarios = _names("--scenarios", args.scenarios) or list(
        scenario_names()
    )
    unknown = set(scenarios) - set(scenario_names())
    if unknown:
        raise ReproError(
            f"unknown scenario(s): {sorted(unknown)}; "
            f"available: {list(scenario_names())}"
        )
    experiments = [
        e.upper() for e in _names("--experiments", args.experiments)
    ]
    unknown = set(experiments) - set(EXPERIMENT_REGISTRY)
    if unknown:
        raise ReproError(
            f"unknown experiment id(s): {sorted(unknown)}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        )
    faults = _names("--faults", args.faults)
    if faults:
        from .failures import FAULT_REGISTRY

        unknown = set(faults) - set(FAULT_REGISTRY)
        if unknown:
            raise ReproError(
                f"unknown fault scenario(s): {sorted(unknown)}; "
                f"available: {sorted(FAULT_REGISTRY)}"
            )
        if not experiments:
            raise ReproError(
                "--faults requires --experiments (build cells have no "
                "fault axis)"
            )
    sizes = _ints("--sizes", args.sizes, 1)
    seeds = _ints("--seeds", args.seeds, 0)
    old = _load_report(args.diff) if args.diff else None
    if args.output:
        if Path(args.output).is_dir():
            raise ReproError(f"output path {args.output} is a directory")
        make_output_dir(Path(args.output).parent)
    report = run_sweep(
        scenarios, sizes, seeds,
        epsilon=args.epsilon, alpha=args.alpha, jobs=args.jobs,
        experiments=experiments, faults=faults,
    )
    print(format_table(report["cells"]))
    if old is not None:
        delta = diff_reports(old, report)
        print(f"\ndiff vs {args.diff}:")
        if delta["changed"]:
            print(format_table(delta["changed"]))
        else:
            print("(no metric changes)")
        if delta["added"]:
            print(f"added cells: {delta['added']}")
        if delta["removed"]:
            print(f"removed cells: {delta['removed']}")
    if args.output:
        path = save_sweep(report, args.output)
        print(f"wrote {report['num_cells']} cell(s) to {path}", file=sys.stderr)
    return 0 if report["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    try:
        return run(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
