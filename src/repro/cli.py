"""Command-line interface: ``python -m repro <command>``.

Five commands cover the deploy-and-inspect loop a downstream user needs
without writing Python:

* ``generate`` -- sample a named scenario and save it as a JSON instance;
* ``build`` -- load an instance, run the sequential or distributed
  relaxed greedy algorithm, report quality, optionally save the spanner;
* ``experiments`` -- run the E/F/A/X experiment suite (worker pool +
  JSON artifacts; thin alias for :mod:`repro.experiments.run_all`);
* ``sweep`` -- fan a (scenario x n x seed) grid across a worker pool and
  aggregate every cell into one ``results/sweep.json`` report; with
  ``--experiments E1,E4`` the registered experiment bodies run over the
  grid instead, and ``--diff old.json`` reports run-to-run metric deltas;
* ``scenarios`` -- list the deployment-pattern registry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.relaxed_greedy import RelaxedGreedySpanner
from .distributed.dist_spanner import DistributedRelaxedGreedy
from .exceptions import ReproError
from .experiments import sweep as sweep_mod
from .experiments.workloads import (
    SCENARIO_REGISTRY,
    WORKLOAD_NAMES,
    make_workload,
)
from .graphs.analysis import assess
from .graphs.io import load_instance, save_instance
from .params import SpannerParams

__all__ = ["main"]


def _check_output(path: str) -> None:
    """Refuse an output path that cannot be written, before any work."""
    target = Path(path)
    if not target.parent.is_dir():
        raise ReproError(f"output directory {target.parent} does not exist")
    if target.is_dir():
        raise ReproError(f"output path {target} is a directory")


def _cmd_generate(args: argparse.Namespace) -> int:
    _check_output(args.output)
    workload = make_workload(
        args.workload,
        args.n,
        seed=args.seed,
        alpha=args.alpha,
        policy=args.policy or None,
    )
    save_instance(
        args.output,
        workload.graph,
        workload.points,
        metadata={
            "workload": args.workload,
            "n": args.n,
            "seed": args.seed,
            "alpha": args.alpha,
        },
    )
    print(
        f"wrote {args.output}: {workload.name}, n={workload.n}, "
        f"m={workload.graph.num_edges}, alpha={workload.alpha}"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.output:
        _check_output(args.output)
    graph, points, meta = load_instance(args.instance)
    if points is None:
        raise ReproError(f"{args.instance} has no coordinates; cannot build")
    try:
        alpha = float(meta.get("alpha", 1.0))
    except (TypeError, ValueError):
        raise ReproError(
            f"alpha {meta['alpha']!r} in {args.instance} is not a number"
        ) from None
    params = SpannerParams.from_epsilon(
        args.epsilon, alpha=alpha, dim=points.dim
    )
    if args.distributed:
        result = DistributedRelaxedGreedy(params, seed=args.seed).build(
            graph, points.distance
        )
        spanner = result.spanner
        print(result.ledger.summary())
    else:
        spanner = RelaxedGreedySpanner(params).build(
            graph, points.distance
        ).spanner
    quality = assess(graph, spanner)
    print(
        json.dumps(
            {
                "n": graph.num_vertices,
                "input_edges": graph.num_edges,
                "spanner_edges": quality.edges,
                "stretch": quality.stretch,
                "max_degree": quality.max_degree,
                "lightness": quality.lightness,
                "power_cost_ratio": quality.power_cost_ratio,
                "epsilon": args.epsilon,
            },
            indent=2,
        )
    )
    if args.output:
        save_instance(
            args.output,
            spanner,
            points,
            metadata={**meta, "epsilon": args.epsilon, "spanner": True},
        )
        print(f"spanner written to {args.output}")
    return 0 if quality.stretch <= params.t * (1 + 1e-9) else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.run_all import main as run_all_main

    forwarded: list[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.only:
        forwarded.extend(["--only", args.only])
    if args.markdown:
        forwarded.append("--markdown")
    forwarded.extend(["--seed", str(args.seed)])
    forwarded.extend(["--jobs", str(args.jobs)])
    if args.results_dir:
        forwarded.extend(["--results-dir", args.results_dir])
    return run_all_main(forwarded)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .experiments.runner import format_table

    rows = [spec.as_row() for spec in SCENARIO_REGISTRY.values()]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(1+eps)-spanner topology control (PODC'06 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a workload instance")
    gen.add_argument("output", help="destination JSON path")
    gen.add_argument(
        "--workload", choices=sorted(WORKLOAD_NAMES), default="uniform"
    )
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--alpha", type=float, default=1.0)
    gen.add_argument(
        "--policy", choices=["bernoulli", "decay"], default=None,
        help="gray-zone adversary when alpha < 1",
    )
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build a spanner for an instance")
    build.add_argument("instance", help="instance JSON from `generate`")
    build.add_argument("--epsilon", type=float, default=0.5)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--distributed", action="store_true",
        help="run the Section 3 distributed protocol with round accounting",
    )
    build.add_argument(
        "--output", default=None, help="save the spanner as JSON"
    )
    build.set_defaults(func=_cmd_build)

    exp = sub.add_parser("experiments", help="run the experiment suite")
    exp.add_argument("--quick", action="store_true")
    exp.add_argument("--only", default="")
    exp.add_argument("--markdown", action="store_true")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = auto by CPU, 1 = serial)",
    )
    exp.add_argument(
        "--results-dir", default="results",
        help="JSON artifact directory ('' disables persistence)",
    )
    exp.set_defaults(func=_cmd_experiments)

    sweep = sub.add_parser(
        "sweep", help="fan a (scenario x n x seed) grid over a worker pool"
    )
    sweep_mod.add_arguments(sweep)
    sweep.set_defaults(func=sweep_mod.run)

    scen = sub.add_parser(
        "scenarios", help="list the deployment-scenario registry"
    )
    scen.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    scen.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
