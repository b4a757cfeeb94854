"""CLI driver: run the experiment suite, optionally in parallel.

Usage::

    python -m repro.experiments.run_all [--quick] [--seed N] [--only E1,E4]
                                        [--jobs J] [--results-dir DIR]

The printed output is the body that EXPERIMENTS.md records (claimed vs
measured for every experiment).  With ``--jobs > 1`` experiments execute
on a process pool (each experiment is independent and seeds its own
workloads, so parallel order cannot change any row); results are always
reported in experiment-id order.  With ``--results-dir`` every result is
persisted as a JSON artifact plus an ``index.json`` summary, in a
directory made (or refused, with exit 2) before any experiment runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..exceptions import ReproError
from .runner import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    make_output_dir,
    save_results,
)


def _run_one(name: str, quick: bool, seed: int) -> ExperimentResult:
    """Execute one registered experiment, stamping timing + provenance.

    Module-level so process-pool workers can receive it by reference
    (the registry itself repopulates on import in each worker).
    """
    start = time.perf_counter()
    result = EXPERIMENT_REGISTRY[name](quick=quick, seed=seed)
    result.elapsed_s = round(time.perf_counter() - start, 3)
    result.meta.update({"seed": seed, "quick": quick})
    return result


def default_jobs() -> int:
    """Default worker count: parallel by CPU, capped to the suite size."""
    return max(1, min(4, (os.cpu_count() or 1) - 1))


def run_experiments(
    names: list[str], *, quick: bool = False, seed: int = 0, jobs: int = 1
) -> list[ExperimentResult]:
    """Run the named experiments, serially or on a process pool.

    Results come back in ``names`` order regardless of completion order.
    """
    if jobs <= 1 or len(names) <= 1:
        return [_run_one(name, quick, seed) for name in names]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        futures = {
            name: pool.submit(_run_one, name, quick, seed) for name in names
        }
        return [futures[name].result() for name in names]


def _selection(only: str) -> list[str]:
    """The experiment ids ``--only`` names, sorted; every registered one
    when it is empty.  Text that names none (``,``) or an unknown id is
    refused."""
    if not only:
        return sorted(EXPERIMENT_REGISTRY)
    wanted = {w.strip() for w in only.split(",") if w.strip()}
    if not wanted:
        raise ReproError(f"--only {only!r} names no experiment")
    unknown = wanted - set(EXPERIMENT_REGISTRY)
    if unknown:
        raise ReproError(
            f"unknown experiment id(s): {sorted(unknown)}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        )
    return sorted(wanted)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--only", type=str, default="", help="comma-separated experiment ids"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of text"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial; 0 = auto by CPU)",
    )
    parser.add_argument(
        "--results-dir", type=str, default="",
        help="directory for per-experiment JSON artifacts (empty = skip)",
    )
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            # Experiments seed numpy generators with offsets of it.
            raise ReproError(f"--seed must be >= 0, got {args.seed}")
        names = _selection(args.only)
        if args.results_dir:
            make_output_dir(args.results_dir)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    results = run_experiments(
        names, quick=args.quick, seed=args.seed, jobs=jobs
    )
    for result in results:
        if args.markdown:
            print(result.to_markdown())
            print(f"*({result.elapsed_s:.1f}s)*\n")
        else:
            print(result.to_text())
            print(f"({result.elapsed_s:.1f}s)\n")
    if args.results_dir:
        paths = save_results(results, args.results_dir)
        print(
            f"wrote {len(paths)} artifact(s) to {args.results_dir}/",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
