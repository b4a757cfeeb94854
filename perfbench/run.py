"""Pipeline benchmark: builds, distributed builds and churn repair.

Run from the repository root:

    python3 perfbench/run.py --workload static-uniform --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer spans and prints every
per-layer metric, a self-time table, and writes the spans as JSONL to
``perfbench/out/``; layer self times are raw span times, not corrected
for host speed.  ``--smoke`` shrinks every workload to a few hundred
nodes for the benchmark's own check (``perfbench/smoke.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output
failed its check or the program could not be imported.

Every workload reports every end-to-end metric.  Each timing sample is
its wall time corrected for the shared host's speed at the time
(``perfbench/hostspeed.py``: probes of a fixed kernel before and after
the operation); the detail line holds the raw and corrected samples.

* ``setup_s``: median of three set-ups (generation plus alpha-UBG build;
  churn adds the session build and the epoch-stream precomputation);
* ``build_s``: median time of one from-scratch spanner construction
  (churn: ``rebuild_reference()`` of the current topology at each
  checkpoint, the build local repair avoids);
* ``op_ms_p50`` / ``op_ms_p90``: latency of the closed loop's operation,
  a build or one churn epoch (churn: every epoch of every untraced
  stream replica is a sample).  On the build workloads ``op_ms_p50`` is
  ``build_s`` in ms, since every workload must report every metric;
  builds give fewer than ten samples beyond p90, so there it is close
  to the slowest build;
* ``assess_s``: median time of ``assess(base, spanner)``, the time to
  trust an output;
* ``stretch``, ``degree_top1pct``, ``lightness``, ``edges_per_node``:
  the paper's guarantees on the checked output (churn: its final state);
  ``degree_top1pct`` is the mean degree of the 1% highest-degree
  vertices, steadier between seeds than the maximum, which is the
  per-layer ``graphs.analysis.max_degree``;
* ``peak_rss_mb``: peak resident memory of the run.

``failed`` / ``attempted`` is the failure rate: operations that raised
or whose output failed its check.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy is imported: the benchmark is a
# single closed-loop client on a small shared machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_FILE_LIMIT = 100_000


def _import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _self_time_table(out, spec, layer_map) -> str:
    rows = [f"{'per-layer metric':<42} {'value':>14} {'unit':<10} moves"]
    for item in spec["per_layer"]:
        name = item["name"]
        if name not in out.metrics:
            continue
        value, unit = out.metrics[name]
        rows.append(f"{name:<42} {value:>14.6g} {unit:<10} {layer_map.get(name, '-')}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from pipeline import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())[args.workload]["layers"]
    stamp = provenance(args)
    print("provenance " + json.dumps(stamp, sort_keys=True))

    out = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("detail " + json.dumps(out.detail, sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = out.failed == 0 and out.attempted > 0
    for problem in out.problems:
        print(f"measurement problem: {problem}")
        correct = False
    for item in wanted:
        name = item["name"]
        if name in out.metrics:
            value, unit = out.metrics[name]
        elif args.trace:
            # A layer this workload never runs: zero self time, zero work.
            # If layers.json maps it for this workload, a wrapper no
            # longer sees the program's calls into it.
            if name in layer_map:
                print(f"layer metric {name} recorded nothing")
                correct = False
            value, unit = 0.0, item["unit"]
        else:
            print(f"missing end-to-end metric {name}")
            correct = False
            continue
        if unit != item["unit"]:
            print(f"metric {name} measured in {unit}, declared in {item['unit']}")
            correct = False
        metrics[name] = {"value": value, "unit": item["unit"]}

    if args.trace:
        print(_self_time_table(out, spec, layer_map))
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        out.tracer.write_jsonl(path, stamp, SPAN_FILE_LIMIT)
        recorded = len(out.tracer.spans)
        print(
            f"spans: {recorded} recorded, {min(recorded, SPAN_FILE_LIMIT)} "
            f"written to {path.relative_to(ROOT)}"
        )
    else:
        for name, m in metrics.items():
            print(f"{name:<16} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
