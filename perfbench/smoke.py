"""Self-check of the pipeline benchmark.

    python3 perfbench/smoke.py

Validates ``BENCHMARK.json`` and ``layers.json``, then runs every
workload at smoke size (``--smoke``: a few hundred nodes, a one-second
loop) untraced once and traced twice, and checks each result line: the
exact keys, ``correct`` with no failures, every declared metric present
once in its declared unit, end-to-end values finite and non-zero, and
per-layer counts equal across the two traced runs of one seed.  Exits
non-zero on the first workload with a problem.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec_problems(spec: dict, layer_maps: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if m["better"] not in ("lower", "higher") or not UNIT.fullmatch(m["unit"]):
            problems.append(f"metric entry {m}")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        mapping = layer_maps.get(w["name"], {}).get("layers", {})
        problems += [
            f"{w['name']}: {layer} -> {target} is not a declared pair"
            for layer, target in mapping.items()
            if layer not in layers or target not in e2e
        ]
    return problems


def run(workload: str, trace: int) -> tuple[dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    return json.loads(lines[-1]), ""


def result_problems(result: dict, declared: list[dict], trace: int) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"outcome {result['correct']} {result['attempted']} {result['failed']}")
    metrics = result["metrics"]
    expected = {m["name"] for m in declared}
    if set(metrics) != expected:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ expected)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']}")
        if trace == 0 and not (math.isfinite(got["value"]) and got["value"] != 0):
            problems.append(f"{m['name']} = {got['value']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_maps = json.loads((HERE / "layers.json").read_text())
    problems = spec_problems(spec, layer_maps)
    for w in spec["workloads"]:
        name = w["name"]
        traced = []
        for trace in (0, 1, 1):
            result, error = run(name, trace)
            if result is None:
                problems.append(f"{name} trace {trace}: {error}")
                break
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            problems += [
                f"{name} trace {trace}: {p}"
                for p in result_problems(result, declared, trace)
            ]
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            problems += [
                f"{name}: count {k} differs between identical traced runs"
                for k, v in traced[0].items()
                if v["unit"] == "count" and v["value"] != traced[1][k]["value"]
            ]
        print(f"{name}: {'FAILED' if problems else 'ok'}")
        if problems:
            break
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
