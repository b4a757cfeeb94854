"""Experiment result containers, timing capture and artifact persistence.

Every experiment module exposes ``run(quick=False, seed=0) ->
ExperimentResult``; the result carries a claim statement, a table of
measurement rows and a verdict.  ``format_text``/``format_markdown``
render the tables that benches print and EXPERIMENTS.md records;
``save_json``/``save_results`` persist machine-readable artifacts under
``results/`` so sweeps can be diffed run-to-run; :func:`stopwatch` is the
per-row wall-clock capture the experiment bodies use.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from ..exceptions import ReproError

__all__ = [
    "ExperimentResult",
    "format_table",
    "EXPERIMENT_REGISTRY",
    "register",
    "stopwatch",
    "make_output_dir",
    "save_results",
]


@contextmanager
def stopwatch(row: dict[str, Any], column: str = "wall_s"):
    """Context manager stamping elapsed wall-clock seconds into ``row``.

    Usage::

        with stopwatch(row):
            ... timed work ...
        result.rows.append(row)
    """
    start = time.perf_counter()
    try:
        yield row
    finally:
        row[column] = round(time.perf_counter() - start, 6)


@dataclass
class ExperimentResult:
    """One experiment's outcome.

    Attributes
    ----------
    experiment:
        Identifier (``"E1"`` ... ``"F20"``).
    claim:
        The paper claim being reproduced, one sentence.
    rows:
        Measurement rows (ordered dicts of column -> value).
    passed:
        Whether the claim's *shape* held on every row.
    notes:
        Free-form commentary (substitutions, caveats).
    elapsed_s:
        End-to-end wall clock of the run (stamped by the driver).
    meta:
        Run provenance (seed, quick flag ...), persisted with artifacts.
    """

    experiment: str
    claim: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    passed: bool = True
    notes: str = ""
    elapsed_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_text(self) -> str:
        """Plain-text rendering (claim, table, verdict)."""
        head = f"[{self.experiment}] {self.claim}"
        verdict = "PASS" if self.passed else "FAIL"
        body = format_table(self.rows)
        notes = f"notes: {self.notes}\n" if self.notes else ""
        return f"{head}\n{body}\n{notes}verdict: {verdict}\n"

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        cols = self.columns()
        lines = [
            f"### {self.experiment}: {self.claim}",
            "",
            "| " + " | ".join(cols) + " |",
            "|" + "|".join("---" for _ in cols) + "|",
        ]
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(_fmt(row.get(col, "")) for col in cols)
                + " |"
            )
        lines.append("")
        if self.notes:
            lines.append(f"*Notes: {self.notes}*")
            lines.append("")
        lines.append(
            f"**Verdict: {'PASS' if self.passed else 'FAIL'}**"
        )
        lines.append("")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-serializable artifact form (what ``save_json`` writes)."""
        return {
            "experiment": self.experiment,
            "claim": self.claim,
            "passed": self.passed,
            "notes": self.notes,
            "elapsed_s": self.elapsed_s,
            "meta": self.meta,
            "columns": self.columns(),
            "rows": self.rows,
        }

    def save_json(self, directory: str | Path) -> Path:
        """Persist this result as ``<directory>/<experiment>.json``."""
        path = Path(directory) / f"{self.experiment}.json"
        path.write_text(
            json.dumps(self.to_json_dict(), indent=2, default=str) + "\n"
        )
        return path


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: list[dict[str, Any]]) -> str:
    """Fixed-width text table of measurement rows."""
    if not rows:
        return "(no rows)"
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(cols, widths))
    sep = "  ".join("-" * w for w in widths)
    lines = [header, sep]
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def make_output_dir(directory: str | Path) -> None:
    """Create ``directory`` if it is missing, but never its parents: a
    path that cannot be made (a missing parent, a file in the way)
    raises :class:`ReproError`, so drivers refuse it before any work."""
    try:
        Path(directory).mkdir(exist_ok=True)
    except OSError as exc:
        raise ReproError(
            f"cannot create {directory}: {exc.strerror}"
        ) from None


def save_results(
    results: Iterable[ExperimentResult], directory: str | Path
) -> list[Path]:
    """Persist each result plus an ``index.json`` summary.

    The index records (experiment, passed, elapsed, row count) per run so
    dashboards can scan one small file instead of every artifact.
    """
    directory = Path(directory)
    results = list(results)
    paths = [result.save_json(directory) for result in results]
    index = [
        {
            "experiment": r.experiment,
            "passed": r.passed,
            "elapsed_s": r.elapsed_s,
            "num_rows": len(r.rows),
            "artifact": p.name,
        }
        for r, p in zip(results, paths)
    ]
    index_path = directory / "index.json"
    index_path.write_text(json.dumps(index, indent=2) + "\n")
    return paths + [index_path]


#: name -> run callable; populated by :func:`register` at import time.
EXPERIMENT_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(name: str):
    """Decorator adding an experiment ``run`` function to the registry."""

    def wrap(fn: Callable[..., ExperimentResult]):
        EXPERIMENT_REGISTRY[name] = fn
        return fn

    return wrap
