"""Tests for the experiment suite: every experiment runs quick and passes.

These are the executable acceptance criteria of the reproduction: each
experiment's ``passed`` flag asserts the *shape* of the paper claim it
reproduces (see DESIGN.md section 4).
"""

import pytest

from repro.experiments import EXPERIMENT_REGISTRY, WORKLOAD_NAMES, make_workload
from repro.experiments.e4_rounds import log_star
from repro.experiments.run_all import run_experiments
from repro.experiments.runner import ExperimentResult, format_table
from repro.exceptions import GraphError, ParameterError


class TestWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_builds(self, name):
        w = make_workload(name, 40, seed=1)
        assert w.n == 40
        assert w.graph.num_vertices == 40
        assert w.graph.max_edge_weight() <= 1.0 + 1e-9

    def test_unknown_workload(self):
        with pytest.raises(GraphError):
            make_workload("nope", 10)

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.2, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha must be in"):
            make_workload("uniform", 40, seed=2, alpha=alpha)

    def test_alpha_policy_strings(self):
        for policy in ("bernoulli", "decay"):
            w = make_workload("uniform", 40, seed=2, alpha=0.7, policy=policy)
            assert w.alpha == 0.7

    def test_determinism(self):
        a = make_workload("clustered", 50, seed=3)
        b = make_workload("clustered", 50, seed=3)
        assert a.graph == b.graph

    def test_3d_dimension(self):
        assert make_workload("uniform3d", 30, seed=4).dim == 3


def _e5_ours_beside_input(rows):
    by_name = {row["topology"]: row for row in rows}
    ours = by_name["RelaxedGreedy eps=0.25"]
    return (
        ours["max_degree"] <= 12
        and ours["lightness"] <= by_name["UDG (input)"]["lightness"]
    )


#: Row predicates that an experiment's ``passed`` does not imply: the
#: absolute degree and weight bands, and the coverage of each table.
ROW_CHECKS = {
    "E2": lambda rows: max(row["spanner_max_deg"] for row in rows) <= 10,
    "E3": lambda rows: all(row["lightness"] <= 5.0 for row in rows),
    "E4": lambda rows: all(
        row["stretch_ok"] and row["gather_per_phase"] <= 40 for row in rows
    ),
    "E5": _e5_ours_beside_input,
    "E7": lambda rows: {row["d"] for row in rows} == {2, 3},
    # Every quick size runs the naive baseline, and beats it.
    "E8": lambda rows: all(row.get("query_ratio", 1.0) < 1.0 for row in rows),
    "X1": lambda rows: (
        {row["metric"] for row in rows} == {"l1", "l2", "linf"}
    ),
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENT_REGISTRY) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "F", "A", "X1",
        }

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_REGISTRY))
    def test_experiment_passes_quick(self, name):
        """Each experiment's claim-shape holds in quick mode."""
        result = EXPERIMENT_REGISTRY[name](quick=True, seed=3)
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"
        assert result.passed, f"{name} failed:\n{result.to_text()}"
        check = ROW_CHECKS.get(name)
        assert check is None or check(result.rows), result.to_text()

    def test_run_all_collects_everything(self):
        results = run_experiments(sorted(EXPERIMENT_REGISTRY), quick=True, seed=5)
        assert len(results) == len(EXPERIMENT_REGISTRY)


class TestLemma7Check:
    """F7 reads H against G' only where they can differ: around
    multi-vertex clusters."""

    @staticmethod
    def _row(seed):
        result = EXPERIMENT_REGISTRY["F"](quick=True, seed=seed)
        (row,) = [r for r in result.rows if r["check"].startswith("F7")]
        return row

    def test_measures_real_clusters(self):
        # Uniform n=96, workload seed 61: 20 phases have a multi-vertex
        # cluster, and paths through one run longer in H than in G'.
        row = self._row(0)
        assert row["phases"] >= 1 and row["pairs"] > 0
        assert 1.0 < row["value"] <= row["bound"]
        assert row["bound"] == pytest.approx(1.238, abs=1e-3)

    def test_says_when_it_found_no_cluster(self):
        # Seed 3's instance has no multi-vertex cluster in any phase.
        row = self._row(3)
        assert row["phases"] == 0
        assert row["value"] == "no multi-vertex cluster"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_full_run_measures_real_clusters(self, seed):
        # The full run's default instance is clustered n=160: its covers
        # have real clusters, so some H-paths run longer than in G'.
        result = EXPERIMENT_REGISTRY["F"](quick=False, seed=seed)
        (row,) = [r for r in result.rows if r["check"].startswith("F7")]
        assert row["pairs"] > 0
        assert isinstance(row["value"], float)
        assert 1.0 < row["value"] <= row["bound"]
        assert result.passed, result.to_text()


class TestRendering:
    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 30, "c": True}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b", "c"]
        assert "yes" in text

    def test_to_markdown_structure(self):
        result = ExperimentResult("EX", "claim", rows=[{"x": 1}])
        md = result.to_markdown()
        assert "### EX: claim" in md
        assert "| x |" in md
        assert "**Verdict: PASS**" in md

    def test_to_text_verdict(self):
        result = ExperimentResult("EX", "claim", rows=[{"x": 1}], passed=False)
        assert "verdict: FAIL" in result.to_text()


class TestLogStar:
    def test_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
