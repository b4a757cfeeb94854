"""Tests for the scenario sweep driver and its CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.sweep import main, run_cell, run_sweep, save_sweep

ENTRIES = ["repro-sweep", "module-main"]
CELL = ["--scenarios", "ring", "--sizes", "32", "--seeds", "0"]


def refused(monkeypatch, capsys, entry, argv):
    """Run a sweep command line that must be refused before any cell
    runs; returns its one ``error:`` line."""
    import repro.experiments.sweep as sweep_mod

    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep_mod, "run_sweep", no_run)
    code = cli_main(["sweep", *argv]) if entry == "repro-sweep" else main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestRunCell:
    def test_cell_row_shape(self):
        row = run_cell("uniform", 64, 0, epsilon=0.5)
        assert row["scenario"] == "uniform"
        assert row["n"] == 64 and row["seed"] == 0
        assert row["build_s"] > 0 and row["assess_s"] >= 0
        assert row["spanner_edges"] <= row["input_edges"]
        assert row["passed"] and row["stretch"] <= 1.5 * (1 + 1e-9)


class TestRunSweep:
    def test_grid_order_and_summary(self):
        report = run_sweep(
            ["ring", "uniform"], [48, 64], [0], epsilon=0.5, jobs=1
        )
        assert report["num_cells"] == 4
        keys = [(r["scenario"], r["n"], r["seed"]) for r in report["cells"]]
        assert keys == [
            ("ring", 48, 0), ("ring", 64, 0),
            ("uniform", 48, 0), ("uniform", 64, 0),
        ]
        assert set(report["summary"]) == {"ring", "uniform"}
        assert report["summary"]["ring"]["cells"] == 2
        assert report["passed"] == all(r["passed"] for r in report["cells"])

    def test_pool_matches_serial(self):
        serial = run_sweep(["uniform"], [48], [0, 1], jobs=1)
        pooled = run_sweep(["uniform"], [48], [0, 1], jobs=2)
        strip = lambda rows: [  # noqa: E731 - wall clocks differ
            {k: v for k, v in r.items() if not k.endswith("_s")}
            for r in rows
        ]
        assert strip(serial["cells"]) == strip(pooled["cells"])


class TestSweepCli:
    def test_main_writes_single_artifact(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "--scenarios", "uniform",
                "--sizes", "48",
                "--seeds", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["num_cells"] == 1
        assert report["cells"][0]["scenario"] == "uniform"
        assert "build_s" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "target", ["a/b/x.json", "file/x.json", "."],
        ids=["two-missing-levels", "under-a-file", "a-directory"],
    )
    def test_unusable_output_refused_before_any_cell(
        self, tmp_path, capsys, monkeypatch, target, entry
    ):
        (tmp_path / "file").write_text("")
        argv = [*CELL, "--output", str(tmp_path / target)]
        err = refused(monkeypatch, capsys, entry, argv)
        assert str(tmp_path) in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "content", [None, "not json", "[1, 2]", '{"cells": [1]}'],
        ids=["missing", "not-json", "not-an-object", "cells-not-rows"],
    )
    def test_unusable_diff_refused_before_any_cell(
        self, tmp_path, capsys, monkeypatch, content, entry
    ):
        old = tmp_path / "old.json"
        if content is not None:
            old.write_text(content)
        argv = [
            *CELL, "--output", str(tmp_path / "res" / "x.json"),
            "--diff", str(old),
        ]
        err = refused(monkeypatch, capsys, entry, argv)
        assert f"--diff {old}" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "option,value",
        [
            ("--sizes", ""), ("--seeds", ""), ("--sizes", "3x2"),
            ("--seeds", "0,x"), ("--sizes", "32,0"), ("--seeds", "-1"),
            ("--scenarios", ","), ("--experiments", ","),
            ("--faults", " , "),
        ],
        ids=[
            "sizes-empty", "seeds-empty", "sizes-3x2", "seeds-0,x",
            "sizes-0", "seeds-negative", "scenarios-comma",
            "experiments-comma", "faults-comma",
        ],
    )
    def test_empty_or_malformed_selection_refused(
        self, tmp_path, capsys, monkeypatch, option, value, entry
    ):
        argv = [
            *CELL, "--output", str(tmp_path / "res" / "x.json"),
            option, value,
        ]
        err = refused(monkeypatch, capsys, entry, argv)
        assert option in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_created(self, tmp_path):
        out = tmp_path / "new" / "sweep.json"
        code = main(
            ["--scenarios", "ring", "--sizes", "32", "--seeds", "0",
             "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["num_cells"] == 1

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["--scenarios", "nonsense", "--output", ""]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_repro_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli_main(
            [
                "sweep",
                "--scenarios", "ring",
                "--sizes", "48",
                "--seeds", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["num_cells"] == 1


class TestExperimentCells:
    def test_experiment_cell_row_shape(self):
        from repro.experiments.sweep import run_experiment_cell

        row = run_experiment_cell("E1", "uniform", 48, 0)
        assert row["experiment"] == "E1" and row["scenario"] == "uniform"
        assert row["n"] == 48 and row["seed"] == 0
        assert row["passed"] and row["rows"] == 4  # one row per epsilon
        assert row["wall_s"] > 0 and row["stretch"] > 1.0

    def test_body_without_scenario_override_still_runs(self):
        from repro.experiments.sweep import run_experiment_cell

        # X1 samples its own point process (sizes-only override).
        row = run_experiment_cell("X1", "uniform", 48, 0)
        assert row["experiment"] == "X1" and row["passed"]

    def test_e4_cell_reports_rounds_and_messages(self):
        from repro.experiments.sweep import run_experiment_cell

        # The distributed builder's round and message counts reach the
        # sweep report through E4 cells.
        row = run_experiment_cell("E4", "uniform", 48, 0)
        assert row["passed"]
        assert row["rounds_total"] > 0 and row["messages"] > 0

    def test_experiment_grid_order_and_summary(self):
        report = run_sweep(
            ["uniform"], [48], [0], jobs=1, experiments=["E1", "E9"]
        )
        assert report["experiments"] == ["E1", "E9"]
        assert [r["experiment"] for r in report["cells"]] == ["E1", "E9"]
        assert report["summary"]["uniform"]["cells"] == 2
        assert report["passed"]


class TestFaultAxis:
    def test_experiment_cell_carries_fault_column(self):
        from repro.experiments.sweep import run_experiment_cell

        row = run_experiment_cell("E11", "uniform", 32, 0, fault="lossy")
        assert row["experiment"] == "E11"
        assert row["fault"] == "lossy"
        assert row["passed"]
        assert row["retransmissions"] >= 0

    def test_fault_ignored_by_experiments_without_fault_axis(self):
        from repro.experiments.sweep import run_experiment_cell

        # E1 takes no ``faults`` kwarg; the cell still runs and the
        # fault column records what was requested.
        row = run_experiment_cell("E1", "uniform", 48, 0, fault="lossy")
        assert row["experiment"] == "E1" and row["passed"]
        assert row["fault"] == "lossy"

    def test_fault_grid_order(self):
        report = run_sweep(
            ["uniform"], [32], [0], jobs=1, experiments=["E11"],
            faults=["reliable", "lossy"],
        )
        assert report["faults"] == ["reliable", "lossy"]
        assert [r["fault"] for r in report["cells"]] == [
            "reliable", "lossy"
        ]
        assert report["passed"]

    def test_faults_flag_via_cli(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "--experiments", "E11",
                "--scenarios", "uniform",
                "--sizes", "32",
                "--seeds", "0",
                "--faults", "reliable",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["num_cells"] == 1
        assert report["cells"][0]["fault"] == "reliable"

    def test_unknown_fault_rejected(self, capsys):
        code = main(
            [
                "--experiments", "E11",
                "--faults", "nonsense",
                "--output", "",
            ]
        )
        assert code == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_faults_require_experiments(self, capsys):
        code = main(["--faults", "lossy", "--output", ""])
        assert code == 2
        assert "--faults" in capsys.readouterr().err


class TestDiffReports:
    def _report(self, stretch, extra_cell=False):
        cells = [
            {
                "experiment": "E1", "scenario": "uniform", "n": 48,
                "seed": 0, "passed": True, "stretch": stretch,
                "wall_s": 0.5,
            }
        ]
        if extra_cell:
            cells.append(
                {
                    "experiment": "E9", "scenario": "ring", "n": 48,
                    "seed": 0, "passed": True, "energy_stretch": 1.0,
                }
            )
        return {"cells": cells}

    def test_changed_metrics_reported(self):
        from repro.experiments.sweep import diff_reports

        delta = diff_reports(self._report(1.4), self._report(1.5))
        assert len(delta["changed"]) == 1
        entry = delta["changed"][0]
        assert entry["metric"] == "stretch"
        assert entry["old"] == 1.4 and entry["new"] == 1.5
        assert abs(entry["delta"] - 0.1) < 1e-12
        assert entry["experiment"] == "E1"

    def test_wall_clocks_and_identical_metrics_skipped(self):
        from repro.experiments.sweep import diff_reports

        old = self._report(1.4)
        new = self._report(1.4)
        new["cells"][0]["wall_s"] = 99.0  # _s columns never diff
        assert diff_reports(old, new)["changed"] == []

    def test_disappeared_metric_reported(self):
        from repro.experiments.sweep import diff_reports

        old = self._report(1.4)
        new = self._report(1.4)
        del new["cells"][0]["stretch"]  # metric vanished from the run
        delta = diff_reports(old, new)
        assert len(delta["changed"]) == 1
        entry = delta["changed"][0]
        assert entry["metric"] == "stretch"
        assert entry["old"] == 1.4 and entry["new"] is None
        assert entry["delta"] is None

    def test_added_and_removed_cells(self):
        from repro.experiments.sweep import diff_reports

        delta = diff_reports(
            self._report(1.4), self._report(1.4, extra_cell=True)
        )
        # Cell identity includes the fault axis (None when unset).
        assert delta["added"] == [["E9", "ring", 48, 0, None]]
        assert delta["removed"] == []


class TestExperimentSweepCli:
    def test_experiments_flag_and_diff(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = [
            "--experiments", "e9",  # lowercase id normalized
            "--scenarios", "uniform",
            "--sizes", "48",
            "--seeds", "0",
        ]
        assert main(base + ["--output", str(out_a)]) == 0
        report = json.loads(out_a.read_text())
        assert report["experiments"] == ["E9"]
        assert report["cells"][0]["experiment"] == "E9"
        capsys.readouterr()
        code = main(
            base + ["--output", str(out_b), "--diff", str(out_a)]
        )
        assert code == 0
        assert "diff vs" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        code = main(["--experiments", "E99", "--output", ""])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_repro_sweep_experiments_subcommand(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = cli_main(
            [
                "sweep",
                "--experiments", "E1",
                "--scenarios", "ring",
                "--sizes", "48",
                "--seeds", "0",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["num_cells"] == 1
        assert report["cells"][0]["experiment"] == "E1"
        assert report["cells"][0]["scenario"] == "ring"
