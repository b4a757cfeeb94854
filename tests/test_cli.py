"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import load_instance


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    code = main(
        ["generate", str(path), "--workload", "uniform", "--n", "60",
         "--seed", "3"]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_creates_valid_instance(self, instance_path):
        graph, points, meta = load_instance(instance_path)
        assert graph.num_vertices == 60
        assert points is not None and len(points) == 60
        assert meta["workload"] == "uniform" and meta["seed"] == 3

    def test_alpha_and_policy(self, tmp_path):
        path = tmp_path / "q.json"
        code = main(
            ["generate", str(path), "--n", "50", "--alpha", "0.7",
             "--policy", "bernoulli"]
        )
        assert code == 0
        graph, _, meta = load_instance(path)
        assert meta["alpha"] == 0.7
        assert graph.max_edge_weight() <= 1.0 + 1e-9

    def test_out_of_range_alpha_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        code = main(["generate", str(path), "--n", "50", "--alpha", "1.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha must be in (0, 1], got 1.5" in err
        assert "Traceback" not in err
        assert not path.exists()

    def test_missing_output_directory_refused_before_sampling(
        self, tmp_path, capsys
    ):
        target = tmp_path / "absent" / "inst.json"
        assert main(["generate", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: output directory {target.parent} does not exist\n"

    def test_directory_as_output_refused_before_sampling(
        self, tmp_path, capsys
    ):
        assert main(["generate", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: output path {tmp_path} is a directory\n"

    def test_all_workloads(self, tmp_path):
        for name in ("clustered", "grid", "corridor", "uniform3d"):
            code = main(
                ["generate", str(tmp_path / f"{name}.json"),
                 "--workload", name, "--n", "40"]
            )
            assert code == 0


class TestBuild:
    def test_sequential_build(self, instance_path, capsys):
        code = main(["build", str(instance_path), "--epsilon", "0.5"])
        assert code == 0
        payload = json.loads(_extract_json(capsys))
        assert payload["stretch"] <= 1.5 + 1e-9
        assert payload["n"] == 60

    def test_distributed_build(self, instance_path, capsys):
        code = main(["build", str(instance_path), "--distributed"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total rounds" in out

    def test_spanner_output_saved(self, instance_path, tmp_path):
        out_path = tmp_path / "spanner.json"
        code = main(
            ["build", str(instance_path), "--output", str(out_path)]
        )
        assert code == 0
        spanner, points, meta = load_instance(out_path)
        assert meta["spanner"] is True
        base, _, _ = load_instance(instance_path)
        assert spanner.is_subgraph_of(base)

    def test_instance_without_points_rejected(self, tmp_path, capsys):
        from repro.graphs.graph import Graph
        from repro.graphs.io import save_instance

        path = tmp_path / "bare.json"
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        save_instance(path, g)
        assert main(["build", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path} has no coordinates; cannot build\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read"),
            ("not json", "is not JSON"),
            ("[1, 2]", "holds a JSON list"),
            ('{"schema": 1}', "has no 'num_vertices' field"),
            ('{"schema": 1, "num_vertices": "x", "edges": []}',
             "malformed 'num_vertices'"),
            ('{"schema": 1, "num_vertices": 2, "edges": [[0, 1]]}',
             "malformed 'edges'"),
            ('{"schema": 1, "num_vertices": 1, "edges": [], '
             '"points": [[0.0, 0.0]], "metadata": "x"}',
             "malformed 'metadata'"),
            ('{"schema": 1, "num_vertices": 1, "edges": [], '
             '"points": [[0.0, 0.0]], "metadata": {"alpha": "x"}}',
             "alpha 'x' in"),
        ],
        ids=["missing", "not-json", "list", "no-vertices", "bad-vertices",
             "short-edge-row", "bad-metadata", "bad-alpha"],
    )
    def test_unreadable_instance_exits_with_message(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        assert main(["build", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_missing_output_directory_refused_before_build(
        self, instance_path, tmp_path, capsys
    ):
        capsys.readouterr()
        target = tmp_path / "absent" / "spanner.json"
        assert main(["build", str(instance_path), "--output", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing was built
        assert err == f"error: output directory {target.parent} does not exist\n"

    @pytest.mark.parametrize(
        "coords,weight,message",
        [
            ([[0.0, 0.0], [1.5, 0.0]], 1.5, "found 1.5"),  # beyond unit range
            ([[0.0, 0.0], [0.0, 0.0]], 0.0, "must be positive"),
        ],
        ids=["long-edge", "zero-weight-edge"],
    )
    def test_bad_instance_exits_with_message(
        self, tmp_path, capsys, coords, weight, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "num_vertices": 2,
                    "edges": [[0, 1, weight]],
                    "points": coords,
                    "metadata": {},
                }
            )
        )
        assert main(["build", str(path), "--epsilon", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("delta", [-10, 1], ids=["short", "long"])
    def test_point_count_mismatch_exits_with_message(
        self, instance_path, capsys, delta
    ):
        """Too few points used to fail deep in the spanner construction
        with an IndexError; too many built silently."""
        payload = json.loads(instance_path.read_text())
        points = payload["points"]
        payload["points"] = (
            points[:delta] if delta < 0 else points + [[0.5, 0.5]] * delta
        )
        instance_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["build", str(instance_path), "--epsilon", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"points ({60 + delta}) and graph (60) disagree" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_nan_epsilon_exits_with_message(self, instance_path, capsys):
        capsys.readouterr()
        assert main(["build", str(instance_path), "--epsilon", "nan"]) == 2
        err = capsys.readouterr().err
        assert err == "error: epsilon must be finite and > 0, got nan\n"


class TestExperimentsCommand:
    def test_single_quick_experiment(self, capsys):
        code = main(["experiments", "--quick", "--only", "E2"])
        assert code == 0
        assert "Theorem 11" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "x.json"])
        assert args.workload == "uniform" and args.n == 200


def _extract_json(capsys) -> str:
    """Pull the JSON object out of mixed CLI output."""
    out = capsys.readouterr().out
    start = out.index("{")
    end = out.rindex("}") + 1
    return out[start:end]
