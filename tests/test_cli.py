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

    def test_distributed_build_sharded(self, instance_path, capsys):
        code = main(["build", str(instance_path), "--distributed"])
        assert code == 0
        base = json.loads(_extract_json(capsys))
        code = main(
            ["build", str(instance_path), "--distributed", "--jobs", "2"]
        )
        assert code == 0
        sharded = json.loads(_extract_json(capsys))
        assert sharded == base  # sharding never changes the spanner

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
