"""Tests for instance serialization."""

import json

import pytest

from repro.exceptions import GraphError
from repro.geometry.points import PointSet
from repro.graphs.graph import Graph
from repro.graphs.io import load_instance, save_instance


@pytest.fixture()
def instance():
    points = PointSet([[0.0, 0.0], [0.5, 0.0], [1.0, 0.5]])
    g = Graph(3)
    g.add_edge(0, 1, 0.5)
    g.add_edge(1, 2, 0.7071)
    return g, points


class TestRoundtrip:
    def test_graph_and_points(self, instance, tmp_path):
        g, points = instance
        path = tmp_path / "inst.json"
        save_instance(path, g, points, metadata={"seed": 7})
        g2, points2, meta = load_instance(path)
        assert g2 == g
        assert points2 == points
        assert meta == {"seed": 7}

    def test_graph_only(self, instance, tmp_path):
        g, _ = instance
        path = tmp_path / "inst.json"
        save_instance(path, g)
        g2, points2, meta = load_instance(path)
        assert g2 == g and points2 is None and meta == {}

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.json"
        save_instance(path, Graph(0))
        g2, _, _ = load_instance(path)
        assert g2.num_vertices == 0

    def test_size_mismatch_rejected(self, instance, tmp_path):
        g, points = instance
        with pytest.raises(GraphError):
            save_instance(tmp_path / "bad.json", Graph(2), points)

    @pytest.mark.parametrize("num_points", [2, 4], ids=["short", "long"])
    def test_point_count_mismatch_rejected_at_load(
        self, instance, tmp_path, num_points
    ):
        """A point list shorter or longer than the vertex set is refused
        on load, as :func:`save_instance` refuses to write one."""
        g, _ = instance
        path = tmp_path / "bad.json"
        save_instance(path, g, PointSet([[0.1 * i, 0.0] for i in range(3)]))
        payload = json.loads(path.read_text())
        payload["points"] = [[0.1 * i, 0.0] for i in range(num_points)]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            GraphError, match=rf"points \({num_points}\) and graph \(3\)"
        ):
            load_instance(path)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "num_vertices": 0, "edges": []}')
        with pytest.raises(GraphError):
            load_instance(path)


class TestUnreadableFiles:
    """Every bad file raises GraphError naming the path and the problem,
    not the OSError, JSONDecodeError, KeyError or ValueError beneath."""

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(GraphError, match="cannot read .*missing.json"):
            load_instance(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("not json", "is not JSON"),
            ("[1, 2]", "holds a JSON list, not an instance"),
            ('{"schema": 1}', "has no 'num_vertices' field"),
            ('{"schema": 1, "num_vertices": "x", "edges": []}',
             "malformed 'num_vertices'"),
            ('{"schema": 1, "num_vertices": 2}', "has no 'edges' field"),
            ('{"schema": 1, "num_vertices": 2, "edges": [[0, 1]]}',
             "malformed 'edges'"),
            ('{"schema": 1, "num_vertices": 2, "edges": [], '
             '"points": [[0.0], [1.0, 2.0]]}', "malformed 'points'"),
        ],
        ids=["not-json", "list", "no-vertices", "bad-vertices", "no-edges",
             "short-edge-row", "ragged-points"],
    )
    def test_bad_payload(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(GraphError, match=message) as info:
            load_instance(path)
        assert str(path) in str(info.value)
