"""Serialization of point sets and graphs to JSON.

Examples and experiments persist deployments so that runs are replayable;
the format is a single JSON object with a schema version, optional point
coordinates, and an edge list.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import GraphError
from ..geometry.points import PointSet
from .graph import Graph

__all__ = ["save_instance", "load_instance"]

_SCHEMA = 1


def save_instance(
    path: str | Path,
    graph: Graph,
    points: PointSet | None = None,
    *,
    metadata: dict | None = None,
) -> None:
    """Write ``graph`` (and optionally ``points``) to ``path`` as JSON.

    Parameters
    ----------
    path:
        Destination file; parent directory must exist.
    graph:
        Graph to serialize.
    points:
        Optional coordinates; when given, must match the vertex count.
    metadata:
        Optional JSON-serializable annotations (seed, workload name ...).
    """
    if points is not None and len(points) != graph.num_vertices:
        raise GraphError(
            f"points ({len(points)}) and graph ({graph.num_vertices}) disagree"
        )
    payload = {
        "schema": _SCHEMA,
        "num_vertices": graph.num_vertices,
        "edges": [[u, v, w] for u, v, w in graph.edges()],
        "points": points.coords.tolist() if points is not None else None,
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(payload))


def load_instance(path: str | Path) -> tuple[Graph, PointSet | None, dict]:
    """Read an instance written by :func:`save_instance`.

    Returns
    -------
    (graph, points, metadata)
        ``points`` is ``None`` when the file stored no coordinates.

    Raises
    ------
    GraphError
        On an unknown schema, an invalid edge, or a point list whose
        length differs from the vertex count (the instance
        :func:`save_instance` refuses to write).
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != _SCHEMA:
        raise GraphError(
            f"unsupported schema {payload.get('schema')!r} in {path}"
        )
    graph = Graph(int(payload["num_vertices"]))
    for u, v, w in payload["edges"]:
        graph.add_edge(int(u), int(v), float(w))
    points = (
        PointSet(payload["points"]) if payload.get("points") is not None else None
    )
    if points is not None and len(points) != graph.num_vertices:
        raise GraphError(
            f"points ({len(points)}) and graph ({graph.num_vertices}) "
            f"disagree in {path}"
        )
    return graph, points, dict(payload.get("metadata", {}))
