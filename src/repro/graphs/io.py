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
        Naming ``path`` and the problem, when the file cannot be read or
        is not a JSON object, on an unknown schema, a missing or
        malformed field, an invalid edge, or a point list whose length
        differs from the vertex count (the instance
        :func:`save_instance` refuses to write).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise GraphError(f"{path} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GraphError(
            f"{path} holds a JSON {type(payload).__name__}, not an instance"
        )
    if payload.get("schema") != _SCHEMA:
        raise GraphError(
            f"unsupported schema {payload.get('schema')!r} in {path}"
        )
    field = "num_vertices"
    try:
        graph = Graph(int(payload[field]))
        field = "edges"
        for u, v, w in payload[field]:
            graph.add_edge(int(u), int(v), float(w))
        field = "points"
        coords = payload.get(field)
        points = PointSet(coords) if coords is not None else None
        field = "metadata"
        metadata = dict(payload.get(field, {}))
    except GraphError:
        raise
    except KeyError:
        raise GraphError(f"{path} has no {field!r} field") from None
    except (TypeError, ValueError) as exc:
        raise GraphError(f"malformed {field!r} in {path}: {exc}") from None
    if points is not None and len(points) != graph.num_vertices:
        raise GraphError(
            f"points ({len(points)}) and graph ({graph.num_vertices}) "
            f"disagree in {path}"
        )
    return graph, points, metadata
