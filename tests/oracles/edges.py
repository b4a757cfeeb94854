"""Edge batches in the tuple form the references and test cases use.

The construction steps take and return
:class:`repro.graphs.graph.EdgeArrays` batches; the scalar references of
this package, and most hand-written test cases, list edges as
``(u, v, w)`` tuples.  These two functions convert between the forms.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import EdgeArrays


def batch(edges) -> EdgeArrays:
    """The ``(u, v, w)`` tuples as one batch, in their order."""
    edges = list(edges)
    return EdgeArrays(
        np.array([e[0] for e in edges], dtype=np.int64),
        np.array([e[1] for e in edges], dtype=np.int64),
        np.array([e[2] for e in edges], dtype=np.float64),
    )


def tuples(edges: EdgeArrays) -> list[tuple[int, int, float]]:
    """The batch as ``(u, v, w)`` tuples of Python scalars, in order."""
    return list(zip(edges.u.tolist(), edges.v.tolist(), edges.w.tolist()))
