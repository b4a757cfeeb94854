"""Covered-edge filtering via the Czumaj--Zhao lemma (Section 2.2.2).

An edge ``{u, v}`` of bin ``E_i`` is *covered* when some witness ``z``
satisfies (or the symmetric condition with ``u`` and ``v`` swapped):

* ``{u, z}`` is already a spanner edge (so ``|uz| <= |uv|`` is also
  required -- Lemma 3's precondition; for edges added in phases
  ``1..i-1`` it is automatic since their length is at most ``W_{i-1}``,
  but phase-0 clique edges can be longer, so we check explicitly);
* ``|vz| <= alpha`` (so ``{v, z}`` is guaranteed to be a network edge);
* ``angle(v, u, z) <= theta`` where ``theta`` satisfies
  ``0 < theta < pi/4`` and ``t >= 1/(cos(theta) - sin(theta))``.

Lemma 3 then promises that ``{u, z}`` followed by a t-spanner path from
``z`` to ``v`` is a t-spanner path from ``u`` to ``v``, so covered edges
never need to be queried.  The angle is computed purely from pairwise
distances (law of cosines) -- the algorithm never touches coordinates,
honouring Section 1.1.

:func:`split_covered` takes the bin as one
:class:`~repro.graphs.graph.EdgeArrays` batch and returns the covered
edges as a boolean mask over it; the candidates are the rest of the
batch.  Distances come from a :class:`repro.core.oracle.DistanceOracle`:
the flattened CSR witness scan measures them with one ``pairs`` call
per orientation, vectorized for every shipped oracle (PointSets, l_p
metrics, energy costs, fault-masked oracles) and a per-pair loop for a
bare scalar callable.
"""

from __future__ import annotations

import numpy as np

from ..arrayops import run_expand
from ..exceptions import GraphError
from ..graphs.graph import EdgeArrays, Graph
from .oracle import DistanceOracle, as_oracle

__all__ = ["DistanceOracle", "split_covered"]


def split_covered(
    edges: EdgeArrays,
    spanner: Graph,
    dist: DistanceOracle,
    *,
    alpha: float,
    theta: float,
) -> np.ndarray:
    """Which edges of a bin batch are covered, as a boolean mask.

    The bin's candidates are the batch's uncovered edges,
    ``edges.take(~covered)``: they survive the covered-edge filter and
    move on to per-cluster-pair query selection.  The witness scan runs
    as one flattened array pass: witnesses expanded through the
    spanner's CSR rows, both orientations at once, distances measured
    by one ``pairs`` call per orientation.  The equivalence suite pins
    the mask equal to a per-edge scalar reference for every shipped
    oracle and for a bare callable.
    """
    us, vs, ws = edges
    m = ws.size
    is_cov = np.zeros(m, dtype=bool)
    if m == 0:
        return is_cov
    oracle = as_oracle(dist)
    bad = ws <= 0.0
    if bad.any():
        w = float(ws[int(np.argmax(bad))])
        raise GraphError(f"edge length must be positive, got {w}")
    if spanner.num_edges > 0:
        mat = spanner.csr()
        indptr = np.asarray(mat.indptr, dtype=np.int64)
        indices = np.asarray(mat.indices, dtype=np.int64)
        for a, b in ((us, vs), (vs, us)):
            deg = indptr[a + 1] - indptr[a]
            edge_of = np.repeat(np.arange(m, dtype=np.int64), deg)
            z = indices[run_expand(indptr[a], deg)]
            w_rep = ws[edge_of]
            ok = z != b[edge_of]
            az = oracle.pairs(a[edge_of], z)
            ok &= (az <= w_rep) & (az > 0.0)  # Lemma 3: |uz| <= |uv|
            bz = oracle.pairs(b[edge_of], z)
            ok &= bz <= alpha  # {v, z} must be a network edge
            # angle(v, u, z) <= theta via the law of cosines (the same
            # expression angle_from_sides evaluates, vectorized).
            cos_val = np.where(ok, (w_rep * w_rep + az * az - bz * bz), 0.0)
            denom = np.where(ok, 2.0 * w_rep * az, 1.0)
            cos_val = np.clip(cos_val / denom, -1.0, 1.0)
            ok &= np.arccos(cos_val) <= theta
            is_cov |= np.bincount(edge_of[ok], minlength=m) > 0
    return is_cov
