"""Scalar reference implementations the array kernels are pinned against.

No program path runs these: each is the plain per-item version of a
kernel in ``repro`` (one Dijkstra, one witness loop or one pair test at
a time), kept so the equivalence tests can compare the kernel's output
with it exactly.  ``local_views`` recomputes per-node decisions from
bounded-hop views, the executable form of the paper's locality claims.
``mis`` runs Luby over a ``{node: neighbours}`` mapping, ``paths`` also
holds the hop-count BFS the protocol and analysis tests check against,
and ``nx`` hands a graph to networkx for its reference algorithms.
"""
