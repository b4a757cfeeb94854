"""Scalar reference implementations the array kernels are pinned against.

No program path runs these: each is the plain per-item version of a
kernel in ``repro`` (one Dijkstra, one witness loop or one pair test at
a time), kept so the equivalence tests can compare the kernel's output
with it exactly.  ``local_views`` recomputes per-node decisions from
bounded-hop views, the executable form of the paper's locality claims.
``mis`` runs Luby over a ``{node: neighbours}`` mapping, ``engine``
hides a protocol's batch hooks so the synchronous engine steps it per
node, ``event_engine`` runs the event tier one heap pop at a time,
``faults`` draws crash times and clock rates one node at a time,
``paths`` also holds the hop-count BFS the protocol and analysis tests
check against, the dense-row exact pair distances stretch was measured
with and the per-pair definitions of churn repair's two settlement
kernels, ``maintenance`` holds churn repair's step iv, step v and
certification that search every pair and the per-event writers that
patch the base graph one edge at a time, and ``nx`` hands a graph to
networkx for its reference algorithms.
"""
