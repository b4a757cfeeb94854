"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A spanner / model parameter violates a theorem precondition.

    Raised by :class:`repro.params.SpannerParams` when a user-supplied or
    derived parameter combination breaks one of the constraints required by
    Theorems 10 and 13 of the paper (for example ``delta > (t - t1) / 4``).
    """


class GraphError(ReproError, ValueError):
    """An operation received a graph that does not satisfy its contract.

    Examples: querying an edge that does not exist, building a UBG from a
    point set with mismatched dimensions, or running a phase of the relaxed
    greedy algorithm on a graph with edges longer than the unit bound.
    """


class ProtocolError(ReproError, RuntimeError):
    """A distributed protocol violated its own invariants at runtime.

    This indicates a bug in a protocol implementation (for instance a node
    sending a message to a non-neighbor) rather than bad user input.
    """


class SimulationLimitError(ReproError, RuntimeError):
    """A distributed simulation exceeded its configured round budget.

    The synchronous engine refuses to run forever; protocols must halt
    within ``max_rounds``.  Hitting this limit almost always means a
    protocol failed to converge.
    """
