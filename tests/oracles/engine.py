"""The synchronous engine's per-node tier for batch-capable protocols.

:meth:`repro.distributed.engine.SynchronousNetwork.run` steps a protocol
on the batch tier whenever its ``supports_batch`` is set.  Wrapping it in
:class:`PerNode` hides the batch hooks, so the engine steps the same
protocol one :class:`~repro.distributed.engine.NodeContext` at a time:
the reference the batch tier's ``RunResult`` is pinned against.
"""

from __future__ import annotations

from repro.distributed.engine import Protocol


class PerNode(Protocol):
    """``inner`` with only its per-node hooks."""

    def __init__(self, inner: Protocol) -> None:
        self._inner = inner
        self.name = inner.name

    def on_start(self, ctx):
        return self._inner.on_start(ctx)

    def on_round(self, ctx, inbox):
        return self._inner.on_round(ctx, inbox)

    def output(self, ctx):
        return self._inner.output(ctx)
