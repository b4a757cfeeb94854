"""Round accounting for the distributed algorithm (Section 3).

The paper's headline complexity is ``O(log n * log* n)`` communication
rounds: ``O(log n)`` phases, each spending ``O(1)`` rounds on information
gathering (Theorems 14, 17, 18, 19) plus one MIS invocation for the
cluster cover (Theorem 16) and one for redundancy removal (Theorem 21).
:class:`RoundLedger` records every step's cost so experiment E4 can
decompose measured rounds into exactly those terms.

Conventions:

* *gather* steps cost their hop radius ``k`` (one round per hop in the
  LOCAL model);
* *MIS* steps cost ``engine_rounds * hop_factor`` where ``engine_rounds``
  is the real message-round count of the MIS protocol on the derived
  graph and ``hop_factor`` is the number of network rounds needed to
  emulate one derived-graph round (derived-graph neighbors are a constant
  number of network hops apart -- Lemmas 15 and 20).

Batch rounds are charged identically: the engine's batch tier steps all
nodes of a protocol round at once, but a batch round *is* one synchronous
round of the model, so ``RunResult.rounds`` -- and therefore every ledger
charge derived from it -- is the same number on either tier (pinned by
the scalar-vs-batch equivalence tests).  Vectorization changes wall-clock
time, never the round bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ProtocolError

__all__ = ["LedgerEntry", "RoundLedger"]


@dataclass(frozen=True)
class LedgerEntry:
    """One accounted step.

    Attributes
    ----------
    phase:
        Bin index of the phase (0 for the short-edge phase).
    step:
        Step label (e.g. ``"cover.gather"``, ``"cover.mis"``).
    rounds:
        Network rounds charged.
    messages:
        Messages exchanged (0 for ledger-only gathers).
    detail:
        Free-form annotation (hop radii, MIS iterations ...).
    """

    phase: int
    step: str
    rounds: int
    messages: int = 0
    detail: str = ""


@dataclass
class RoundLedger:
    """Accumulates :class:`LedgerEntry` rows for one distributed run."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def charge(
        self,
        phase: int,
        step: str,
        rounds: int,
        *,
        messages: int = 0,
        detail: str = "",
    ) -> None:
        """Record ``rounds`` network rounds for ``step`` of ``phase``."""
        if rounds < 0:
            raise ProtocolError(f"cannot charge negative rounds ({rounds})")
        self.entries.append(
            LedgerEntry(
                phase=phase,
                step=step,
                rounds=rounds,
                messages=messages,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Total network rounds across all steps."""
        return sum(e.rounds for e in self.entries)

    @property
    def total_messages(self) -> int:
        """Total messages across all steps."""
        return sum(e.messages for e in self.entries)

    def rounds_by_step(self) -> dict[str, int]:
        """Aggregate rounds per step label."""
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.step] = out.get(e.step, 0) + e.rounds
        return out

    def mis_rounds(self) -> int:
        """Rounds spent inside MIS invocations (the ``log*``/``log`` term)."""
        return sum(e.rounds for e in self.entries if e.step.endswith(".mis"))

    def gather_rounds(self) -> int:
        """Rounds spent on O(1)-hop gathering (the per-phase constant)."""
        return sum(
            e.rounds for e in self.entries if not e.step.endswith(".mis")
        )

    def summary(self) -> str:
        """Multi-line human-readable account."""
        lines = [
            f"total rounds: {self.total_rounds} "
            f"(gather {self.gather_rounds()}, mis {self.mis_rounds()}); "
            f"messages: {self.total_messages}"
        ]
        for step, rounds in sorted(self.rounds_by_step().items()):
            lines.append(f"  {step:<24} {rounds:>8} rounds")
        return "\n".join(lines)
