"""Failure scenario family: named fault intensities for the event tier.

A scenario is a reusable point in the (drop rate x crash rate x latency
variance) space -- the unreliable-network analogue of the workload
registry in :mod:`repro.experiments.workloads`.  E11 and ``repro sweep
--faults`` iterate scenarios by name; each materializes into a concrete
:class:`~repro.distributed.faults.FaultPlan` by mixing in the run seed,
so one scenario name reproduces bit-identical fault timelines for a
given seed on any machine.

The ``reliable`` scenario is special: its plan is zero-fault with unit
latency, which routes every event-tier run through the synchronous
adapter -- the test-suite pins that row equal to the synchronous scalar
tier's outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from ..distributed.faults import FaultPlan

__all__ = [
    "FaultScenarioSpec",
    "FAULT_REGISTRY",
    "register_fault",
    "fault_scenario",
]


@dataclass(frozen=True)
class FaultScenarioSpec:
    """One named fault intensity.

    Fields mirror the knobs of :class:`FaultPlan` (zero means the fault
    class is off); :meth:`plan` stamps a seed onto them.
    """

    name: str
    summary: str
    drop_rate: float = 0.0
    burst_rate: float = 0.0
    crash_rate: float = 0.0
    recover_after: float | None = None
    flap_rate: float = 0.0
    jitter: float = 0.0
    drift: float = 0.0
    latency: float = 1.0

    def plan(self, seed: int = 0) -> FaultPlan:
        """Materialize the scenario for one run seed."""
        return FaultPlan(
            seed=seed,
            drop_rate=self.drop_rate,
            burst_rate=self.burst_rate,
            crash_rate=self.crash_rate,
            recover_after=self.recover_after,
            flap_rate=self.flap_rate,
            jitter=self.jitter,
            drift=self.drift,
            latency=self.latency,
        )

    def as_row(self) -> dict[str, Any]:
        """Flat dict of the non-zero fault knobs (for experiment rows)."""
        row = {"fault": self.name}
        for key, value in asdict(self).items():
            if key in ("name", "summary"):
                continue
            if value not in (0.0, None) and not (
                key == "latency" and value == 1.0
            ):
                row[key] = value
        return row


FAULT_REGISTRY: dict[str, FaultScenarioSpec] = {}


def register_fault(spec: FaultScenarioSpec) -> FaultScenarioSpec:
    """Add ``spec`` to the registry (last registration wins)."""
    FAULT_REGISTRY[spec.name] = spec
    return spec


def fault_scenario(name: str) -> FaultScenarioSpec:
    """Look up a scenario by name.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is not registered.
    """
    try:
        return FAULT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fault scenario {name!r}; "
            f"known: {sorted(FAULT_REGISTRY)}"
        ) from None


register_fault(
    FaultScenarioSpec(
        "reliable",
        "zero faults, unit latency -- pinned equal to the sync tier",
    )
)
register_fault(
    FaultScenarioSpec("lossy", "10% i.i.d. message drop", drop_rate=0.1)
)
register_fault(
    FaultScenarioSpec(
        "lossy-heavy", "20% i.i.d. message drop", drop_rate=0.2
    )
)
register_fault(
    FaultScenarioSpec(
        "bursty",
        "correlated loss windows on 5% of links",
        burst_rate=0.05,
        drop_rate=0.02,
    )
)
register_fault(
    FaultScenarioSpec(
        "crashy", "5% of nodes fail-stop mid-run", crash_rate=0.05
    )
)
register_fault(
    FaultScenarioSpec(
        "phoenix",
        "10% of nodes crash then recover after 80 time units",
        crash_rate=0.1,
        recover_after=80.0,
    )
)
register_fault(
    FaultScenarioSpec(
        "flaky-links",
        "10% of links flap up/down periodically",
        flap_rate=0.1,
    )
)
register_fault(
    FaultScenarioSpec(
        "jittery",
        "per-message latency jitter up to +50%",
        jitter=0.5,
    )
)
register_fault(
    FaultScenarioSpec(
        "drifting",
        "node clocks drift up to +/-5%",
        drift=0.05,
    )
)
register_fault(
    FaultScenarioSpec(
        "chaos",
        "drop + bursts + crashes + jitter, all at once",
        drop_rate=0.1,
        burst_rate=0.02,
        crash_rate=0.05,
        jitter=0.3,
    )
)
