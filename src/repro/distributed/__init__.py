"""Distributed substrate: the synchronous round engine (per-node scalar
reference and all-nodes-at-once batch tier, with identical accounting),
the discrete-event unreliable-network tier, protocols (Luby MIS, k-hop
flooding, BFS, leader election, convergecast), and the Section 3
distributed relaxed greedy algorithm."""

from .dist_spanner import DistributedRelaxedGreedy, DistributedSpannerResult
from .engine import (
    BatchContext,
    BatchProtocol,
    NodeContext,
    Protocol,
    RunResult,
    SynchronousNetwork,
)
from .event_engine import (
    Ctl,
    EventNetwork,
    EventNodeContext,
    EventProtocol,
    Multi,
    Resend,
    SimulationLimitError,
)
from .faults import FaultPlan
from .ledger import LedgerEntry, RoundLedger
from .mis import (
    MISMask,
    MISRun,
    induced_csr,
    run_luby_mis,
    run_luby_mis_arrays,
    verify_mis,
    verify_mis_arrays,
)
from .protocols import (
    BFSTree,
    ConvergecastSum,
    KHopGather,
    LeaderElection,
    LubyMIS,
)
from .protocols.reliable import HardenedProtocol, harden
from .unreliable import (
    EventBFSRun,
    EventMISRun,
    repair_bfs,
    repair_mis,
    run_bfs_event,
    run_luby_mis_event,
    verify_bfs_tree,
)

__all__ = [
    "SynchronousNetwork",
    "Protocol",
    "BatchProtocol",
    "BatchContext",
    "NodeContext",
    "RunResult",
    "RoundLedger",
    "LedgerEntry",
    "KHopGather",
    "LubyMIS",
    "ConvergecastSum",
    "BFSTree",
    "LeaderElection",
    "MISMask",
    "MISRun",
    "induced_csr",
    "run_luby_mis",
    "run_luby_mis_arrays",
    "verify_mis_arrays",
    "verify_mis",
    "DistributedRelaxedGreedy",
    "DistributedSpannerResult",
    # Unreliable-network tier
    "FaultPlan",
    "EventNetwork",
    "EventProtocol",
    "EventNodeContext",
    "SimulationLimitError",
    "Ctl",
    "Resend",
    "Multi",
    "HardenedProtocol",
    "harden",
    "EventMISRun",
    "EventBFSRun",
    "run_luby_mis_event",
    "run_bfs_event",
    "repair_mis",
    "repair_bfs",
    "verify_bfs_tree",
]
