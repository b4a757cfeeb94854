"""The paper's primary contribution: relaxed greedy spanner construction."""

from .bins import EdgeBinning
from .cluster_graph import ClusterGraph, build_cluster_graph
from .cover import ClusterCover, build_cluster_cover, cover_from_centers
from .covered import DistanceOracle, split_covered
from .oracle import BoundMethodOracle, ScalarOracleAdapter, as_oracle
from .maintenance import (
    MaintenanceEvent,
    MaintenanceSession,
    RepairReport,
    events_from_fault_plan,
)
from .leapfrog import (
    LeapfrogReport,
    check_subset,
    leapfrog_holds_for_sequence,
    partition_by_length,
    sample_leapfrog,
)
from .redundancy import (
    RedundancyOutcome,
    find_redundant_pairs,
    remove_redundant_edges,
)
from .relaxed_greedy import (
    PhaseReport,
    RelaxedGreedySpanner,
    SpannerResult,
    build_spanner,
)
from .selection import QuerySelection, select_query_edges
from .seq_greedy import GreedyStats, greedy_spanner_of_clique, seq_greedy
from .short_edges import ShortEdgeOutcome, process_short_edges

__all__ = [
    "EdgeBinning",
    "ClusterCover",
    "build_cluster_cover",
    "cover_from_centers",
    "ClusterGraph",
    "build_cluster_graph",
    "DistanceOracle",
    "ScalarOracleAdapter",
    "BoundMethodOracle",
    "as_oracle",
    "split_covered",
    "QuerySelection",
    "select_query_edges",
    "MaintenanceEvent",
    "MaintenanceSession",
    "RepairReport",
    "events_from_fault_plan",
    "GreedyStats",
    "seq_greedy",
    "greedy_spanner_of_clique",
    "ShortEdgeOutcome",
    "process_short_edges",
    "RedundancyOutcome",
    "find_redundant_pairs",
    "remove_redundant_edges",
    "PhaseReport",
    "SpannerResult",
    "RelaxedGreedySpanner",
    "build_spanner",
    "LeapfrogReport",
    "leapfrog_holds_for_sequence",
    "check_subset",
    "partition_by_length",
    "sample_leapfrog",
]
