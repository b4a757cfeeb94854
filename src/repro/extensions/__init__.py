"""Section 1.6 extensions: fault tolerance, energy metrics, power cost."""

from .energy import (
    EnergyCostOracle,
    EnergySpannerResult,
    build_energy_spanner,
    energy_cost_oracle,
    reweight_graph,
)
from .fault_tolerance import (
    FaultInjectionReport,
    FaultMaskedOracle,
    fault_injection_report,
    is_k_vertex_fault_tolerant,
    multipass_fault_tolerant_spanner,
)
from .power_cost import (
    PowerCostReport,
    power_assignment,
    power_cost_report,
    total_power,
)

__all__ = [
    "FaultMaskedOracle",
    "EnergyCostOracle",
    "energy_cost_oracle",
    "multipass_fault_tolerant_spanner",
    "FaultInjectionReport",
    "fault_injection_report",
    "is_k_vertex_fault_tolerant",
    "EnergySpannerResult",
    "build_energy_spanner",
    "reweight_graph",
    "power_assignment",
    "total_power",
    "PowerCostReport",
    "power_cost_report",
]
