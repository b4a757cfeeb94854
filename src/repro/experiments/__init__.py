"""The DESIGN.md experiment suite (E1-E11 + F-series).

Importing this package populates
:data:`repro.experiments.runner.EXPERIMENT_REGISTRY`; the
:mod:`repro.experiments.run_all` driver (``repro experiments``) runs
them and writes their artifacts.
"""

from . import (  # noqa: F401 -- imported for registration side effects
    ablations,
    e1_stretch,
    e2_degree,
    e3_weight,
    e4_rounds,
    e5_baselines,
    e6_alpha,
    e7_dimension,
    e8_scaling,
    e9_energy,
    e10_fault,
    e11_chaos,
    e12_churn,
    f_lemmas,
    x1_doubling,
)
from .failures import FAULT_REGISTRY, FaultScenarioSpec, fault_scenario
from .runner import EXPERIMENT_REGISTRY, ExperimentResult, format_table
from .workloads import (
    MOBILITY_REGISTRY,
    WORKLOAD_NAMES,
    MobilitySpec,
    Workload,
    make_mobility,
    make_workload,
    mobility_names,
)

__all__ = [
    "EXPERIMENT_REGISTRY",
    "ExperimentResult",
    "format_table",
    "Workload",
    "make_workload",
    "WORKLOAD_NAMES",
    "MOBILITY_REGISTRY",
    "MobilitySpec",
    "make_mobility",
    "mobility_names",
    "FAULT_REGISTRY",
    "FaultScenarioSpec",
    "fault_scenario",
]

