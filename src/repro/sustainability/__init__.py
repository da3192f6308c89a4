"""Sustainability models: power, energy, carbon, lifecycle comparison."""

from .carbon import CarbonModel, rebound_adjusted
from .energy import DeploymentEnergy, EnergyModel
from .lca import (
    MAX_REPLICAS,
    LcaRow,
    LifecycleAssessment,
    SizedDeployment,
    size_deployment,
)
from .power import ServerPowerModel, joules_to_kwh
from .grid import (
    DiurnalIntensity,
    RecoveryEmissions,
    best_maintenance_window,
    interval_emissions_g,
    recovery_emissions,
    standby_replica_emissions_g,
)
from .scenarios import (
    CDN_CACHE,
    DEFAULT_SCENARIOS,
    SMART_GRID,
    TELECOM_EDGE,
    FleetAssessment,
    FleetScenario,
    assess_fleet,
    summarize,
)
from .report import (
    availability_table,
    format_availability,
    format_seconds,
    format_table,
    lca_table,
)

__all__ = [
    "CarbonModel",
    "rebound_adjusted",
    "DeploymentEnergy",
    "EnergyModel",
    "MAX_REPLICAS",
    "LcaRow",
    "LifecycleAssessment",
    "SizedDeployment",
    "size_deployment",
    "DiurnalIntensity",
    "RecoveryEmissions",
    "best_maintenance_window",
    "interval_emissions_g",
    "recovery_emissions",
    "standby_replica_emissions_g",
    "CDN_CACHE",
    "DEFAULT_SCENARIOS",
    "SMART_GRID",
    "TELECOM_EDGE",
    "FleetAssessment",
    "FleetScenario",
    "assess_fleet",
    "summarize",
    "ServerPowerModel",
    "joules_to_kwh",
    "availability_table",
    "format_availability",
    "format_seconds",
    "format_table",
    "lca_table",
]
