"""Recovery strategies, availability math, and service-level simulation."""

from .availability import (
    AvailabilityReport,
    availability_from_downtime,
    downtime_budget,
    max_fault_rate,
    max_recoveries,
    nines,
    violates_target,
)
from .budget import BudgetEvent, ErrorBudget
from .markov import (
    MarkovChain,
    availability_from_rates,
    expected_yearly_downtime,
    steady_state_availability,
    two_replica_availability,
)
from .simulation import (
    ServiceAvailabilitySimulation,
    ServiceOutcome,
    compare_strategies,
)
from .slo import FIVE_NINES, SLO_LADDER, SloClass, classify, crossover_faults
from .strategy import RecoveryStrategyModel, StrategySpec

__all__ = [
    "BudgetEvent",
    "ErrorBudget",
    "MarkovChain",
    "availability_from_rates",
    "expected_yearly_downtime",
    "steady_state_availability",
    "two_replica_availability",
    "AvailabilityReport",
    "availability_from_downtime",
    "downtime_budget",
    "max_fault_rate",
    "max_recoveries",
    "nines",
    "violates_target",
    "ServiceAvailabilitySimulation",
    "ServiceOutcome",
    "compare_strategies",
    "FIVE_NINES",
    "SLO_LADDER",
    "SloClass",
    "classify",
    "crossover_faults",
    "RecoveryStrategyModel",
    "StrategySpec",
]
