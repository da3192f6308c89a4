"""Fault injection: memory-corruption models, arrival processes, injector."""

from .campaign import ArrivalProcess, PeriodicArrivals, PoissonArrivals
from .injector import FaultInjector, InjectionResult, InjectionSummary
from .models import (
    FAULT_LIBRARY,
    NEEDS_ADDRESS,
    FaultKind,
    cross_domain_write,
    double_free,
    heap_overflow,
    null_deref,
    over_read,
    stack_smash,
    use_after_free,
    wild_write,
)

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "PoissonArrivals",
    "FaultInjector",
    "InjectionResult",
    "InjectionSummary",
    "FAULT_LIBRARY",
    "NEEDS_ADDRESS",
    "FaultKind",
    "cross_domain_write",
    "double_free",
    "heap_overflow",
    "null_deref",
    "over_read",
    "stack_smash",
    "use_after_free",
    "wild_write",
]
