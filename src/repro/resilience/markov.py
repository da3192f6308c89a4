"""Analytic availability models (CTMC), cross-validating the simulation.

The simulated results of E3 should not be taken on faith: classical
dependability theory predicts the same numbers in closed form, and this
module computes them so tests can check simulation against theory.

* :func:`steady_state_availability` — the renewal-theory identity
  ``A = MTBF / (MTBF + MTTR)`` for a single repairable instance.
* :class:`MarkovChain` — a generic continuous-time Markov chain with a
  numpy-based stationary-distribution solver.
* :func:`two_replica_availability` — the standard 3-state birth–death model
  of a duplexed system with independent (parallel) repair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sim.clock import YEARS


def steady_state_availability(mtbf: float, mttr: float) -> float:
    """``A = MTBF / (MTBF + MTTR)`` — single repairable component."""
    if mtbf <= 0:
        raise ValueError(f"MTBF must be positive, got {mtbf}")
    if mttr < 0:
        raise ValueError(f"MTTR cannot be negative, got {mttr}")
    return mtbf / (mtbf + mttr)


def availability_from_rates(fault_rate: float, recovery_time: float) -> float:
    """Availability of one instance at ``fault_rate`` faults/second.

    Equivalent to :func:`steady_state_availability` with
    ``MTBF = 1 / fault_rate``: ``A = 1 / (1 + λ·MTTR)``.
    """
    if fault_rate < 0:
        raise ValueError(f"fault rate cannot be negative, got {fault_rate}")
    if recovery_time < 0:
        raise ValueError(f"recovery time cannot be negative, got {recovery_time}")
    if fault_rate == 0:
        return 1.0
    return 1.0 / (1.0 + fault_rate * recovery_time)


class MarkovChain:
    """A finite CTMC described by its generator matrix.

    ``rates[i][j]`` is the transition rate from state ``i`` to state ``j``
    (diagonal entries are ignored and rebuilt so rows sum to zero).
    """

    def __init__(self, rates: Sequence[Sequence[float]], labels: Sequence[str]) -> None:
        matrix = np.asarray(rates, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"rate matrix must be square, got {matrix.shape}")
        if len(labels) != matrix.shape[0]:
            raise ValueError("one label per state required")
        if (matrix < 0).any() and not np.allclose(
            matrix[matrix < 0], np.diag(matrix)[np.diag(matrix) < 0]
        ):
            raise ValueError("off-diagonal rates must be non-negative")
        generator = matrix.copy()
        np.fill_diagonal(generator, 0.0)
        np.fill_diagonal(generator, -generator.sum(axis=1))
        self.generator = generator
        self.labels = list(labels)

    def stationary_distribution(self) -> dict[str, float]:
        """Solve ``πQ = 0`` with ``Σπ = 1`` (least squares, well-posed for
        irreducible chains)."""
        n = self.generator.shape[0]
        # augment with the normalisation constraint
        a = np.vstack([self.generator.T, np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        return dict(zip(self.labels, pi.tolist()))

    def probability(self, *states: str) -> float:
        distribution = self.stationary_distribution()
        return sum(distribution[s] for s in states)


def two_replica_availability(
    node_fault_rate: float,
    node_repair_time: float,
    failover_time: float = 0.0,
) -> float:
    """Availability of a duplexed deployment with parallel repair.

    States: ``2up → 1up`` at ``2λ``, ``1up → 0up`` at ``λ``; repairs
    ``1up → 2up`` at ``µ`` and ``0up → 1up`` at ``2µ``. Service is up in
    states ``2up``/``1up`` minus the transient failover window charged per
    node-failure event (rate ``2λ·π₂ + λ·π₁`` ≈ downtime ``rate × failover``).
    """
    if node_fault_rate < 0 or node_repair_time <= 0:
        raise ValueError("need non-negative fault rate and positive repair time")
    if node_fault_rate == 0:
        return 1.0
    lam = node_fault_rate
    mu = 1.0 / node_repair_time
    chain = MarkovChain(
        [
            [0.0, 2 * lam, 0.0],
            [mu, 0.0, lam],
            [0.0, 2 * mu, 0.0],
        ],
        labels=["2up", "1up", "0up"],
    )
    distribution = chain.stationary_distribution()
    base_availability = distribution["2up"] + distribution["1up"]
    failure_event_rate = 2 * lam * distribution["2up"]
    failover_unavailability = min(1.0, failure_event_rate * failover_time)
    return max(0.0, base_availability - failover_unavailability)


def expected_yearly_downtime(fault_rate_per_year: float, recovery_time: float) -> float:
    """E[downtime] per year for a single instance (small-unavailability
    regime, matching the paper's back-of-envelope)."""
    if fault_rate_per_year < 0 or recovery_time < 0:
        raise ValueError("rates and times must be non-negative")
    availability = availability_from_rates(fault_rate_per_year / YEARS, recovery_time)
    return (1.0 - availability) * YEARS
