"""MCDM policy selection: availability SLO × carbon budget × latency.

For the decision backend and each target domain, four candidate recovery
policies (rewind, retry with backoff, quarantine, restart) are scored from
the fitted model. Each policy is one row of :func:`cost_table`, which both
the downtime and the carbon formula read; uncontained (undetected) faults
are assumed to surface as an eventual process restart under every policy.

Availability is time-based against the configured threat rate λ:
``availability = 1 − λ · E[downtime per fault]``. Carbon is the annualised
gCO₂e of the recoveries themselves, using the ledger-fitted per-recovery
footprint for rewinds and the sampled restart footprint for restarts.
Interval arithmetic propagates the model's containment and recovery CIs to
per-policy availability/carbon intervals; the closure charges each
measured recovery through the same table row, which is what makes
prediction and re-measurement comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.clock import YEARS
from .model import CampaignModel
from .sampler import StratumAccumulator
from .stats import ConfidenceInterval
from .strata import CampaignConfig, Stratum

POLICY_ORDER = ("rewind", "retry", "quarantine", "restart")


@dataclass(frozen=True)
class PolicyInputs:
    """The per-(domain, backend) quantities every policy is scored from."""

    containment: ConfidenceInterval
    recovery_seconds: ConfidenceInterval
    rewind_gco2e_per_recovery: ConfidenceInterval
    restart_downtime: float
    restart_gco2e_per_fault: float


@dataclass(frozen=True)
class PolicyCost:
    """One policy's row of the cost table.

    A contained fault takes ``attempts`` rewinds plus ``backoff`` seconds
    of idle wait; only the ``struck`` fraction of faults reaches the domain,
    and each that does is also unavailable for ``window`` seconds. The
    faults a policy does not contain (all of them, if ``contains`` is
    false) pay a process restart.
    """

    attempts: float = 1.0
    backoff: float = 0.0
    struck: float = 1.0
    window: float = 0.0
    contains: bool = True

    def busy(self, recovery: float) -> float:
        """Seconds a contained fault is busy at ``recovery`` s per rewind."""
        return recovery * self.attempts + self.backoff

    def downtime(self, p: float, busy: float) -> float:
        """Unavailable seconds of a ``p`` share of faults contained, each
        keeping the domain busy for ``busy`` seconds."""
        return p * self.struck * (busy + self.window)


def cost_table(config: CampaignConfig) -> "Dict[str, PolicyCost]":
    """Every candidate policy's cost row at ``config``'s parameters."""
    transient = config.transient_fraction
    persistent = 1.0 - transient
    base = config.retry_backoff
    return {
        "rewind": PolicyCost(),
        # Persistent faults exhaust the retry budget (each attempt rewinds
        # again); transient ones succeed after one extra rewind. Backoff is
        # downtime (at 100µs it dwarfs the 3.5µs rewind, so omitting it
        # would make closure unvalidatable) but, as idle wait, no carbon.
        "retry": PolicyCost(
            attempts=1.0 + config.retry_budget * persistent + transient,
            backoff=transient * base
            + persistent * base * (2.0 ** config.retry_budget - 1.0),
        ),
        # A re-entry embargo sheds repeat strikes: only the suppression share
        # of contained faults costs anything, plus the window's downtime.
        "quarantine": PolicyCost(
            struck=config.quarantine_suppression, window=config.quarantine_window
        ),
        # The abort baseline: every detected fault kills the process.
        "restart": PolicyCost(contains=False),
    }


def policy_cost(policy: str, config: CampaignConfig) -> PolicyCost:
    """``policy``'s row of :func:`cost_table`."""
    try:
        return cost_table(config)[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None


def downtime_per_fault(
    policy: str, p: float, recovery: float, inputs: PolicyInputs, config: CampaignConfig
) -> float:
    """Expected service-unavailable seconds per arriving fault."""
    cost = policy_cost(policy, config)
    if not cost.contains:
        return inputs.restart_downtime
    return cost.downtime(p, cost.busy(recovery)) + (1.0 - p) * inputs.restart_downtime


def carbon_per_fault(
    policy: str, p: float, rewind_g: float, inputs: PolicyInputs, config: CampaignConfig
) -> float:
    """Expected recovery gCO₂e per arriving fault."""
    cost = policy_cost(policy, config)
    if not cost.contains:
        return inputs.restart_gco2e_per_fault
    contained = p * cost.struck * rewind_g * cost.attempts
    return contained + (1.0 - p) * inputs.restart_gco2e_per_fault


def _interval_over(
    fn, p: ConfidenceInterval, second: ConfidenceInterval
) -> ConfidenceInterval:
    """Propagate two input intervals through a scalar formula.

    The formulas are monotone in each argument over [lo, hi], so evaluating
    the four corners bounds the output exactly.
    """
    corners = [
        fn(pp, ss)
        for pp in (p.lo, p.hi)
        for ss in (second.lo, second.hi)
    ]
    return ConfidenceInterval(min(corners), fn(p.mid, second.mid), max(corners))


@dataclass
class PolicyScore:
    """One candidate policy for one domain, fully evaluated."""

    domain: str
    policy: str
    availability: ConfidenceInterval
    carbon_g_per_year: ConfidenceInterval
    expected_downtime_per_fault: float
    feasible: bool
    score: float
    pareto: bool = False

    def as_dict(self) -> dict:
        return {
            "domain": self.domain,
            "policy": self.policy,
            "availability": self.availability.as_dict(),
            "carbon_g_per_year": self.carbon_g_per_year.as_dict(),
            "expected_downtime_per_fault": self.expected_downtime_per_fault,
            "feasible": self.feasible,
            "score": self.score,
            "pareto": self.pareto,
        }


@dataclass
class PolicyAssignment:
    """The recommendation: one policy per domain plus the full scoreboard."""

    backend: str
    policies: Dict[str, str]
    scores: List[PolicyScore]
    slo: float
    carbon_budget_g_per_year: float
    inputs: Dict[str, PolicyInputs]
    feasible: bool

    def pareto_front(self, domain: str) -> "list[PolicyScore]":
        return [s for s in self.scores if s.domain == domain and s.pareto]

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "policies": dict(self.policies),
            "slo": self.slo,
            "carbon_budget_g_per_year": self.carbon_budget_g_per_year,
            "feasible": self.feasible,
            "scores": [s.as_dict() for s in self.scores],
        }


def domain_inputs(
    model: CampaignModel,
    config: CampaignConfig,
    accumulators: "Dict[str, StratumAccumulator]",
    domain: str,
    backend: str,
) -> PolicyInputs:
    """Aggregate model predictions over the domain's fault-kind × phase cells."""
    cells = [
        Stratum(kind=k, domain=domain, phase=ph, backend=backend)
        for k in config.kinds
        for ph in config.phases
    ]

    def mean_interval(intervals: "list[ConfidenceInterval]") -> ConfidenceInterval:
        n = len(intervals)
        return ConfidenceInterval(
            sum(i.lo for i in intervals) / n,
            sum(i.mid for i in intervals) / n,
            sum(i.hi for i in intervals) / n,
        )

    containment = mean_interval([model.predict_containment(c) for c in cells])
    recovery = mean_interval([model.predict_recovery(c) for c in cells])
    gco2e_predictions = [model.predict_gco2e(c) for c in cells]
    gco2e_predictions = [g for g in gco2e_predictions if g is not None]
    if gco2e_predictions:
        rewind_g = mean_interval(gco2e_predictions)
    else:
        rewind_g = ConfidenceInterval(0.0, 0.0, 0.0)

    # Restart figures are sampled (deterministic per backend), not fitted:
    # average the ledger's per-fault restart footprint over the cells.
    restart_samples = [
        accumulators[c.key].restart_gco2e_per_fault()
        for c in cells
        if c.key in accumulators
    ]
    restart_samples = [s for s in restart_samples if s is not None]
    restart_g = (
        sum(restart_samples) / len(restart_samples) if restart_samples else 0.0
    )
    restart_downtime = config.cost.process_restart_time(config.dataset_bytes)
    return PolicyInputs(
        containment=containment,
        recovery_seconds=recovery,
        rewind_gco2e_per_recovery=rewind_g,
        restart_downtime=restart_downtime,
        restart_gco2e_per_fault=restart_g,
    )


def score_policies(
    inputs: PolicyInputs, domain: str, config: CampaignConfig
) -> "list[PolicyScore]":
    lam = config.faults_per_year / YEARS
    scores: List[PolicyScore] = []
    w_avail, w_carbon, w_latency = config.score_weights
    d_rst = inputs.restart_downtime
    for policy in POLICY_ORDER:
        downtime = _interval_over(
            lambda p, r: downtime_per_fault(policy, p, r, inputs, config),
            inputs.containment,
            inputs.recovery_seconds,
        )
        carbon_fault = _interval_over(
            lambda p, g: carbon_per_fault(policy, p, g, inputs, config),
            inputs.containment,
            inputs.rewind_gco2e_per_recovery,
        )
        # Downtime hurts availability: the interval flips.
        availability = ConfidenceInterval(
            1.0 - lam * downtime.hi,
            1.0 - lam * downtime.mid,
            1.0 - lam * downtime.lo,
        )
        carbon_year = ConfidenceInterval(
            config.faults_per_year * carbon_fault.lo,
            config.faults_per_year * carbon_fault.mid,
            config.faults_per_year * carbon_fault.hi,
        )
        feasible = (
            availability.mid >= config.slo
            and carbon_year.mid <= config.carbon_budget_g_per_year
        )
        norm_avail = (availability.mid - config.slo) / max(1e-12, 1.0 - config.slo)
        norm_avail = min(1.0, max(0.0, norm_avail))
        norm_carbon = (
            config.carbon_budget_g_per_year - carbon_year.mid
        ) / config.carbon_budget_g_per_year
        norm_carbon = min(1.0, max(0.0, norm_carbon))
        norm_latency = 1.0 - min(1.0, downtime.mid / d_rst) if d_rst > 0 else 1.0
        score = w_avail * norm_avail + w_carbon * norm_carbon + w_latency * norm_latency
        scores.append(
            PolicyScore(
                domain=domain,
                policy=policy,
                availability=availability,
                carbon_g_per_year=carbon_year,
                expected_downtime_per_fault=downtime.mid,
                feasible=feasible,
                score=score,
            )
        )
    _mark_pareto(scores)
    return scores


def _mark_pareto(scores: "list[PolicyScore]") -> None:
    """Non-dominated set on (availability ↑, carbon ↓, downtime ↓)."""
    for cand in scores:
        dominated = False
        for other in scores:
            if other is cand:
                continue
            no_worse = (
                other.availability.mid >= cand.availability.mid
                and other.carbon_g_per_year.mid <= cand.carbon_g_per_year.mid
                and other.expected_downtime_per_fault
                <= cand.expected_downtime_per_fault
            )
            strictly_better = (
                other.availability.mid > cand.availability.mid
                or other.carbon_g_per_year.mid < cand.carbon_g_per_year.mid
                or other.expected_downtime_per_fault
                < cand.expected_downtime_per_fault
            )
            if no_worse and strictly_better:
                dominated = True
                break
        cand.pareto = not dominated


def recommend(
    model: CampaignModel,
    config: CampaignConfig,
    accumulators: "Dict[str, StratumAccumulator]",
) -> PolicyAssignment:
    """Pick one policy per domain for the decision backend."""
    backend = config.decision_backend or config.backends[0]
    policies: Dict[str, str] = {}
    all_scores: List[PolicyScore] = []
    all_inputs: Dict[str, PolicyInputs] = {}
    overall_feasible = True
    for domain in config.domains:
        inputs = domain_inputs(model, config, accumulators, domain, backend)
        all_inputs[domain] = inputs
        scores = score_policies(inputs, domain, config)
        all_scores.extend(scores)
        feasible = [s for s in scores if s.feasible]
        if feasible:
            # Highest score wins; ties go to the earlier policy in
            # POLICY_ORDER (the list is already in that order, and max()
            # keeps the first of equals).
            best = max(feasible, key=lambda s: s.score)
        else:
            overall_feasible = False
            best = max(scores, key=lambda s: s.availability.mid)
        policies[domain] = best.policy
    return PolicyAssignment(
        backend=backend,
        policies=policies,
        scores=all_scores,
        slo=config.slo,
        carbon_budget_g_per_year=config.carbon_budget_g_per_year,
        inputs=all_inputs,
        feasible=overall_feasible,
    )
