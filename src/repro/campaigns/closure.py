"""Closing the loop: apply the recommendation and re-measure it.

The decision layer's output is only trustworthy if a *fresh* campaign run
under the recommended policies lands where the model said it would. This
module:

1. turns a :class:`PolicyAssignment` into live
   :class:`~repro.sdrad.policy.RecoveryPolicy` objects and installs them as
   runtime defaults (:func:`apply_assignment`) and as a fleet driver config
   (:func:`fleet_config_for`);
2. runs a short validation campaign per domain under its assigned policy,
   measuring downtime per fault and per-recovery gCO₂e off a live ledger
   (:func:`validate_assignment`);
3. checks the re-measured availability and carbon fall inside the model's
   predicted confidence intervals.

Each validation injection runs in the sampler's
:class:`~repro.campaigns.sampler.InjectionProcess`, and each measured
recovery is charged through the policy's row of
:func:`repro.campaigns.decision.cost_table` at the same threat rate as the
prediction, so a validation failure means the *sampled quantities*
(containment probability, recovery time, per-recovery carbon) drifted
outside their intervals — exactly the claim being validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sdrad.policy import ProcessCrashed, RecoveryPolicy, make_policy
from ..sim.clock import YEARS
from ..sim.rng import RngFactory
from .decision import PolicyAssignment, policy_cost
from .sampler import InjectionProcess, draw_severity, phase_prelude
from .stats import ConfidenceInterval, clopper_pearson
from .strata import CampaignConfig


def build_policy(name: str, config: CampaignConfig) -> RecoveryPolicy:
    """Instantiate an assigned policy with the campaign's parameters."""
    if name == "retry":
        return make_policy(
            "retry",
            max_retries=config.retry_budget,
            base_backoff=config.retry_backoff,
        )
    return make_policy(name)


def apply_assignment(
    assignment: PolicyAssignment, config: CampaignConfig
) -> "Dict[str, RecoveryPolicy]":
    """The assignment as live policy objects, one per domain."""
    return {
        domain: build_policy(name, config)
        for domain, name in assignment.policies.items()
    }


def fleet_config_for(
    assignment: PolicyAssignment,
    config: CampaignConfig,
    **overrides: object,
):
    """A :class:`~repro.fleet.driver.FleetRunConfig` carrying the assignment.

    Campaign domains are named like fleet shards on purpose: the per-domain
    recommendation becomes the per-shard ``recovery_policies`` map, with the
    first domain's policy doubling as the default for any extra shards.
    """
    from ..fleet.driver import FleetRunConfig

    policies = dict(assignment.policies)
    policies.setdefault(
        "default", assignment.policies[config.domains[0]]
    )
    kwargs: dict = {
        "shards": max(2, len(config.domains)),
        "seed": config.seed,
        "recovery_policies": policies,
    }
    kwargs.update(overrides)
    return FleetRunConfig(**kwargs)


@dataclass
class DomainValidation:
    """Re-measured vs predicted figures for one domain."""

    domain: str
    policy: str
    injections: int
    contained: int
    measured_availability: float
    #: The validation run is itself a finite sample: its containment count
    #: carries binomial noise, so the measured availability gets its own
    #: Clopper–Pearson-derived interval and the check is interval *overlap*
    #: (statistical compatibility), not point-in-interval.
    measured_interval: ConfidenceInterval
    predicted_availability: ConfidenceInterval
    availability_ok: bool
    measured_gco2e_per_recovery: Optional[float]
    predicted_gco2e_per_recovery: ConfidenceInterval
    gco2e_ok: bool

    def as_dict(self) -> dict:
        return {
            "domain": self.domain,
            "policy": self.policy,
            "injections": self.injections,
            "contained": self.contained,
            "measured_availability": self.measured_availability,
            "measured_interval": self.measured_interval.as_dict(),
            "predicted_availability": self.predicted_availability.as_dict(),
            "availability_ok": self.availability_ok,
            "measured_gco2e_per_recovery": self.measured_gco2e_per_recovery,
            "predicted_gco2e_per_recovery": (
                self.predicted_gco2e_per_recovery.as_dict()
            ),
            "gco2e_ok": self.gco2e_ok,
        }


@dataclass
class ValidationReport:
    """The closed loop's verdict."""

    backend: str
    domains: List[DomainValidation] = field(default_factory=list)
    fleet: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(d.availability_ok and d.gco2e_ok for d in self.domains)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "ok": self.ok,
            "domains": [d.as_dict() for d in self.domains],
            "fleet": self.fleet,
        }


def _predicted_availability(
    assignment: PolicyAssignment, domain: str
) -> ConfidenceInterval:
    for score in assignment.scores:
        if score.domain == domain and score.policy == assignment.policies[domain]:
            return score.availability
    raise KeyError(f"no score for domain {domain!r}")


def validate_assignment(
    assignment: PolicyAssignment,
    config: CampaignConfig,
    run_fleet: bool = True,
) -> ValidationReport:
    """Re-run a short campaign under the recommended policies and compare."""
    report = ValidationReport(backend=assignment.backend)
    factory = RngFactory(config.seed)
    lam = config.faults_per_year / YEARS
    cells = [
        (kind, phase) for kind in config.kinds for phase in config.phases
    ]
    spacing = config.round_horizon / config.batch

    for domain in config.domains:
        policy_name = assignment.policies[domain]
        cost = policy_cost(policy_name, config)
        inputs = assignment.inputs[domain]
        d_rst = inputs.restart_downtime
        rng = factory.child(f"validate/{domain}").stream("severity")
        prelude_rng = factory.child(f"validate/{domain}").stream("prelude")
        process = InjectionProcess(
            config,
            domain,
            assignment.backend,
            default_policy=build_policy(policy_name, config),
        )

        downtime_total = 0.0
        contained = 0
        for i in range(config.validation_injections):
            process.wait_until((i + 0.5) * spacing)
            process.serve(config.background_requests)
            kind, phase = cells[i % len(cells)]
            severity = draw_severity(kind, rng)
            prelude = phase_prelude(phase, prelude_rng)
            try:
                result = process.inject(kind, severity, prelude)
            except ProcessCrashed:
                # The abort baseline: the whole process restarts.
                downtime_total += d_rst
                process.restart(d_rst)
                continue
            if result.contained:
                # The measured recovery already includes any retries and
                # their backoff; the table adds the struck share and window.
                contained += 1
                downtime_total += cost.downtime(1.0, result.recovery_time)
            else:
                # Undetected corruption surfaces as an eventual restart —
                # the same accounting the decision layer charges (1-p) with.
                downtime_total += d_rst

        n = config.validation_injections
        measured_availability = 1.0 - lam * downtime_total / n
        # The validation sample's own binomial noise, propagated through
        # the measured mean per-contained charge (with none contained, the
        # row's charge at the predicted recovery). A policy that contains
        # nothing has no such noise: every fault pays a restart.
        c_bar = (
            (downtime_total - (n - contained) * d_rst) / contained
            if contained
            else cost.downtime(1.0, cost.busy(inputs.recovery_seconds.mid))
        )
        p_ci = clopper_pearson(contained, n, config.confidence)

        def avail_at(p: float) -> float:
            return 1.0 - lam * (p * c_bar + (1.0 - p) * d_rst)

        mid = measured_availability
        corners = (avail_at(p_ci.lo), avail_at(p_ci.hi)) if cost.contains else (mid,)
        measured_interval = ConfidenceInterval(min(corners), mid, max(corners))
        predicted_availability = _predicted_availability(assignment, domain)

        measured_g: Optional[float] = None
        entries = process.ledger_entries()
        if entries is not None:
            measured_g = entries[0].recovery_gco2e / entries[0].faults
        predicted_g = inputs.rewind_gco2e_per_recovery
        gco2e_ok = measured_g is None or predicted_g.contains(measured_g)

        report.domains.append(
            DomainValidation(
                domain=domain,
                policy=policy_name,
                injections=config.validation_injections,
                contained=contained,
                measured_availability=measured_availability,
                measured_interval=measured_interval,
                predicted_availability=predicted_availability,
                availability_ok=predicted_availability.overlaps(
                    measured_interval
                ),
                measured_gco2e_per_recovery=measured_g,
                predicted_gco2e_per_recovery=predicted_g,
                gco2e_ok=gco2e_ok,
            )
        )

    if run_fleet:
        from ..fleet.driver import run_fleet as _run_fleet

        fleet_cfg = fleet_config_for(
            assignment,
            config,
            keyspace=10_000,
            rate=2_000.0,
            horizon=0.25,
            preload=200,
        )
        fleet_report = _run_fleet(fleet_cfg)
        report.fleet = {
            "requested": dict(fleet_cfg.recovery_policies or {}),
            "applied": dict(fleet_report.recovery_policies),
            "availability": fleet_report.availability,
            "served": fleet_report.served,
        }
    return report
