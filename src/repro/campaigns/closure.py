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

Measurement and prediction share the same availability formula
(:func:`repro.campaigns.decision.downtime_per_fault` structure) evaluated
at the same threat rate, so a validation failure means the *sampled
quantities* (containment probability, recovery time, per-recovery carbon)
drifted outside their intervals — exactly the claim being validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faultinj.injector import FaultInjector
from ..faultinj.models import NEEDS_ADDRESS
from ..obs.hub import Observability
from ..obs.ledger import SustainabilityLedger
from ..sdrad.policy import ProcessCrashed, RecoveryPolicy, make_policy
from ..sdrad.runtime import DomainHandle, SdradRuntime
from ..sim.clock import YEARS, VirtualClock
from ..sim.rng import RngFactory
from .decision import PolicyAssignment
from .model import CampaignModel
from .sampler import draw_severity, phase_prelude
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
    model: CampaignModel,
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
    d_rst = config.cost.process_restart_time(config.dataset_bytes)

    for domain in config.domains:
        policy_name = assignment.policies[domain]
        inputs = assignment.inputs[domain]
        rng = factory.child(f"validate/{domain}").stream("severity")
        prelude_rng = factory.child(f"validate/{domain}").stream("prelude")

        clock = VirtualClock()
        obs = Observability(clock=clock)

        def boot() -> "tuple[SdradRuntime, FaultInjector, int, int]":
            runtime = SdradRuntime(
                clock=clock,
                cost=config.cost,
                obs=obs,
                backend=assignment.backend,
                default_policy=build_policy(policy_name, config),
            )
            victim = runtime.domain_init()
            app = runtime.domain_init()
            return runtime, FaultInjector(runtime), victim.udi, app.udi

        runtime, injector, victim_udi, app_udi = boot()
        index = config.domain_index(domain)
        heap_size = max(64 * 1024, 256 * 1024 >> index)
        spacing = config.round_horizon / config.batch
        op = config.cost.memcached_op

        downtime_total = 0.0
        contained = 0
        for i in range(config.validation_injections):
            target_time = (i + 0.5) * spacing
            if target_time > clock.now:
                clock.advance_to(target_time)

            def body(handle: DomainHandle) -> None:
                handle.charge(op)

            for _ in range(config.background_requests):
                result = runtime.execute(app_udi, body)
                obs.record_request("campaign", result.elapsed)

            kind, phase = cells[i % len(cells)]
            severity = draw_severity(kind, rng)
            prelude = phase_prelude(phase, prelude_rng)
            victim_addr = None
            if kind in NEEDS_ADDRESS:
                victim_addr = runtime.domain(victim_udi).heap_base + 64
            target = runtime.domain_init(heap_size=heap_size)
            try:
                result = injector.inject(
                    target.udi,
                    kind,
                    victim_addr=victim_addr,
                    prelude=prelude,
                    **severity,
                )
            except ProcessCrashed:
                # The abort baseline: the whole process restarts. Model the
                # reload window and boot a fresh process on the same clock.
                downtime_total += d_rst
                clock.advance(d_rst)
                runtime, injector, victim_udi, app_udi = boot()
                continue
            if result.contained:
                contained += 1
                cost_here = result.recovery_time
                if policy_name == "quarantine":
                    # The embargo window is unavailability, and only the
                    # modelled struck fraction of faults reaches the domain
                    # at all — same threat model as the prediction.
                    cost_here = config.quarantine_suppression * (
                        cost_here + config.quarantine_window
                    )
                downtime_total += cost_here
            else:
                # Undetected corruption surfaces as an eventual restart —
                # the same accounting the decision layer charges (1-p) with.
                downtime_total += d_rst
            runtime.domain_destroy(target.udi)

        n = config.validation_injections
        measured_availability = 1.0 - lam * downtime_total / n
        # The validation sample's own binomial noise, propagated through
        # the measured mean per-contained charge.
        c_bar = (
            (downtime_total - (n - contained) * d_rst) / contained
            if contained
            else 0.0
        )
        p_ci = clopper_pearson(contained, n, config.confidence)

        def avail_at(p: float) -> float:
            return 1.0 - lam * (p * c_bar + (1.0 - p) * d_rst)

        corners = (avail_at(p_ci.lo), avail_at(p_ci.hi))
        measured_interval = ConfidenceInterval(
            min(corners), measured_availability, max(corners)
        )
        predicted_availability = _predicted_availability(assignment, domain)

        measured_g: Optional[float] = None
        ledger = SustainabilityLedger(
            obs.registry,
            clock,
            cost=config.cost,
            dataset_bytes=config.dataset_bytes,
            isolation_backend=assignment.backend,
        )
        if ledger.faults_observed() > 0 and ledger.requests_served() > 0:
            rewind_entry = ledger.entries()[0]
            measured_g = rewind_entry.recovery_gco2e / rewind_entry.faults
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
