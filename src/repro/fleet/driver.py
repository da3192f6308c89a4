"""End-to-end fleet runs: open-loop arrivals against the sharded fleet.

This is the experiment driver behind ``python -m repro fleet`` and the
``fleet_run`` section of the PR7 bench. It wires the full stack together:

* **workload** — open-loop Poisson arrivals
  (:class:`~repro.faultinj.campaign.PoissonArrivals`) over a Zipf-skewed
  key population (:class:`~repro.workloads.zipf.KeyValueWorkload`,
  default 10^6 keys),
  with a configurable get/set/multiget op mix;
* **serving** — the consistent-hash :class:`~repro.fleet.balancer.Fleet`
  with health-checked failover and optional arrival-driven autoscaling;
* **queueing** — shards share one virtual clock (a cost accumulator), so
  the driver keeps a per-shard *completion frontier* (``free_at``):
  a sub-request arriving at ``t`` starts at ``max(t, free_at)``, runs for
  its measured virtual service time, and pushes the frontier. Request
  latency is queueing wait plus service; a scatter completes when its
  slowest sub-batch does. This is an M/G/k-style model where the ring,
  not a central queue, picks the server;
* **reporting** — latencies stream into the fine-grained
  ``fleet_request_latency_seconds`` histogram (p50/p99/p999 via
  interpolated quantiles), availability comes from the front-end's own
  accounting, and the rewind-vs-process-restart energy/carbon figures
  come from :class:`~repro.obs.ledger.SustainabilityLedger` over the same
  registry the shards recorded into.

Everything is seeded through one :class:`~repro.sim.rng.RngFactory`, so a
run — including failover timing and every autoscale decision — is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..faultinj.campaign import PoissonArrivals
from ..obs.hub import Observability
from ..obs.ledger import SustainabilityLedger
from ..obs.metrics import FLEET_LATENCY_BUCKETS, BucketHistogram
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.rng import RngFactory
from ..workloads.zipf import KeyValueWorkload, Keyspace
from .autoscaler import Autoscaler, AutoscalerConfig
from .balancer import Fleet
from .health import HealthConfig, HealthMonitor
from .ring import DEFAULT_VNODES


@dataclass
class FleetRunConfig:
    """One fleet experiment, fully determined by its fields."""

    shards: int = 4
    vnodes: int = DEFAULT_VNODES
    seed: int = 0
    #: Key population size (the paper-scale default is 10^6 users).
    keyspace: int = 1_000_000
    #: Zipf skew of key popularity.
    skew: float = 0.99
    #: Open-loop arrival rate, requests per virtual second.
    rate: float = 5_000.0
    #: Virtual seconds of arrivals to generate.
    horizon: float = 2.0
    #: Op mix: fractions of arrivals that are multigets / sets; the
    #: remainder are single-key gets.
    multiget_fraction: float = 0.3
    set_fraction: float = 0.2
    multiget_size: int = 8
    #: Hottest ranks bulk-loaded before the run (scatter pipelines).
    preload: int = 2_000
    #: Enable the arrival-driven autoscaler.
    autoscale: bool = False
    autoscaler_config: Optional[AutoscalerConfig] = None
    #: Autoscaler evaluation window, virtual seconds.
    window: float = 0.25
    health_config: Optional[HealthConfig] = None
    #: Fault injection: kill ``kill_shard`` at ``kill_at`` for ``outage``
    #: virtual seconds (None disables).
    kill_at: Optional[float] = None
    kill_shard: str = "shard-0"
    outage: float = 0.5
    cost: CostModel = DEFAULT_COST_MODEL
    #: Per-shard recovery-policy names from a campaign
    #: :class:`~repro.campaigns.decision.PolicyAssignment` (key "default"
    #: covers unlisted shards); None keeps the runtime's rewind default.
    recovery_policies: "Optional[dict[str, str]]" = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.keyspace < 1:
            raise ValueError(f"keyspace must be positive, got {self.keyspace}")
        if not (0 < self.rate < math.inf and 0 < self.horizon < math.inf):
            raise ValueError(
                f"rate and horizon must be positive and finite, got "
                f"rate={self.rate} horizon={self.horizon}"
            )
        if self.multiget_fraction < 0 or self.set_fraction < 0:
            raise ValueError("op-mix fractions cannot be negative")
        if self.multiget_fraction + self.set_fraction > 1.0:
            raise ValueError(
                f"op-mix fractions exceed 1: multiget={self.multiget_fraction} "
                f"set={self.set_fraction}"
            )
        if self.multiget_size < 1:
            raise ValueError(
                f"multiget size must be >= 1, got {self.multiget_size}"
            )
        if self.kill_at is not None and self.outage <= 0:
            raise ValueError(f"outage must be positive, got {self.outage}")


@dataclass
class FleetRunReport:
    """What one run produced; ``as_dict`` is the bench/CLI surface."""

    shards_start: int
    shards_final: int
    ops: int
    served: int
    errors: int
    availability: float
    p50: float
    p99: float
    p999: float
    mean_latency: float
    multigets: int
    scatter_batches: int
    scatter_keys: int
    failovers: int
    rejoins: int
    restarts: int
    items: int
    #: ``(virtual time, shard count before, delta)`` per autoscale action.
    autoscale_decisions: "list[tuple[float, int, int]]"
    #: Rewind vs process-restart sustainability figures.
    ledger: "list[dict]"
    fleet: Fleet = field(repr=False, compare=False)
    #: The recovery policy each shard's runtime actually booted with.
    recovery_policies: "dict[str, str]" = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "shards_start": self.shards_start,
            "shards_final": self.shards_final,
            "ops": self.ops,
            "served": self.served,
            "errors": self.errors,
            "availability": self.availability,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "mean_latency": self.mean_latency,
            "multigets": self.multigets,
            "scatter_batches": self.scatter_batches,
            "scatter_keys": self.scatter_keys,
            "failovers": self.failovers,
            "rejoins": self.rejoins,
            "restarts": self.restarts,
            "items": self.items,
            "autoscale_decisions": [
                list(decision) for decision in self.autoscale_decisions
            ],
            "ledger": self.ledger,
            "recovery_policies": dict(self.recovery_policies),
        }

    def format(self) -> str:
        lines = [
            f"shards               {self.shards_start} -> {self.shards_final}",
            f"ops                  {self.ops} "
            f"({self.multigets} multigets -> {self.scatter_batches} "
            f"scatter batches / {self.scatter_keys} keys)",
            f"availability         {self.availability:.6f} "
            f"({self.served} served, {self.errors} errors)",
            f"latency p50/p99/p999 {self.p50 * 1e6:.1f} / "
            f"{self.p99 * 1e6:.1f} / {self.p999 * 1e6:.1f} us",
            f"failovers/rejoins    {self.failovers}/{self.rejoins} "
            f"({self.restarts} shard restarts)",
            f"items resident       {self.items}",
        ]
        if self.autoscale_decisions:
            steps = ", ".join(
                f"t={t:.2f}s {count}{'+' if delta > 0 else '-'}1"
                for t, count, delta in self.autoscale_decisions
            )
            lines.append(f"autoscale            {steps}")
        for entry in self.ledger:
            lines.append(
                f"ledger[{entry['strategy']}]   "
                f"{entry['joules_per_request'] * 1e3:.4f} mJ/req, "
                f"{entry['gco2e_per_request'] * 1e6:.4f} ugCO2e/req, "
                f"recovery {entry['recovery_seconds']:.3f}s"
            )
        return "\n".join(lines)


def run_fleet(config: "FleetRunConfig" = None) -> FleetRunReport:  # type: ignore[assignment]
    """Run one seeded fleet experiment and report the results."""
    cfg = config if config is not None else FleetRunConfig()
    clock = VirtualClock()
    obs = Observability(clock=clock)
    fleet = Fleet(
        cfg.shards,
        vnodes=cfg.vnodes,
        seed=cfg.seed,
        clock=clock,
        cost=cfg.cost,
        obs=obs,
        recovery_policies=cfg.recovery_policies,
    )
    HealthMonitor(fleet, cfg.health_config)
    scaler = Autoscaler(cfg.autoscaler_config) if cfg.autoscale else None

    rngs = RngFactory(cfg.seed)
    keyspace = Keyspace(cfg.keyspace)
    workload = KeyValueWorkload(keyspace, cfg.skew, rngs.stream("fleet.keys"))
    op_rng = rngs.stream("fleet.opmix")
    arrivals = PoissonArrivals(cfg.rate, rngs.stream("fleet.arrivals"))
    latency = obs.registry.histogram("fleet_request_latency_seconds")

    if cfg.preload:
        ranks = min(cfg.preload, cfg.keyspace)
        fleet.set_many(
            [(keyspace.key(rank), workload.next_value()) for rank in range(ranks)]
        )

    killed = cfg.kill_at is None
    window_started = 0.0
    window_arrivals = 0
    window_service = 0.0
    window_hist = BucketHistogram("fleet_window", FLEET_LATENCY_BUCKETS)

    for t in arrivals.times(cfg.horizon):
        # The shared clock tracks arrival (wall) time; serving costs accrue
        # on top of it, so under overload it can already sit past ``t``.
        if t > clock.now:
            clock.advance_to(t)
        if not killed and t >= cfg.kill_at:
            fleet.shards[cfg.kill_shard].kill(cfg.outage)
            killed = True
        fleet.health.tick(t)

        draw = op_rng.random()
        if draw < cfg.multiget_fraction:
            fleet.multiget(
                [workload.next_key() for _ in range(cfg.multiget_size)]
            )
        elif draw < cfg.multiget_fraction + cfg.set_fraction:
            fleet.set(workload.next_key(), workload.next_value())
        else:
            fleet.get(workload.next_key())

        # Queueing: each sub-request joins its shard's queue; the request
        # completes when its slowest sub-batch does.
        completion = t
        for name, service in fleet.last_op_services:
            shard = fleet.shards[name]
            done = max(t, shard.free_at) + service
            shard.free_at = done
            if done > completion:
                completion = done
        observed = completion - t
        latency.observe(observed)
        window_hist.observe(observed)
        window_arrivals += 1
        window_service += sum(s for _, s in fleet.last_op_services)

        if scaler is not None and t - window_started >= cfg.window:
            elapsed = t - window_started
            # Offered load in busy shard-seconds per second: every
            # sub-request's service time counts, so scatter fan-out is
            # demand the estimator sees, exactly as it should.
            observed_rate = window_arrivals / elapsed
            mean_service = window_service / window_arrivals
            window_p99 = (
                window_hist.quantile_interpolated(0.99)
                if window_hist.count
                else 0.0
            )
            delta = scaler.evaluate(
                t, len(fleet.ring), observed_rate, mean_service, window_p99
            )
            if delta > 0:
                fleet.add_shard()
            elif delta < 0:
                fleet.drain_shard()
            window_started = t
            window_arrivals = 0
            window_service = 0.0
            window_hist = BucketHistogram("fleet_window", FLEET_LATENCY_BUCKETS)

    # The ledger amortises fixed recovery costs over the observed request
    # rate; hand it a clock frozen at the run's end so rate = requests /
    # elapsed-run-time rather than requests / cost-accumulator reading.
    ledger_clock = VirtualClock(start=max(cfg.horizon, clock.now))
    ledger = SustainabilityLedger(obs.registry, ledger_clock, cost=cfg.cost)

    metrics = fleet.metrics
    return FleetRunReport(
        shards_start=cfg.shards,
        shards_final=len(fleet.ring),
        ops=metrics.ops,
        served=metrics.served,
        errors=metrics.errors,
        availability=fleet.availability(),
        p50=latency.quantile_interpolated(0.5) if latency.count else 0.0,
        p99=latency.quantile_interpolated(0.99) if latency.count else 0.0,
        p999=latency.quantile_interpolated(0.999) if latency.count else 0.0,
        mean_latency=latency.mean() if latency.count else 0.0,
        multigets=metrics.multigets,
        scatter_batches=metrics.scatter_batches,
        scatter_keys=metrics.scatter_keys,
        failovers=metrics.failovers,
        rejoins=metrics.rejoins,
        restarts=sum(shard.restarts for shard in fleet.shards.values()),
        items=fleet.total_items(),
        autoscale_decisions=list(scaler.decisions) if scaler else [],
        ledger=[entry.as_dict() for entry in ledger.entries()],
        fleet=fleet,
        recovery_policies={
            name: shard.runtime.default_policy.name
            for name, shard in fleet.shards.items()
        },
    )
