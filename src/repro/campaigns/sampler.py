"""Stratified sequential fault-load sampling.

Each stratum is sampled in *rounds*. A round boots a fresh
:class:`InjectionProcess` on the stratum's backend, plans
its injection times through the existing :class:`ArrivalProcess` hierarchy,
draws per-injection severities from an rng derived purely from
``(seed, stratum, round)``, serves background requests between injections
(so the live :class:`~repro.obs.ledger.SustainabilityLedger` has a request
rate), and injects through :class:`~repro.faultinj.injector.FaultInjector`.

Because every round is a pure function of ``(config, stratum, round
index)``, resuming a checkpointed campaign replays the remaining rounds
byte-identically: the checkpoint is just the accumulated counts plus the
next round index per stratum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..faultinj.campaign import PeriodicArrivals, PoissonArrivals
from ..faultinj.injector import FaultInjector, InjectionResult
from ..faultinj.models import NEEDS_ADDRESS, FaultKind
from ..obs.hub import Observability
from ..obs.ledger import LedgerEntry, SustainabilityLedger
from ..sdrad.policy import RecoveryPolicy
from ..sdrad.runtime import DomainHandle, SdradRuntime
from ..sim.clock import VirtualClock
from ..sim.rng import RngFactory
from .stats import ConfidenceInterval, clopper_pearson
from .strata import CampaignConfig, InjectionPhase, Stratum

# ----------------------------------------------------------------------
# Severity distributions
# ----------------------------------------------------------------------
#
# Containment is only worth *estimating* if it is genuinely uncertain, so
# each kind draws a severity that makes detection probabilistic: a zero
# overflow never reaches the canary, a 200 KiB over-read crosses the domain
# boundary only when warm-up allocations pushed the buffer deep enough, etc.

_PAGE = 4096


def draw_severity(kind: FaultKind, rng: random.Random) -> dict:
    """Draw the model kwargs for one injection of ``kind``."""
    if kind is FaultKind.STACK_SMASH:
        # 0 = benign (stops short of the canary), the rest trip it.
        return {"overflow": rng.choice((0, 4, 12, 20))}
    if kind is FaultKind.HEAP_OVERFLOW:
        # 0 = fits in the allocator's rounded-up capacity, undetected.
        return {"excess": rng.choice((0, 8, 16, 24))}
    if kind is FaultKind.OVER_READ:
        # In-allocation read / medium leak (detection depends on heap
        # position) / certain boundary crossing.
        return {
            "alloc": 64,
            "read": rng.choice((64, 48 * _PAGE, 56 * _PAGE, 512 * _PAGE)),
        }
    if kind is FaultKind.USE_AFTER_FREE:
        return {"size": rng.choice((32, 48, 64))}
    if kind is FaultKind.DOUBLE_FREE:
        return {"size": rng.choice((16, 32, 64))}
    return {}


def phase_prelude(
    phase: InjectionPhase, rng: random.Random
) -> "Optional[Callable[[DomainHandle], None]]":
    """Build the in-domain warm-up matching the stratum's injection phase.

    Returns a closure the injector runs inside the target domain before the
    fault model — all allocation sizes are drawn *now* so the closure
    itself touches no rng (determinism does not depend on execution order
    inside the domain).
    """
    if phase is InjectionPhase.ENTRY:
        return None
    count = rng.randint(6, 14)
    sizes = [rng.choice((_PAGE, 2 * _PAGE, 4 * _PAGE)) for _ in range(count)]
    if phase is InjectionPhase.WARM:

        def warm(handle: DomainHandle) -> None:
            for size in sizes:
                addr = handle.malloc(size)
                handle.store(addr, b"w" * 64)

        return warm

    def drain(handle: DomainHandle) -> None:
        # Allocate-then-free churn: the heap has scrub-pending free space,
        # and surviving allocations sit at churned offsets.
        addrs = [handle.malloc(size) for size in sizes]
        for addr in addrs:
            handle.store(addr, b"d" * 64)
        for addr in addrs[::2]:
            handle.free(addr)

    return drain


@dataclass(frozen=True)
class PlannedInjection:
    """One planned injection inside a round: when and how hard."""

    offset: float
    severity: dict


@dataclass
class Observation:
    """Outcome of one injection (a regression row)."""

    contained: bool
    detected: bool
    recovery_seconds: float
    latency: float
    violation: Optional[str] = None


@dataclass
class StratumAccumulator:
    """Running counts and ledger readings for one stratum."""

    stratum: Stratum
    trials: int = 0
    contained: int = 0
    detected: int = 0
    rounds: int = 0
    observations: List[Observation] = field(default_factory=list)
    #: Ledger readings accumulated across rounds (strictly *read* off the
    #: live registry — never recomputed here).
    rewind_joules: float = 0.0
    rewind_gco2e: float = 0.0
    rewind_faults: int = 0
    restart_joules: float = 0.0
    restart_gco2e: float = 0.0
    restart_faults: int = 0

    def interval(self, confidence: float) -> ConfidenceInterval:
        return clopper_pearson(self.contained, self.trials, confidence)

    def joules_per_recovery(self) -> Optional[float]:
        if self.rewind_faults == 0:
            return None
        return self.rewind_joules / self.rewind_faults

    def gco2e_per_recovery(self) -> Optional[float]:
        if self.rewind_faults == 0:
            return None
        return self.rewind_gco2e / self.rewind_faults

    def restart_gco2e_per_fault(self) -> Optional[float]:
        if self.restart_faults == 0:
            return None
        return self.restart_gco2e / self.restart_faults

    #: Checkpointed fields, before and after the observation rows.
    _STATE_COUNTS = ("trials", "contained", "detected", "rounds")
    _STATE_LEDGER = (
        "rewind_joules", "rewind_gco2e", "rewind_faults",
        "restart_joules", "restart_gco2e", "restart_faults",
    )

    def as_state(self) -> dict:
        state = {name: getattr(self, name) for name in self._STATE_COUNTS}
        state["observations"] = [
            [int(o.contained), int(o.detected), o.recovery_seconds, o.latency, o.violation]
            for o in self.observations
        ]
        state.update((name, getattr(self, name)) for name in self._STATE_LEDGER)
        return state

    def load_state(self, state: dict) -> None:
        for name in self._STATE_COUNTS + self._STATE_LEDGER:
            setattr(self, name, state[name])
        self.observations = [
            Observation(bool(row[0]), bool(row[1]), row[2], row[3], row[4])
            for row in state["observations"]
        ]


class InjectionProcess:
    """One simulated process that a campaign injects faults into.

    A runtime on its own clock and obs hub hosts a victim domain (the
    addressed kinds aim at its heap) and an app domain serving background
    requests; each injection strikes a fresh target domain. Domain labels
    are shard names, and a bigger shard index gives a smaller target heap:
    the domain factor is a real effect (boundary proximity), not a label.
    """

    def __init__(
        self,
        config: CampaignConfig,
        domain: str,
        backend: str,
        rng: Optional[RngFactory] = None,
        default_policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.config = config
        self.backend = backend
        self.heap_size = max(64 * 1024, 256 * 1024 >> config.domain_index(domain))
        self._rng = rng
        self._default_policy = default_policy
        self.clock = VirtualClock()
        self.obs = Observability(clock=self.clock)
        self._boot()

    def _boot(self) -> None:
        self.runtime = SdradRuntime(
            clock=self.clock,
            cost=self.config.cost,
            obs=self.obs,
            backend=self.backend,
            rng=self._rng,
            default_policy=self._default_policy,
        )
        self.victim = self.runtime.domain_init()
        self.app = self.runtime.domain_init()
        self.injector = FaultInjector(self.runtime)

    def wait_until(self, when: float) -> None:
        if when > self.clock.now:
            self.clock.advance_to(when)

    def restart(self, downtime: float) -> None:
        """A whole-process restart: ``downtime`` seconds of reload, then a
        fresh runtime on the same clock and hub."""
        self.clock.advance(downtime)
        self.obs.registry.release(self.runtime)
        self._boot()

    def serve(self, count: int) -> None:
        """Serve ``count`` modelled app requests (the ledger's request rate)."""
        op = self.config.cost.memcached_op

        def body(handle: DomainHandle) -> None:
            handle.charge(op)

        for _ in range(count):
            result = self.runtime.execute(self.app.udi, body)
            self.obs.record_request("campaign", result.elapsed)

    def inject(
        self,
        kind: FaultKind,
        severity: dict,
        prelude: "Optional[Callable[[DomainHandle], None]]",
    ) -> InjectionResult:
        """Inject one fault into a fresh target domain, then destroy it.
        :class:`~repro.sdrad.policy.ProcessCrashed` propagates."""
        victim_addr = self.victim.heap_base + 64 if kind in NEEDS_ADDRESS else None
        target = self.runtime.domain_init(heap_size=self.heap_size)
        result = self.injector.inject(
            target.udi, kind, victim_addr=victim_addr, prelude=prelude, **severity
        )
        self.runtime.domain_destroy(target.udi)
        return result

    def ledger_entries(self) -> "Optional[list[LedgerEntry]]":
        """The live ledger's ``[rewind, restart]`` entries, or None before
        the first request or fault: requests and rewinds come from the obs
        registry, the per-fault joules from the power and carbon models."""
        ledger = SustainabilityLedger(
            self.obs.registry,
            self.clock,
            cost=self.config.cost,
            dataset_bytes=self.config.dataset_bytes,
            isolation_backend=self.backend,
        )
        if ledger.faults_observed() > 0 and ledger.requests_served() > 0:
            return ledger.entries()
        return None


class CampaignSampler:
    """Sequential stratified sampler with a Clopper–Pearson stopping rule."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self._factory = RngFactory(config.seed)
        self.accumulators: Dict[str, StratumAccumulator] = {
            stratum.key: StratumAccumulator(stratum)
            for stratum in config.strata()
        }
        self.rounds_run = 0

    # ------------------------------------------------------------------
    # Deterministic per-round planning
    # ------------------------------------------------------------------

    def _round_rng(self, stratum: Stratum, round_index: int) -> random.Random:
        return self._factory.child(f"stratum/{stratum.key}").stream(
            f"round/{round_index}"
        )

    def round_plan(
        self, stratum: Stratum, round_index: int
    ) -> "list[PlannedInjection]":
        """The injection times and severities of one round — a pure function
        of (seed, stratum, round), which is what makes resume exact."""
        cfg = self.config
        rng = self._round_rng(stratum, round_index)
        if cfg.arrival == "periodic":
            arrivals = PeriodicArrivals(cfg.batch)
        else:
            arrivals = PoissonArrivals(
                rate=cfg.batch / cfg.round_horizon, rng=rng
            )
        times = list(arrivals.times(cfg.round_horizon))
        return [
            PlannedInjection(
                offset=t, severity=draw_severity(stratum.kind, rng)
            )
            for t in times
        ]

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def _run_round(self, acc: StratumAccumulator, round_index: int) -> None:
        cfg = self.config
        stratum = acc.stratum
        plan = self.round_plan(stratum, round_index)
        # The prelude rng is separate from the plan rng so adding phases
        # never perturbs the committed injection plans.
        prelude_rng = self._factory.child(f"stratum/{stratum.key}").stream(
            f"prelude/{round_index}"
        )
        process = InjectionProcess(
            cfg,
            stratum.domain,
            stratum.backend,
            rng=self._factory.child(f"runtime/{stratum.key}/{round_index}"),
        )
        for planned in plan:
            process.wait_until(planned.offset)
            process.serve(cfg.background_requests)
            result = process.inject(
                stratum.kind,
                planned.severity,
                phase_prelude(stratum.phase, prelude_rng),
            )
            acc.trials += 1
            acc.contained += int(result.contained)
            acc.detected += int(result.detected)
            acc.observations.append(
                Observation(
                    contained=result.contained,
                    detected=result.detected,
                    recovery_seconds=result.recovery_time,
                    latency=result.elapsed,
                    violation=result.violation,
                )
            )

        entries = process.ledger_entries()
        if entries is not None:
            rewind_entry, restart_entry = entries
            acc.rewind_joules += rewind_entry.recovery_joules
            acc.rewind_gco2e += rewind_entry.recovery_gco2e
            acc.rewind_faults += rewind_entry.faults
            acc.restart_joules += restart_entry.recovery_joules
            acc.restart_gco2e += restart_entry.recovery_gco2e
            acc.restart_faults += restart_entry.faults
        acc.rounds += 1

    # ------------------------------------------------------------------
    # Sequential loop
    # ------------------------------------------------------------------

    def stratum_converged(self, acc: StratumAccumulator) -> bool:
        cfg = self.config
        if acc.trials < cfg.min_per_stratum:
            return False
        if acc.trials >= cfg.max_per_stratum:
            return True
        return acc.interval(cfg.confidence).halfwidth <= cfg.ci_halfwidth

    def converged(self) -> bool:
        return all(
            self.stratum_converged(acc) for acc in self.accumulators.values()
        )

    def step(self) -> bool:
        """Run one more round for every unconverged stratum.

        Returns True once every stratum has converged.
        """
        pending = [
            acc
            for acc in self.accumulators.values()
            if not self.stratum_converged(acc)
        ]
        if not pending:
            return True
        for acc in pending:
            self._run_round(acc, acc.rounds)
        self.rounds_run += 1
        return self.converged()

    def run(self) -> bool:
        """Sample until convergence or ``max_rounds``; True if converged."""
        for _ in range(self.config.max_rounds):
            if self.step():
                return True
        return self.converged()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-able checkpoint: counts + next round index per stratum."""
        return {
            "seed": self.config.seed,
            "rounds_run": self.rounds_run,
            "strata": {
                key: acc.as_state() for key, acc in self.accumulators.items()
            },
        }

    @classmethod
    def resume(cls, config: CampaignConfig, state: dict) -> "CampaignSampler":
        """Rebuild a sampler mid-campaign from :meth:`state`.

        Rounds already run are restored from the checkpoint; rounds still
        to come re-derive their rngs from (seed, stratum, round index), so
        the completed campaign is byte-identical to an uninterrupted one.
        """
        if state["seed"] != config.seed:
            raise ValueError(
                f"checkpoint seed {state['seed']} != config seed {config.seed}"
            )
        sampler = cls(config)
        sampler.rounds_run = state["rounds_run"]
        for key, acc_state in state["strata"].items():
            if key not in sampler.accumulators:
                raise ValueError(f"checkpoint stratum {key!r} not in config")
            sampler.accumulators[key].load_state(acc_state)
        return sampler

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def strata_table(self) -> "list[dict]":
        rows = []
        for acc in self.accumulators.values():
            ci = acc.interval(self.config.confidence)
            rows.append(
                {
                    **acc.stratum.as_dict(),
                    "trials": acc.trials,
                    "contained": acc.contained,
                    "detected": acc.detected,
                    "containment": ci.as_dict(),
                    "halfwidth": ci.halfwidth,
                    "converged": self.stratum_converged(acc),
                    "joules_per_recovery": acc.joules_per_recovery(),
                    "gco2e_per_recovery": acc.gco2e_per_recovery(),
                }
            )
        return rows
