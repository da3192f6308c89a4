"""One fleet shard: a private runtime + memcached server behind the ring.

A shard models one node of the sharded fleet. Like the cluster's workers
(:mod:`repro.apps.cluster`), every shard has a *private*
:class:`~repro.sdrad.runtime.SdradRuntime` — nodes share no memory — while
all shards share one virtual clock (wall time is global) and, optionally,
one observability hub (a fleet shares a metrics endpoint).

The front-end talks to each shard over a single multiplexed connection
(``lb``), the way a memcached proxy does: per-connection isolation then
gives each shard exactly one long-lived parse domain for fleet traffic,
and the shard-side :class:`~repro.sdrad.watchdog.FaultWatchdog` quarantines
that *domain* when forwarded traffic keeps faulting — at which point the
shard refuses fleet requests and the health monitor fails it out of the
ring (see :mod:`repro.fleet.health`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ..apps.kvstore import KVStore
from ..apps.memcached_server import IsolationMode, MemcachedServer
from ..sdrad.policy import make_policy
from ..sdrad.runtime import SdradRuntime
from ..sdrad.watchdog import FaultWatchdog, WatchdogConfig
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability

#: The front-end's multiplexed connection id on every shard.
FRONTEND_CLIENT = "lb"


class ShardState(enum.Enum):
    """Process health only — ring membership is the fleet's book, not ours."""

    UP = "up"
    #: Killed; refuses traffic until the supervisor restarts it.
    DOWN = "down"


_DOWN = ShardState.DOWN  # tested by is_down


class Shard:
    """A single shard node: runtime, store, server, and health state."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        cost: CostModel = DEFAULT_COST_MODEL,
        obs: "Optional[Observability]" = None,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        arena_size: int = 4 * 1024 * 1024,
        watchdog_config: Optional[WatchdogConfig] = None,
        recovery_policy: Optional[str] = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.cost = cost
        self.obs = obs
        self.isolation = isolation
        self.arena_size = arena_size
        self.watchdog_config = watchdog_config
        #: Campaign-assigned recovery policy name (None = runtime default,
        #: i.e. plain rewind); every domain the shard's runtime executes
        #: without an explicit policy recovers under it.
        self.recovery_policy = recovery_policy
        self.state = ShardState.UP
        self.down_until = 0.0
        self.restarts = 0
        #: Virtual time this shard is busy until (per-shard queue; shards
        #: serve in parallel, so each keeps its own completion frontier).
        self.free_at = 0.0
        self._boot()

    def _boot(self) -> None:
        policy = (
            make_policy(self.recovery_policy)
            if self.recovery_policy is not None
            else None
        )
        self.runtime = SdradRuntime(
            clock=self.clock, cost=self.cost, obs=self.obs, default_policy=policy
        )
        self.store = KVStore(self.runtime, arena_size=self.arena_size)
        self.watchdog = FaultWatchdog(
            self.clock, self.watchdog_config, obs=self.obs
        )
        self.server = MemcachedServer(
            self.runtime,
            store=self.store,
            isolation=self.isolation,
            watchdog=self.watchdog,
        )
        self.server.connect(FRONTEND_CLIENT)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def is_down(self) -> bool:
        """True while the node is dead (killed, not yet restarted)."""
        if self.state is _DOWN and self.clock.now >= self.down_until:
            # The supervisor restarted the process: fresh image, empty
            # cache. State goes back to UP; rejoining the ring is the
            # health monitor's call, not ours.
            self.restart()
        return self.state is _DOWN

    @property
    def is_quarantined(self) -> bool:
        """True while the shard-side watchdog refuses the fleet connection."""
        return self.watchdog.is_quarantined(FRONTEND_CLIENT)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def kill(self, outage_seconds: float) -> None:
        """Crash the node; the supervisor brings it back after the outage."""
        if outage_seconds <= 0:
            raise ValueError(
                f"outage must be positive, got {outage_seconds}"
            )
        self.state = ShardState.DOWN
        self.down_until = self.clock.now + outage_seconds
        if self.obs is not None:
            self.obs.event(
                "shard.kill", shard=self.name, outage=outage_seconds
            )

    def restart(self) -> None:
        """Reboot with a fresh process image — the cache comes back empty."""
        self.restarts += 1
        self.state = ShardState.UP
        self.down_until = 0.0
        self.release()
        self._boot()
        if self.obs is not None:
            self.obs.event("shard.restart", shard=self.name)

    def release(self) -> None:
        """The process is gone: the hub keeps its counts, not its memory."""
        if self.obs is not None:
            self.obs.registry.release(self.runtime)
            self.obs.registry.release(self.watchdog)

    def item_count(self) -> int:
        return self.store.item_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.name!r}, state={self.state.value}, "
            f"items={self.store.item_count})"
        )
