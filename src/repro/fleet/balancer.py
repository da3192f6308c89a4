"""The fleet front-end: ring-routed scatter-gather over N shards.

This is the load balancer of the sharded fleet. Single-key operations
route by one ``O(log vnodes)`` ring lookup; a multi-key get is split into
**per-shard scatter batches** — one ``get k1 k2 ...`` wire request per
shard that owns at least one key — so each shard parses its sub-batch in
a single domain activation record and serves it through
:meth:`~repro.apps.kvstore.KVStore.get_many`'s batched kernel loads. The
gather step reassembles the per-shard responses into exactly the byte
stream a single shard would have produced for the same keys (tested
bit-for-bit), so sharding is invisible to clients.

Failure handling mirrors a production proxy: a request that lands on a
dead or watchdog-quarantined shard is answered with an error *and*
reported to the health monitor, which fails the shard out of the ring
once failures persist (see :mod:`repro.fleet.health`); the consistent
ring guarantees only the failed shard's ranges move.

For the wall-clock scaling bench, :meth:`Fleet.multiget_wave` can track
**host time** split into serial work (routing, request building,
gathering — the balancer's own CPU) and per-shard parallelisable work, of
which each wave contributes its *maximum* to the critical path: shards are
independent nodes, so a fleet's makespan for one wave is the slowest
shard's pipeline, not the sum. ``bench_fleet`` gates on throughput
computed over ``serial + critical`` — the honest fleet-level number a
load balancer in front of N real nodes would sustain. Single-key
operations and :meth:`Fleet.multiget` are not tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from ..apps.memcached_server import IsolationMode
from ..errors import SdradError
from ..sdrad.watchdog import WatchdogConfig
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from .ring import DEFAULT_VNODES, HashRing
from .shard import FRONTEND_CLIENT, Shard, ShardState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability
    from .health import HealthMonitor

_UP = ShardState.UP  # tested on every routed request
_NO_SHARD = b"SERVER_ERROR no shard available\r\n"
_SHARD_DOWN = b"SERVER_ERROR shard down\r\n"


@dataclass
class FleetMetrics:
    """Front-end accounting: ops, scatter shape, failover events."""

    ops: int = 0
    served: int = 0
    #: Faults/refusals/dead-shard answers (the op reached no healthy shard
    #: or came back SERVER_ERROR).
    errors: int = 0
    multigets: int = 0
    #: Per-shard sub-batches issued by scatter operations.
    scatter_batches: int = 0
    #: Keys carried by those sub-batches.
    scatter_keys: int = 0
    failovers: int = 0
    rejoins: int = 0
    per_shard_ops: "dict[str, int]" = field(default_factory=dict)


class Fleet:
    """Consistent-hash sharded memcached fleet behind one front-end."""

    def __init__(
        self,
        shards: int = 4,
        *,
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
        clock: Optional[VirtualClock] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        obs: "Optional[Observability]" = None,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        arena_size: int = 4 * 1024 * 1024,
        watchdog_config: Optional[WatchdogConfig] = None,
        track_host_time: bool = False,
        recovery_policies: "Optional[dict[str, str]]" = None,
    ) -> None:
        if shards < 1:
            raise SdradError(f"fleet needs at least one shard, got {shards}")
        self.clock = clock if clock is not None else VirtualClock()
        self.cost = cost
        self.obs = obs
        if obs is not None:
            obs.bind_clock(self.clock)
        # Per-shard recovery-policy names from a campaign assignment; the
        # "default" key covers shards without their own entry (including
        # autoscaled ones created later).
        self._recovery_policies = dict(recovery_policies or {})
        self.ring = HashRing(vnodes=vnodes, seed=seed)
        # Route cache: key -> owning shard name, a memoised ``shard_for``.
        # Real proxies compile the ring into a route table and invalidate
        # it on membership change; here a dict turns the ~µs hash+bisect
        # into a ~100 ns hit on the Zipf-concentrated key population. Any
        # ring mutation clears it (correctness over reuse), and it is
        # capped so an adversarial key stream cannot grow it unboundedly.
        self._route_cache: "dict[bytes, str]" = {}
        self._route_cache_max = 1 << 20
        self.shards: "dict[str, Shard]" = {}
        self._isolation = isolation
        self._arena_size = arena_size
        self._watchdog_config = watchdog_config
        for index in range(shards):
            self._add_shard(f"shard-{index}")
        self._next_index = shards
        self.metrics = FleetMetrics()
        self.health: "Optional[HealthMonitor]" = None
        #: ``(shard name, virtual service seconds)`` per sub-request of the
        #: most recent operation — the driver's queueing model reads this
        #: to place each sub-batch on its shard's own completion frontier.
        self.last_op_services: "list[tuple[str, float]]" = []
        #: Shards that failed to serve part of the most recent operation.
        self.last_op_failed: "list[str]" = []
        # Host-time accounting of ``multiget_wave`` (bench only; a plain
        # bool guard keeps the serving path free of timer calls when
        # disabled).
        self.track_host_time = track_host_time
        self.host_serial_s = 0.0
        self.host_critical_s = 0.0
        self.host_parallel_total_s = 0.0
        if obs is not None:
            obs.registry.collect(self)

    def collect_counters(self):
        """The counts an obs hub reads from :attr:`metrics`, once nonzero."""
        if self.metrics.failovers:
            yield "fleet_failovers_total", (), self.metrics.failovers
        if self.metrics.rejoins:
            yield "fleet_rejoins_total", (), self.metrics.rejoins

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _add_shard(self, name: str) -> Shard:
        policy = self._recovery_policies.get(
            name, self._recovery_policies.get("default")
        )
        shard = Shard(
            name,
            self.clock,
            cost=self.cost,
            obs=self.obs,
            isolation=self._isolation,
            arena_size=self._arena_size,
            watchdog_config=self._watchdog_config,
            recovery_policy=policy,
        )
        self.shards[name] = shard
        self.ring.add_shard(name)
        self._route_cache.clear()
        return shard

    def add_shard(self) -> Shard:
        """Autoscale up: place one new (empty) shard on the ring."""
        name = f"shard-{self._next_index}"
        self._next_index += 1
        shard = self._add_shard(name)
        if self.obs is not None:
            self.obs.event("fleet.scale_up", shard=name, shards=len(self.ring))
            self.obs.registry.gauge("fleet_shards").set(len(self.ring))
        return shard

    def drain_shard(self) -> Optional[str]:
        """Autoscale down: remove the newest serving shard from the ring.

        Cache semantics make draining cheap: the drained shard's ranges
        move to their ring successors and refill on demand. Never drains
        below one serving shard.
        """
        serving = [name for name in self.ring.shards if name in self.shards]
        if len(serving) <= 1:
            return None
        name = max(serving, key=lambda n: int(n.rsplit("-", 1)[1]))
        self.ring.remove_shard(name)
        self._route_cache.clear()
        self.shards.pop(name).release()
        if self.obs is not None:
            self.obs.event("fleet.scale_down", shard=name, shards=len(self.ring))
            self.obs.registry.gauge("fleet_shards").set(len(self.ring))
        return name

    def fail_over(self, name: str) -> None:
        """Remove a failed shard's vnodes; only its ranges are reassigned."""
        if name not in self.ring:
            return
        self.ring.remove_shard(name)
        self._route_cache.clear()
        self.metrics.failovers += 1
        if self.obs is not None:
            self.obs.event("fleet.failover", shard=name, shards=len(self.ring))
            self.obs.registry.gauge("fleet_shards").set(len(self.ring))

    def rejoin(self, name: str) -> None:
        """Re-add a recovered shard; it reclaims exactly its old ranges."""
        if name in self.ring or name not in self.shards:
            return
        self.ring.add_shard(name)
        self._route_cache.clear()
        self.metrics.rejoins += 1
        if self.obs is not None:
            self.obs.event("fleet.rejoin", shard=name, shards=len(self.ring))
            self.obs.registry.gauge("fleet_shards").set(len(self.ring))

    # ------------------------------------------------------------------
    # Single-key operations
    # ------------------------------------------------------------------

    def _route_miss(self, key: bytes) -> str:
        """Owner of a key the route cache lacks, now cached (raises
        :class:`SdradError` on an empty ring)."""
        name = self.ring.shard_for(key)
        cache = self._route_cache
        if len(cache) >= self._route_cache_max:
            cache.clear()
        cache[key] = name
        return name

    def _plan(
        self, keys: "list[bytes]", items: "list[bytes]"
    ) -> "dict[str, list[bytes]]":
        """Group ``items[i]`` by the shard owning ``keys[i]``, preserving
        first-seen shard order and each shard's item order."""
        plan: "dict[str, list[bytes]]" = {}
        cache = self._route_cache
        for key, item in zip(keys, items):
            name = cache.get(key)
            if name is None:
                name = self._route_miss(key)
            bucket = plan.get(name)
            if bucket is None:
                plan[name] = [item]
            else:
                bucket.append(item)
        return plan

    def _serve_one(self, shard: Shard, raw: bytes) -> bytes:
        """One routed request with health reporting + service bookkeeping."""
        name = shard.name
        per_shard_ops = self.metrics.per_shard_ops
        per_shard_ops[name] = per_shard_ops.get(name, 0) + 1
        health = self.health
        # ``is_down`` restarts a shard whose outage is over; an UP shard
        # has nothing to restart, so only a DOWN one reads it.
        if shard.state is not _UP and shard.is_down:
            self.last_op_failed.append(name)
            if health is not None:
                health.on_failure(name)
            return _SHARD_DOWN
        clock = self.clock
        started = clock.now
        response = shard.server.handle(FRONTEND_CLIENT, raw)
        self.last_op_services.append((name, clock.now - started))
        if response.startswith(b"SERVER_ERROR"):
            self.last_op_failed.append(name)
            if health is not None:
                health.on_failure(name)
        elif health is not None:
            health.on_success(name)
        return response

    def set(self, key: bytes, value: bytes, flags: int = 0) -> bytes:
        raw = b"set %s %d 0 %d\r\n%s\r\n" % (key, flags, len(value), value)
        return self._single(key, raw)

    def get(self, key: bytes) -> bytes:
        return self._single(key, b"get %s\r\n" % key)

    def delete(self, key: bytes) -> bytes:
        return self._single(key, b"delete %s\r\n" % key)

    def _single(self, key: bytes, raw: bytes) -> bytes:
        self.metrics.ops += 1
        self.last_op_services = []
        self.last_op_failed = []
        name = self._route_cache.get(key)
        if name is None:
            try:
                name = self._route_miss(key)
            except SdradError:
                self.metrics.errors += 1
                return _NO_SHARD
        response = self._serve_one(self.shards[name], raw)
        if self.last_op_failed:
            self.metrics.errors += 1
        else:
            self.metrics.served += 1
        return response

    # ------------------------------------------------------------------
    # Scatter-gather multiget
    # ------------------------------------------------------------------

    def multiget(self, keys: "list[bytes]") -> bytes:
        """Serve ``get k1 k2 ...`` across shards; respond as one shard would.

        Scatter: one wire request per owning shard (one activation record
        per shard, not per key). Gather: per-shard ``VALUE`` blocks are
        reassembled in the *requested* key order and terminated with one
        ``END``, byte-identical to single-shard serving.
        """
        if not keys:
            raise SdradError("multiget needs at least one key")
        self.metrics.ops += 1
        self.metrics.multigets += 1
        self.last_op_services = []
        self.last_op_failed = []
        plan = self._plan(keys, keys) if self.ring.shards else {}
        requests = [
            (name, b"get " + b" ".join(shard_keys) + b"\r\n")
            for name, shard_keys in plan.items()
        ]
        if not requests:
            self.metrics.errors += 1
            return _NO_SHARD
        self.metrics.scatter_batches += len(requests)
        self.metrics.scatter_keys += len(keys)

        responses = [self._serve_one(self.shards[name], raw) for name, raw in requests]
        # Single owning shard: its response already IS the single-shard
        # byte stream for these keys (same order, same END) — skip the
        # parse/reassemble round-trip entirely.
        merged = responses[0]
        if len(requests) > 1 or not (
            merged.startswith(b"VALUE ") or merged == b"END\r\n"
        ):
            merged = self._gather(keys, responses)
        if self.last_op_failed:
            self.metrics.errors += 1
        else:
            self.metrics.served += 1
        return merged

    @staticmethod
    def _parse_values(response: bytes, blocks: "dict[bytes, bytes]") -> None:
        """Split a multiget response into per-key ``VALUE`` blocks."""
        offset = 0
        while response.startswith(b"VALUE ", offset):
            line_end = response.index(b"\r\n", offset)
            _, key, _, length = response[offset:line_end].split(b" ")
            body_end = line_end + 2 + int(length)
            blocks[key] = response[offset : body_end + 2]
            offset = body_end + 2

    @classmethod
    def _gather(cls, keys: "list[bytes]", responses: "list[bytes]") -> bytes:
        """Merge per-shard multiget responses into request-key order."""
        blocks: "dict[bytes, bytes]" = {}
        for response in responses:
            if not response.startswith(b"VALUE ") and response != b"END\r\n":
                # Error from this shard (fault, quarantine, dead node):
                # its keys degrade to misses; the error itself was already
                # accounted via ``last_op_failed``.
                continue
            cls._parse_values(response, blocks)
        chunks = [blocks[key] for key in keys if key in blocks]
        chunks.append(b"END\r\n")
        return b"".join(chunks)

    def multiget_wave(self, batches: "list[list[bytes]]") -> "list[bytes]":
        """Serve many concurrent multigets as one coalesced scatter wave.

        An open-loop front-end always has a window of in-flight multigets;
        dispatching them one at a time pays the per-``handle`` activation
        fixed cost once per shard *per request*. A wave instead coalesces
        the window: every shard receives ONE ``handle_batch`` pipeline for
        the whole wave (one domain activation record per shard per wave).
        Within a shard's pipeline:

        * a multiget whose keys land entirely on that shard rides as its
          own ``get`` request — the response is returned to that client
          verbatim, no parsing (the single-shard fast path);
        * the split multigets' keys are merged into one bulk ``get``
          whose response is parsed into ``VALUE`` blocks — charged to
          that shard's parallel track, since it pipelines with slower
          shards' service — and reassembled per client in request-key
          order afterwards.

        Each returned response is byte-identical to serving that multiget
        alone (and to single-shard serving). Failed/down shards degrade
        their keys to misses exactly as :meth:`multiget` does.
        """
        if not batches:
            return []
        self.last_op_services = []
        self.last_op_failed = []
        self.metrics.ops += len(batches)
        self.metrics.multigets += len(batches)
        track = self.track_host_time
        t0 = perf_counter() if track else 0.0
        if not self.ring.shards:
            self.metrics.errors += len(batches)
            return [_NO_SHARD] * len(batches)
        # Serial: route every multiget, split per shard into whole-batch
        # requests (fast path) and a merged remainder.
        total_keys = 0
        whole: "dict[str, list[tuple[int, list[bytes]]]]" = {}
        split: "dict[str, list[tuple[int, list[bytes]]]]" = {}
        for index, keys in enumerate(batches):
            if not keys:
                raise SdradError("multiget needs at least one key")
            total_keys += len(keys)
            plan = self._plan(keys, keys)
            target = whole if len(plan) == 1 else split
            for name, sub in plan.items():
                bucket = target.get(name)
                if bucket is None:
                    target[name] = [(index, sub)]
                else:
                    bucket.append((index, sub))
        self.metrics.scatter_keys += total_keys
        results: "list[Optional[bytes]]" = [None] * len(batches)
        blocks: "dict[bytes, bytes]" = {}
        failed: "set[int]" = set()
        if track:
            t1 = perf_counter()
            self.host_serial_s += t1 - t0
            slowest = 0.0
        # Parallel (per shard): one handle_batch pipeline + response split.
        for name in self.ring.shards:
            whole_entries = whole.get(name, ())
            split_entries = split.get(name, ())
            if not whole_entries and not split_entries:
                continue
            ts = perf_counter() if track else 0.0
            shard = self.shards[name]
            raws = [
                b"get " + b" ".join(sub) + b"\r\n" for _, sub in whole_entries
            ]
            if split_entries:
                merged: "list[bytes]" = []
                for _, sub in split_entries:
                    merged.extend(sub)
                raws.append(b"get " + b" ".join(merged) + b"\r\n")
            self.metrics.scatter_batches += len(raws)
            self.metrics.per_shard_ops[name] = (
                self.metrics.per_shard_ops.get(name, 0) + len(raws)
            )
            shard_failed = False
            if shard.is_down:
                shard_failed = True
                for index, _ in whole_entries:
                    failed.add(index)
                for index, _ in split_entries:
                    failed.add(index)
            else:
                started = self.clock.now
                responses = shard.server.handle_batch(FRONTEND_CLIENT, raws)
                self.last_op_services.append(
                    (name, self.clock.now - started)
                )
                for (index, _), response in zip(whole_entries, responses):
                    if response.startswith(b"VALUE ") or response == b"END\r\n":
                        results[index] = response
                    else:
                        shard_failed = True
                        failed.add(index)
                if split_entries:
                    response = responses[-1]
                    if response.startswith(b"VALUE ") or response == b"END\r\n":
                        self._parse_values(response, blocks)
                    else:
                        shard_failed = True
                        for index, _ in split_entries:
                            failed.add(index)
            if shard_failed:
                self.last_op_failed.append(name)
                if self.health is not None:
                    self.health.on_failure(name)
            elif self.health is not None:
                self.health.on_success(name)
            if track:
                dt = perf_counter() - ts
                self.host_parallel_total_s += dt
                if dt > slowest:
                    slowest = dt
        if track:
            self.host_critical_s += slowest
            t2 = perf_counter()
        # Serial: reassemble each split multiget in request-key order.
        for index, keys in enumerate(batches):
            if results[index] is None:
                chunks = [blocks[key] for key in keys if key in blocks]
                chunks.append(b"END\r\n")
                results[index] = b"".join(chunks)
        if track:
            self.host_serial_s += perf_counter() - t2
        self.metrics.errors += len(failed)
        self.metrics.served += len(batches) - len(failed)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scatter pipelines (bulk writes ride handle_batch per shard)
    # ------------------------------------------------------------------

    def set_many(self, items: "list[tuple[bytes, bytes]]") -> int:
        """Store ``(key, value)`` pairs via one pipeline per owning shard.

        Returns the number of successfully stored items. Each shard parses
        its whole sub-pipeline in a single domain entry (``handle_batch``),
        so bulk loads pay one activation record per shard.
        """
        raws = [b"set %s 0 0 %d\r\n%s\r\n" % (k, len(v), v) for k, v in items]
        by_shard = self._plan([key for key, _ in items], raws)
        stored = 0
        for name, raws in by_shard.items():
            shard = self.shards[name]
            if shard.is_down:
                continue
            for response in shard.server.handle_batch(FRONTEND_CLIENT, raws):
                if response == b"STORED\r\n":
                    stored += 1
        return stored

    # ------------------------------------------------------------------
    # Host-time accounting (bench support)
    # ------------------------------------------------------------------

    def reset_host_time(self) -> None:
        self.host_serial_s = 0.0
        self.host_critical_s = 0.0
        self.host_parallel_total_s = 0.0

    def host_time_snapshot(self) -> "dict[str, float]":
        """Serial vs parallel host CPU split of ``multiget_wave`` since the
        last reset.

        ``makespan`` is the fleet's critical path: the balancer's serial
        work plus, per wave, the slowest shard's share — what a
        wall clock would read if the shards were real parallel nodes.
        """
        return {
            "serial_s": self.host_serial_s,
            "critical_s": self.host_critical_s,
            "parallel_total_s": self.host_parallel_total_s,
            "makespan_s": self.host_serial_s + self.host_critical_s,
        }

    # ------------------------------------------------------------------

    def total_items(self) -> int:
        return sum(shard.store.item_count for shard in self.shards.values())

    def availability(self) -> float:
        """Fraction of front-end ops fully served so far."""
        if not self.metrics.ops:
            return 1.0
        return self.metrics.served / self.metrics.ops
