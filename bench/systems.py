"""The four workloads: seeded inputs, the system under test, the timed
serving loop, and the oracle that checks every response.

The simulator is driven only through public entry points:
``MemcachedServer.handle``/``handle_batch``, ``Fleet.get``/``set``/
``multiget``, ``HealthMonitor.tick`` and ``Shard.kill``; preloading uses
``KVStore.set`` and ``Fleet.set_many``. Every input is generated here from
the seed, before the window that serves it is timed.

Virtual latency follows the open-loop model of ``repro.fleet.driver``:
requests (or pipelines) are due at Poisson arrival times; each server
keeps a completion frontier, so a request starts at ``max(due,
frontier)``, runs for the virtual time its handling charged, and its
latency is completion minus due time. A fleet request completes when its
slowest sub-request does. The model replays the service times the
prefix charged against ``REPLICAS`` independent arrival streams at the
workload's rate and pools the latencies: one stream leaves the tail
mean's seed-to-seed spread at several percent, 64 bring it under one.
"""

from __future__ import annotations

import hashlib
import math
import zlib

import numpy as np

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.fleet.balancer import Fleet
from repro.fleet.health import HealthConfig, HealthMonitor
from repro.obs.hub import Observability
from repro.sdrad import telemetry
from repro.sdrad.policy import AbortPolicy
from repro.sdrad.runtime import SdradRuntime
from repro.sim.clock import VirtualClock

GET, SET, DELETE, MULTIGET, ATTACK, PROBE = range(6)

STORED = b"STORED\r\n"
END = b"END\r\n"
DELETED = b"DELETED\r\n"
NOT_FOUND = b"NOT_FOUND\r\n"

#: Attempts a fleet client makes before it gives up on a request that a
#: dead shard refused (the health monitor fails the shard out after three).
FLEET_ATTEMPTS = 8

#: Over-long key that smashes the parser's 256-byte stack buffer.
SMASH_KEY = b"K" * 265

#: Arrival streams the latency model pools.
REPLICAS = 64


def key_of(rank: int) -> bytes:
    return b"key-%08d" % rank


def open_loop_latencies(services_log: list, rate: float, rng, replicas: int):
    """Latency of every logged request under ``replicas`` sets of arrivals.

    ``services_log`` holds, per request in serving order, its arrival
    stream and its ``(server, virtual service)`` parts. Each stream is
    Poisson at ``rate`` divided by the number of streams. A server's
    completions follow the Lindley recursion ``done[i] = max(due[i],
    done[i-1]) + service[i]``, which in closed form is ``S[i] + max(due[k]
    - S[k-1] for k <= i)`` with ``S`` the running sum of services, so each
    server's queue is two cumulative array passes.
    """
    by_stream: dict = {}
    requests, servers, services = [], [], []
    for index, (stream, parts) in enumerate(services_log):
        by_stream.setdefault(stream, []).append(index)
        for server, service in parts:
            requests.append(index)
            servers.append(server)
            services.append(service)
    requests = np.array(requests, dtype=np.int64)
    services = np.array(services)
    by_server: dict = {}
    for position, server in enumerate(servers):
        by_server.setdefault(server, []).append(position)
    queues = []
    for positions in by_server.values():
        positions = np.array(positions, dtype=np.int64)
        busy = np.cumsum(services[positions])
        queues.append((requests[positions], busy, busy - services[positions]))
    arrivals = [np.array(members, dtype=np.int64) for members in by_stream.values()]
    gap = len(arrivals) / rate
    samples = []
    for _ in range(replicas):
        due = np.empty(len(services_log))
        for members in arrivals:
            due[members] = np.cumsum(rng.exponential(gap, len(members)))
        completion = due.copy()
        for owners, busy, busy_before in queues:
            done = busy + np.maximum.accumulate(due[owners] - busy_before)
            np.maximum.at(completion, owners, done)
        samples.append(completion - due)
    return np.sort(np.concatenate(samples))


class Inputs:
    """Seeded source of Zipf key ranks and unique values."""

    def __init__(self, seed: int, workload: str, keys: int, skew: float = 0.99) -> None:
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        weights = np.arange(1, keys + 1, dtype=np.float64) ** -skew
        cdf = np.cumsum(weights)
        self._cdf = cdf / cdf[-1]
        self._serial = 0

    def ranks(self, n: int) -> list:
        drawn = np.searchsorted(self._cdf, self.rng.random(n), side="right")
        return np.minimum(drawn, len(self._cdf) - 1).tolist()

    def value(self, size: int, fill: int) -> bytes:
        """A value no earlier set produced, so a stale read cannot pass."""
        self._serial += 1
        head = b"%x|" % self._serial
        return head + bytes((fill,)) * (size - len(head))


class System:
    """The system under test plus what the oracle and tracer read."""

    def __init__(self, servers=(), fleet=None) -> None:
        self.servers = list(servers)
        self.fleet = fleet
        self.kill_pending = fleet is not None

    @property
    def runtimes(self) -> list:
        if self.fleet is not None:
            return [shard.runtime for shard in self.fleet.shards.values()]
        return [server.runtime for server in self.servers]

    @property
    def stores(self) -> list:
        if self.fleet is not None:
            return [shard.store for shard in self.fleet.shards.values()]
        return [server.store for server in self.servers]

    @property
    def clocks(self) -> list:
        if self.fleet is not None:
            return [self.fleet.clock]
        return [server.runtime.clock for server in self.servers]

    def virtual_now(self) -> float:
        if self.fleet is not None:
            return self.fleet.clock.now
        return sum(server.runtime.clock.now for server in self.servers)

    def evictions(self) -> int:
        return sum(store.stats.evictions for store in self.stores)


class Workload:
    """One traffic mix. Subclasses fill in inputs, build, serve and check."""

    name = ""
    #: Ops served per timed window: about 10 ms of work at baseline speed.
    window_ops = 0
    #: Leading ops whose responses feed the digest, the virtual metrics,
    #: the RSS reading and the per-layer counts. Every run serves them all,
    #: however fast the host, so those outputs depend only on the seed.
    prefix_ops = 0
    #: Open-loop arrivals per virtual second (pipelines or requests), about
    #: half of what the servers can serve. Each memcached server has its
    #: own clients, so its own arrival stream; the fleet has one.
    rate = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.retries = 0
        self.service = 0.0
        #: Per prefix op: its arrival stream and ``(server, service)`` parts.
        self.services_log: list = []
        self.prefix_requests = 0
        self.digest = hashlib.blake2b(digest_size=16)
        self._pending: list = []
        self._pending_pos = 0

    # --- inputs ---------------------------------------------------------

    def next_ops(self, n: int) -> list:
        """The next ``n`` ops: pre-generated ones first, then fresh ones."""
        if self._pending_pos < len(self._pending):
            ops = self._pending[self._pending_pos : self._pending_pos + n]
            self._pending_pos += len(ops)
            if len(ops) == n:
                return ops
            return ops + self._generate(n - len(ops))
        return self._generate(n)

    def release_prefix(self) -> None:
        """Drop the served part of the pre-generated ops."""
        del self._pending[: self._pending_pos]
        self._pending_pos = 0

    def _generate(self, n: int) -> list:
        raise NotImplementedError

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def latencies(self):
        """Sorted open-loop latencies of the prefix ops (virtual seconds)."""
        rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), 1])
        return open_loop_latencies(self.services_log, self.rate, rng, REPLICAS)

    # --- subclass interface ---------------------------------------------

    def build(self) -> System:
        raise NotImplementedError

    def requests(self, ops: list) -> int:
        raise NotImplementedError

    def serve(self, system: System, ops: list) -> list:
        raise NotImplementedError

    def check(self, system: System, ops: list, record: list, in_prefix: bool) -> None:
        raise NotImplementedError

    def tamper(self, system: System) -> None:
        """Overwrite hot keys behind the oracle's back (a planted wrong value)."""
        raise NotImplementedError

    def smash_op(self):
        """An op carrying a stack smash, for the planted-crash check."""
        raise NotImplementedError

    def plant_crash(self, system: System) -> None:
        """Make every runtime abort on a fault instead of rewinding."""
        for runtime in system.runtimes:
            runtime.default_policy = AbortPolicy()

    # --- public counters ------------------------------------------------

    def counters(self, system: System) -> dict:
        totals = dict.fromkeys(
            (
                "rewinds", "tlb_hits", "tlb_misses", "gate_writes", "reentry_hits",
                "reentry_misses", "plan_hits", "trace_events", "gets", "hits",
                "evictions", "multigets", "scatter_batches", "failovers",
            ),
            0,
        )
        for runtime in system.runtimes:
            snap = telemetry.snapshot(runtime)
            memory = snap.get("memory", {})
            totals["rewinds"] += snap.get("totals", {}).get("rewinds", 0)
            for name in ("tlb_hits", "tlb_misses", "gate_writes", "reentry_hits", "reentry_misses"):
                totals[name] += memory.get(name, 0)
            totals["trace_events"] += snap.get("trace_events", 0)
            plans = getattr(runtime.space, "plans", None)
            totals["plan_hits"] += getattr(plans, "hits", 0)
        for store in system.stores:
            totals["gets"] += store.stats.gets
            totals["hits"] += store.stats.hits
            totals["evictions"] += store.stats.evictions
        if system.fleet is not None:
            metrics = system.fleet.metrics
            totals["multigets"] = metrics.multigets
            totals["scatter_batches"] = metrics.scatter_batches
            totals["failovers"] = metrics.failovers
        return totals


class MemcachedWorkload(Workload):
    """Memcached servers fed by per-connection clients."""

    backends = ("mpk",)
    isolation = IsolationMode.PER_CONNECTION
    clients_per_server = 8
    #: Requests per pipeline; 1 means one ``handle`` call per request.
    batch = 16
    keys = 20_000
    preload = 20_000
    value_sizes = (16, 128)
    #: Cumulative op-mix thresholds: get below the first, set below the
    #: second, delete otherwise.
    mix = (0.9, 1.0)
    attack = 0.0
    probe = 0.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed)
        self.inputs = Inputs(seed, self.name, self.keys)
        self.entry = "handle_batch" if self.batch > 1 else "handle"
        lo, hi = self.value_sizes
        rng = self.inputs.rng
        self.preload_items = [
            (key_of(rank), self.inputs.value(int(size), int(fill)))
            for rank, size, fill in zip(
                range(self.preload),
                rng.integers(lo, hi + 1, self.preload),
                rng.integers(97, 123, self.preload),
            )
        ]
        self.oracles = [dict(self.preload_items) for _ in self.backends]
        self.prefix_ops = max(1, round(self.prefix_ops * scale))
        self._pending = self._generate(self.prefix_ops)

    def build(self) -> System:
        servers = []
        for backend in self.backends:
            server = MemcachedServer(SdradRuntime(backend=backend), isolation=self.isolation)
            for client in range(self.clients_per_server):
                server.connect(f"c{client}")
            store_set = server.store.set
            for key, value in self.preload_items:
                store_set(key, value)
            servers.append(server)
        return System(servers)

    def _generate(self, n: int) -> list:
        rng = self.inputs.rng
        k = n * self.batch
        ranks = self.inputs.ranks(k)
        draws = rng.random(k).tolist()
        lo, hi = self.value_sizes
        sizes = rng.integers(lo, hi + 1, k).tolist()
        fills = rng.integers(97, 123, k).tolist()
        servers = rng.integers(len(self.backends), size=n).tolist()
        clients = rng.integers(self.clients_per_server, size=n).tolist()
        if self.attack:
            attacks = rng.random(k).tolist()
            smash_lengths = rng.integers(260, 272, k).tolist()
            declared = rng.integers(1, 8, k).tolist()
            overrun = rng.integers(64, 512, k).tolist()
        get_below, set_below = self.mix
        value = self.inputs.value
        ops = []
        i = 0
        for server, client in zip(servers, clients):
            raws = []
            metas = []
            for _ in range(self.batch):
                if self.attack and attacks[i] < self.attack + self.probe:
                    if attacks[i] < self.attack / 2:
                        raws.append(b"get " + b"K" * smash_lengths[i] + b"\r\n")
                        metas.append((ATTACK,))
                    elif attacks[i] < self.attack:
                        raws.append(
                            b"set pwn 0 0 %d\r\n" % declared[i]
                            + b"Z" * (declared[i] + overrun[i])
                            + b"\r\n"
                        )
                        metas.append((ATTACK,))
                    else:
                        raws.append(b"get pwn\r\n")
                        metas.append((PROBE,))
                else:
                    key = key_of(ranks[i])
                    draw = draws[i]
                    if draw < get_below:
                        raws.append(b"get %s\r\n" % key)
                        metas.append((GET, key))
                    elif draw < set_below:
                        data = value(sizes[i], fills[i])
                        raws.append(b"set %s 0 0 %d\r\n%s\r\n" % (key, len(data), data))
                        metas.append((SET, key, data))
                    else:
                        raws.append(b"delete %s\r\n" % key)
                        metas.append((DELETE, key))
                i += 1
            payload = raws if self.batch > 1 else raws[0]
            ops.append((server, f"c{client}", payload, tuple(metas)))
        return ops

    def requests(self, ops: list) -> int:
        return sum(len(op[3]) for op in ops)

    def serve(self, system: System, ops: list) -> list:
        servers = system.servers
        calls = [getattr(server, self.entry) for server in servers]
        clocks = [server.runtime.clock for server in servers]
        out = []
        append = out.append
        for server, client, payload, _ in ops:
            clock = clocks[server]
            started = clock.now
            append((calls[server](client, payload), clock.now - started))
        return out

    def check(self, system: System, ops: list, record: list, in_prefix: bool) -> None:
        stores = system.stores
        digest = self.digest
        for (server, _, _, metas), (response, service) in zip(ops, record):
            responses = response if isinstance(response, list) else (response,)
            self.attempted += len(metas)
            if len(responses) != len(metas):
                self.fail(f"{len(responses)} responses to {len(metas)} requests")
                continue
            oracle = self.oracles[server]
            store = stores[server]
            for meta, answer in zip(metas, responses):
                if not self._check_one(oracle, store, meta, answer):
                    self.fail(f"{self.name}: {meta[:2]!r} answered {answer[:80]!r}")
            if in_prefix:
                self.service += service
                self.prefix_requests += len(metas)
                self.services_log.append((server, ((server, service),)))
                for answer in responses:
                    digest.update(answer)

    @staticmethod
    def _check_one(oracle: dict, store, meta: tuple, answer: bytes) -> bool:
        kind = meta[0]
        if kind == GET:
            value = oracle.get(meta[1])
            if answer == END:
                return value is None or store.stats.evictions > 0
            return value is not None and answer == b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (
                meta[1], len(value), value
            )
        if kind == SET:
            if answer != STORED:
                return False
            oracle[meta[1]] = meta[2]
            return True
        if kind == DELETE:
            present = oracle.pop(meta[1], None) is not None
            if answer == DELETED:
                return present
            return answer == NOT_FOUND and (not present or store.stats.evictions > 0)
        if kind == ATTACK:
            return answer.startswith(b"SERVER_ERROR")
        return answer == END  # PROBE: ``pwn`` must never become readable

    def tamper(self, system: System) -> None:
        for rank in range(64):
            system.servers[0].store.set(key_of(rank), b"tampered")

    def smash_op(self):
        raw = b"get " + SMASH_KEY + b"\r\n"
        return (0, "c0", [raw] if self.batch > 1 else raw, ((ATTACK,),))


class McPipeline(MemcachedWorkload):
    """One MPK server, 8 clients, 16-request pipelines of 90% get / 10% set
    over Zipf(0.99) on 20k preloaded keys: the store never evicts."""

    name = "mc_pipeline"
    window_ops = 48
    prefix_ops = 10_000
    rate = 3_000.0


class McPerRequest(MemcachedWorkload):
    """Per-request isolation, one ``handle`` per request, 50% get / 45% set /
    5% delete over Zipf(0.99) on 200k keys with 256-1024 B values: the
    working set is far above the 4 MiB arena, so the store evicts steadily."""

    name = "mc_per_request"
    isolation = IsolationMode.PER_REQUEST
    batch = 1
    keys = 200_000
    preload = 6_000
    value_sizes = (256, 1024)
    mix = (0.5, 0.95)
    window_ops = 60
    prefix_ops = 20_000
    rate = 27_000.0


class McAttack(MemcachedWorkload):
    """The ``mc_pipeline`` mix on an MPK, a CHERI and an SFI server, 4 clients
    each, with 1% exploit requests (half stack-smashing keys, half
    length-lying sets of ``pwn``) and 0.5% benign ``get pwn`` probes."""

    name = "mc_attack"
    backends = ("mpk", "cheri", "sfi")
    clients_per_server = 4
    attack = 0.01
    probe = 0.005
    window_ops = 40
    prefix_ops = 6_000
    rate = 9_000.0


class FleetZipf(Workload):
    """An 8-shard fleet with an obs hub, as ``run_fleet`` builds it: Poisson
    arrivals at 5,000/s for 8 virtual seconds of 30% multiget-of-8 / 20% set
    / 50% get over Zipf(0.99) on 10^6 keys, the 20k hottest preloaded, and
    ``shard-1`` killed at 2.4 s for 0.2 s. A client retries a request a dead
    shard refused; the health monitor fails the shard out after three."""

    name = "fleet_zipf"
    window_ops = 80
    shards = 8
    keys = 1_000_000
    preload = 20_000
    rate = 5_000.0
    horizon = 8.0
    kill_at = 2.4
    outage = 0.2
    kill_shard = "shard-1"
    probe_interval = 0.05
    multiget_size = 8

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed)
        self.inputs = Inputs(seed, self.name, self.keys)
        self.horizon = self.horizon * scale
        self.kill_at = self.kill_at * scale
        self.outage = self.outage * scale
        self._t = 0.0
        rng = self.inputs.rng
        self.preload_items = [
            (key_of(rank), self.inputs.value(size, int(fill)))
            for rank, size, fill in zip(
                range(self.preload),
                self._sizes(self.preload),
                rng.integers(97, 123, self.preload),
            )
        ]
        #: key -> (value, window index of the set that stored it)
        self.oracle = {key: (value, -1) for key, value in self.preload_items}
        self._window = 0
        self._membership = None
        #: Keys last stored in a window up to this one may have been lost
        #: with the killed shard or left behind on a failover successor.
        self._unsafe_upto = -2
        pending = []
        while not pending or pending[-1][0] < self.horizon:
            pending += self._generate(1024)
        self._pending = pending
        self.prefix_ops = sum(1 for op in pending if op[0] < self.horizon)

    def _sizes(self, n: int) -> list:
        sizes = self.inputs.rng.lognormal(math.log(128), 0.8, n)
        return np.clip(np.rint(sizes), 16, 2048).astype(int).tolist()

    def build(self) -> System:
        clock = VirtualClock()
        # The ring placement is part of the system, not of the input: a
        # seed-dependent placement moves scatter fan-out from seed to seed.
        fleet = Fleet(self.shards, seed=0, clock=clock, obs=Observability(clock=clock))
        HealthMonitor(fleet, HealthConfig(probe_interval=self.probe_interval))
        fleet.set_many(self.preload_items)
        return System(fleet=fleet)

    def _generate(self, n: int) -> list:
        rng = self.inputs.rng
        gaps = rng.exponential(1.0 / self.rate, n).tolist()
        draws = rng.random(n).tolist()
        ranks = self.inputs.ranks(n * self.multiget_size)
        sizes = self._sizes(n)
        fills = rng.integers(97, 123, n).tolist()
        width = self.multiget_size
        ops = []
        for i, gap in enumerate(gaps):
            self._t += gap
            draw = draws[i]
            if draw < 0.3:
                keys = [key_of(rank) for rank in ranks[i * width : (i + 1) * width]]
                ops.append((self._t, MULTIGET, keys, None))
            elif draw < 0.5:
                ops.append(
                    (self._t, SET, key_of(ranks[i * width]), self.inputs.value(sizes[i], fills[i]))
                )
            else:
                ops.append((self._t, GET, key_of(ranks[i * width]), None))
        return ops

    def requests(self, ops: list) -> int:
        return len(ops)

    def serve(self, system: System, ops: list) -> list:
        fleet = system.fleet
        clock = fleet.clock
        tick = fleet.health.tick
        get = fleet.get
        put = fleet.set
        multiget = fleet.multiget
        out = []
        append = out.append
        for due, kind, key, value in ops:
            if due > clock.now:
                clock.advance_to(due)
            if system.kill_pending and due >= self.kill_at:
                fleet.shards[self.kill_shard].kill(self.outage)
                system.kill_pending = False
            tick(due)
            services = []
            attempts = 0
            while True:
                attempts += 1
                if kind == GET:
                    response = get(key)
                elif kind == SET:
                    response = put(key, value)
                else:
                    response = multiget(key)
                services += fleet.last_op_services
                if not fleet.last_op_failed or attempts == FLEET_ATTEMPTS:
                    break
            append((response, services, attempts, bool(fleet.last_op_failed)))
        return out

    def check(self, system: System, ops: list, record: list, in_prefix: bool) -> None:
        fleet = system.fleet
        membership = (
            fleet.metrics.failovers,
            fleet.metrics.rejoins,
            sum(shard.restarts for shard in fleet.shards.values()),
        )
        if self._membership is not None and membership != self._membership:
            self._unsafe_upto = self._window
        self._membership = membership
        evicted = system.evictions() > 0
        for (_, kind, key, value), (response, services, attempts, failed) in zip(ops, record):
            self.attempted += 1
            self.retries += attempts - 1
            if failed:
                self.fail(f"fleet op still refused after {attempts} attempts")
            elif kind == SET:
                if response == STORED:
                    self.oracle[key] = (value, self._window)
                else:
                    self.fail(f"set {key!r} answered {response[:80]!r}")
            elif not self._check_values(
                key if kind == MULTIGET else (key,), response, evicted
            ):
                self.fail(f"get {key!r} answered {response[:80]!r}")
            if in_prefix:
                self.service += sum(service for _, service in services)
                self.prefix_requests += 1
                self.services_log.append((0, services))
                self.digest.update(response)
        self._window += 1

    def _check_values(self, keys, response: bytes, evicted: bool) -> bool:
        """Each key in order: its last stored value, or a miss it may have."""
        pos = 0
        for key in keys:
            stored = self.oracle.get(key)
            if response.startswith(b"VALUE %s " % key, pos):
                if stored is None:
                    return False
                block = b"VALUE %s 0 %d\r\n%s\r\n" % (key, len(stored[0]), stored[0])
                if not response.startswith(block, pos):
                    return False
                pos += len(block)
            elif stored is not None and not evicted and stored[1] > self._unsafe_upto:
                return False
        return response[pos:] == END

    def tamper(self, system: System) -> None:
        for rank in range(64):
            system.fleet.set(key_of(rank), b"tampered")

    def smash_op(self):
        return (0.0, GET, SMASH_KEY, None)


WORKLOADS = {cls.name: cls for cls in (McPipeline, McPerRequest, McAttack, FleetZipf)}
