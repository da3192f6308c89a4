#!/usr/bin/env python
"""Wall-clock performance harness for the simulated memory system.

Measures the *host-time* cost of the simulation itself — not the virtual
time the cost model charges (those numbers are what the experiments report
and are unchanged by any of this). Four benches:

* ``raw_access``     — checked load/store on a hot page, software TLB on
                       vs. off (the tentpole speedup; the off run is the
                       seed behaviour);
* ``domain_switch``  — enter/exit a persistent domain with a trivial body;
* ``fault_rewind``   — inject a stack smash and rewind, lazy vs. eager
                       scrub (the E2b ablation axis, now also a wall-clock
                       axis);
* ``kvstore_e2e``    — the Memcached retrofit end-to-end: per-connection
                       isolation, set/get mix through the unsafe parser,
                       TLB on vs. off;
* ``memcached_e2e``  — the PR 2 pipeline: the same mix per-connection,
                       per-request, batched (16-request pipelines through
                       ``handle_batch``), and with the domain re-entry
                       fast path disabled (the PR 1 baseline behaviour);
* ``domain_reentry`` — enter/exit a persistent domain with the re-entry
                       cache on vs. off, isolating the re-entry fast
                       path from protocol work;
* ``memcached_obs``  — the PR 6 cheap-by-default contract: the memcached
                       set/get mix pipelined through ``handle_batch`` (the
                       PR 6 serving configuration) with observability
                       disabled (the default) vs. a live ``Observability``
                       hub at sampling 1.0 and 0.01, measured in the
                       *saturated steady state* (the span buffer is warmed
                       to capacity first, so the numbers reflect the
                       saturated hot path a long-running deployment sits
                       in, not the transient fill phase); the per-request
                       grain is reported as ``*_per_request``,
                       informational;
* ``access_plans``   — the PR 6 tentpole: the same logical access stream
                       through a compiled plan's fused/vectorised
                       accessors vs. the per-access checked path with
                       plans disabled (``AddressSpace(access_plans=
                       False)``, the ablation baseline);
* ``fleet``          — the PR 7 tentpole: scatter-gather multiget
                       throughput over the consistent-hash fleet's
                       critical path, 8 shards vs. 1, serving identical
                       deterministic key sequences; plus a seeded
                       end-to-end fleet run (arrivals, failover,
                       latency percentiles, sustainability ledger);
* ``backends``       — the PR 8 tentpole: the memcached E1 serving mix
                       (per-connection isolation, set/get through the
                       unsafe parser) on each isolation substrate —
                       MPK (explicit and default spelling), simulated
                       CHERI, and SFI — with the mpk-vs-default parity
                       ratio gated (the backend axis must not tax the
                       default path);
* ``campaign``       — the PR 10 subsystem: the stratified sampling
                       loop's injection throughput (fresh runtime per
                       round, severity draws, ledger fold) plus the
                       wall-clock of one tiny seeded closed loop
                       (sample -> fit -> decide -> validate) —
                       informational, not gated.

Writes machine-readable results (ops/sec plus on/off speedups) to a JSON
file — ``BENCH_PR10.json`` by default — which ``check_bench_regression.py``
compares across PRs and gates with the absolute targets (plan speedup
>= 10x, batched-vs-baseline >= 3x, obs overhead <= 1.05x, 8-shard
multiget >= 3x 1-shard, mpk backend >= 0.75x the default spelling).

Usage::

    PYTHONPATH=src python scripts/bench.py [--out BENCH_PR10.json] [--quick]
        [--only memcached_obs,...] [--repeat 3]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime


#: Best-of-N repeats per measurement, settable via ``--repeat``. Wall-clock
#: rates on a shared VM swing by 20%+ between runs; taking the best of a few
#: independent timed windows (the ``timeit.repeat`` recipe) recovers a stable
#: estimate of what the code can do when the machine is not being preempted.
_REPEAT = 1


def _measure_group(
    fns: dict, *, min_time: float = 0.25, batch: int = 1, rounds: int = 0,
    grain: float = 0.01,
) -> dict:
    """Interleaved measurement of several configurations of one workload.

    ``fns`` maps config name -> ``fn(n)`` performing ``n`` operations.
    Sequentially measuring configs lets machine drift (CPU frequency
    excursions, noisy neighbours on a shared VM) land entirely on whichever
    config happened to run during the slow spell — observed swings exceed
    20%, which is fatal for within-file ratios gated at 5-25%. Instead,
    each round interleaves single ~``grain``-second calls round-robin
    until every config has accumulated ``min_time``, so drift is shared
    across the whole group at the call scale; the reported number per
    config is its best round. Per-call rates are kept (``_call_rates``,
    stripped from the JSON) so :func:`_paired_ratio` can pair calls that
    ran within milliseconds of each other. ``rounds`` overrides
    ``_REPEAT`` when a bench gates a ratio tight enough (e.g. obs <=
    1.05x) to need more samples than the default to converge.
    """
    # Warm up and calibrate each config's batch size so one call ~= grain.
    sizes = {}
    for name, fn in fns.items():
        n = batch
        while True:
            start = time.perf_counter()
            fn(n)
            elapsed = time.perf_counter() - start
            if elapsed >= grain:
                break
            n *= 4
        sizes[name] = n
    results: dict = {name: None for name in fns}
    # Timed windows run with the cyclic GC off (the pyperf discipline):
    # collector pauses scale with *everything alive in the process* — other
    # configs' runtimes, earlier benches' arenas — so leaving GC on charges
    # each config for heap it does not own, in proportion to how much it
    # allocates. Refcounting still reclaims the hot loops' garbage.
    gc_was_enabled = gc.isenabled()
    for _ in range(max(1, rounds or _REPEAT)):
        gc.collect()
        gc.disable()
        try:
            totals = {name: [0, 0.0, 0.0] for name in fns}  # ops, time, best
            calls = {name: [] for name in fns}
            # Alternate single ~grain-sized calls round-robin until every
            # config has accumulated ``min_time``: drift is then shared at
            # the call scale, not the window scale — adjacent same-round
            # windows were observed to disagree by 10%+ under load.
            while True:
                pending = False
                for name, fn in fns.items():
                    acc = totals[name]
                    if acc[1] >= min_time:
                        continue
                    pending = True
                    n = sizes[name]
                    start = time.perf_counter()
                    fn(n)
                    elapsed = time.perf_counter() - start
                    acc[0] += n
                    acc[1] += elapsed
                    acc[2] = max(acc[2], n / elapsed)
                    calls[name].append(n / elapsed)
                if not pending:
                    break
            for name, (total_ops, total_time, best) in totals.items():
                window = {
                    "ops_per_sec": round(total_ops / total_time, 1),
                    "best_ops_per_sec": round(best, 1),
                    "ops": total_ops,
                    "seconds": round(total_time, 4),
                }
                prev = results[name]
                if prev is None or window["ops_per_sec"] > prev["ops_per_sec"]:
                    window["round_rates"] = prev["round_rates"] if prev else []
                    window["_call_rates"] = prev["_call_rates"] if prev else []
                    results[name] = window
                results[name]["round_rates"].append(
                    round(total_ops / total_time, 1)
                )
                results[name]["_call_rates"].extend(calls[name])
        finally:
            if gc_was_enabled:
                gc.enable()
    return results


def _paired_ratio(numer: dict, denom: dict) -> float:
    """Ratio of two configs measured by the same ``_measure_group`` call.

    The median over all *call pairs*: the i-th timed call of one config is
    paired with the i-th call of the other, which ran within milliseconds
    of it in the same round-robin sweep. Machine noise on a shared VM is
    violent (adjacent 0.25 s windows disagreeing by 25%) but mostly
    *shared* at the few-millisecond scale, so each pair largely cancels
    the drift both calls sat in; the median over the hundreds of pairs a
    run accumulates then discards the pairs where a steal slice or
    preemption landed inside only one call. Medians of per-round
    aggregates were tried first and wobble by several percent under the
    same noise — far too coarse for a gate with 5% total headroom.

    This is the estimator the tight regression gates (obs <= 1.05x) are
    checked against.
    """
    pairs = list(zip(numer["_call_rates"], denom["_call_rates"]))
    ratios = sorted(a / b for a, b in pairs)
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2.0


def _measure(fn, *, min_time: float = 0.25, batch: int = 1) -> dict:
    """Run ``fn(n)`` (which performs ``n`` operations) until ``min_time``
    seconds of wall-clock have accumulated; return ops/sec statistics for
    the best of ``_REPEAT`` such windows."""
    return _measure_group({"_": fn}, min_time=min_time, batch=batch)["_"]


# ----------------------------------------------------------------------
# Bench 1: raw checked access
# ----------------------------------------------------------------------

def bench_raw_access(min_time: float) -> dict:
    def run(tlb: bool) -> dict:
        space = AddressSpace(size=PAGE_SIZE * 16, tlb_enabled=tlb)
        space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        space.store(64, b"x" * 32)

        def loop(n: int) -> None:
            load = space.load
            store = space.store
            payload = b"y" * 32
            for _ in range(n // 2):
                load(64, 32)
                store(64, payload)

        return _measure(loop, min_time=min_time, batch=2048)

    on = run(True)
    off = run(False)
    return {
        "tlb_on": on,
        "tlb_off": off,
        "speedup": round(on["ops_per_sec"] / off["ops_per_sec"], 2),
    }


# ----------------------------------------------------------------------
# Bench 1b: compiled access plans vs. the per-access checked path
# ----------------------------------------------------------------------

def bench_access_plans(min_time: float) -> dict:
    """The PR 6 tentpole gate: one iteration performs the same logical
    access stream either way — a 256-word header scan, 32 adjacent item
    reads and one item write, the shape of the kvstore/slab hot loops.
    Plan-on rides the fused/vectorised accessors (three Python calls);
    plan-off pays the per-access checked path for every single access,
    which is exactly what ``AddressSpace(access_plans=False)`` (and the
    seed) executes."""
    ITEM_COUNT = 32
    ITEM_SIZE = 64
    HEADER_WORDS = 256
    OPS = HEADER_WORDS + ITEM_COUNT + 1  # logical accesses per iteration
    items_base = 4 * HEADER_WORDS
    requests = [
        (items_base + i * ITEM_SIZE, ITEM_SIZE) for i in range(ITEM_COUNT)
    ]
    payload = b"p" * ITEM_SIZE

    def _space(plans: bool) -> AddressSpace:
        space = AddressSpace(size=PAGE_SIZE * 16, access_plans=plans)
        space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        space.store(0, b"\x00" * (items_base + ITEM_COUNT * ITEM_SIZE))
        return space

    def run_on() -> dict:
        space = _space(True)
        plan = space.plans.checked_plan(0, 2 * PAGE_SIZE, "rw")
        assert plan is not None

        def loop(n: int) -> None:
            load_u32_run = plan.load_u32_run
            load_many = plan.load_many
            store = plan.store
            for _ in range(n // OPS):
                load_u32_run(0, HEADER_WORDS)
                load_many(requests)
                store(items_base, payload)

        return _measure(loop, min_time=min_time, batch=OPS * 4)

    def run_off() -> dict:
        space = _space(False)

        def loop(n: int) -> None:
            load_u32 = space.load_u32
            load = space.load
            store = space.store
            for _ in range(n // OPS):
                for i in range(HEADER_WORDS):
                    load_u32(4 * i)
                for address, length in requests:
                    load(address, length)
                store(items_base, payload)

        return _measure(loop, min_time=min_time, batch=OPS * 4)

    on = run_on()
    off = run_off()
    return {
        "plan_on": on,
        "plan_off": off,
        "speedup": round(on["ops_per_sec"] / off["ops_per_sec"], 2),
    }


# ----------------------------------------------------------------------
# Bench 2: domain switch
# ----------------------------------------------------------------------

def bench_domain_switch(min_time: float) -> dict:
    runtime = SdradRuntime()
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

    def body(handle):
        return None

    def loop(n: int) -> None:
        execute = runtime.execute
        udi = domain.udi
        for _ in range(n):
            execute(udi, body)

    return _measure(loop, min_time=min_time, batch=64)


# ----------------------------------------------------------------------
# Bench 3: fault -> rewind cycle
# ----------------------------------------------------------------------

def bench_fault_rewind(min_time: float) -> dict:
    def smash(handle):
        frame = handle.push_frame("victim")
        buf = frame.alloca(32)
        frame.write_buffer(buf, b"A" * 128)  # canary smash

    def run(mode: str) -> dict:
        runtime = SdradRuntime(scrub_mode=mode)
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )

        def loop(n: int) -> None:
            execute = runtime.execute
            udi = domain.udi
            for _ in range(n):
                result = execute(udi, smash)
                assert not result.ok

        return _measure(loop, min_time=min_time, batch=32)

    lazy = run("lazy")
    eager = run("eager")
    return {
        "lazy": lazy,
        "eager": eager,
        "speedup": round(lazy["ops_per_sec"] / eager["ops_per_sec"], 2),
    }


# ----------------------------------------------------------------------
# Bench 4: kvstore end-to-end
# ----------------------------------------------------------------------

def bench_kvstore_e2e(min_time: float) -> dict:
    def run(tlb: bool) -> dict:
        runtime = SdradRuntime(space=AddressSpace(tlb_enabled=tlb))
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("bench-client")
        requests = []
        for i in range(16):
            value = b"v" * 64
            requests.append(
                b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value)
            )
            requests.append(b"get key%d\r\n" % i)

        def loop(n: int) -> None:
            handle = server.handle
            reqs = requests
            for i in range(n):
                handle("bench-client", reqs[i % len(reqs)])

        return _measure(loop, min_time=min_time, batch=32)

    on = run(True)
    off = run(False)
    return {
        "tlb_on": on,
        "tlb_off": off,
        "speedup": round(on["ops_per_sec"] / off["ops_per_sec"], 2),
    }


# ----------------------------------------------------------------------
# Bench 5: memcached end-to-end, batching + re-entry fast path (PR 2)
# ----------------------------------------------------------------------

def bench_memcached_e2e(min_time: float) -> dict:
    """The request-pipeline benches: per-connection vs. per-request vs.
    batched, per-connection with the re-entry cache off (the PR 1
    execution path), and ``baseline`` — the fully-unoptimised seed
    execution path (software TLB off, re-entry cache off, access plans
    off, unbatched), the within-file reference the PR 6 >=3x batched
    speedup gate measures against."""

    def requests() -> list[bytes]:
        reqs = []
        for i in range(16):
            value = b"v" * 64
            reqs.append(b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value))
            reqs.append(b"get key%d\r\n" % i)
        return reqs

    def make_loop(isolation: IsolationMode, *, batched: bool = False,
                  reentry: bool = True, plans: bool = True,
                  tlb: bool = True):
        runtime = SdradRuntime(
            reentry_cache=reentry,
            space=AddressSpace(tlb_enabled=tlb, access_plans=plans),
        )
        server = MemcachedServer(runtime, isolation=isolation)
        server.connect("bench-client")
        reqs = requests()

        if batched:
            batch_size = 16
            batches = [
                reqs[i : i + batch_size]
                for i in range(0, len(reqs), batch_size)
            ]

            def loop(n: int) -> None:
                handle_batch = server.handle_batch
                for i in range(n // batch_size):
                    handle_batch("bench-client", batches[i % len(batches)])

            return loop

        def loop(n: int) -> None:
            handle = server.handle
            for i in range(n):
                handle("bench-client", reqs[i % len(reqs)])

        return loop

    # All five configurations are measured interleaved: the gated ratios
    # (batched vs. baseline/fastpath_off) must not be at the mercy of
    # machine drift between two sequentially-timed configs.
    measured = _measure_group(
        {
            "per_connection": make_loop(IsolationMode.PER_CONNECTION),
            "per_request": make_loop(IsolationMode.PER_REQUEST),
            "batched": make_loop(IsolationMode.PER_CONNECTION, batched=True),
            "fastpath_off": make_loop(
                IsolationMode.PER_CONNECTION, reentry=False
            ),
            "baseline": make_loop(
                IsolationMode.PER_CONNECTION,
                reentry=False, plans=False, tlb=False,
            ),
        },
        min_time=min_time,
        batch=32,
        rounds=max(_REPEAT, 4),
    )
    batched = measured["batched"]
    return {
        **measured,
        "batched_speedup": round(
            _paired_ratio(batched, measured["per_connection"]), 2
        ),
        "speedup_vs_fastpath_off": round(
            _paired_ratio(batched, measured["fastpath_off"]), 2
        ),
        "speedup_vs_baseline": round(
            _paired_ratio(batched, measured["baseline"]), 2
        ),
    }


# ----------------------------------------------------------------------
# Bench 6: domain re-entry fast path in isolation
# ----------------------------------------------------------------------

def bench_domain_reentry(min_time: float) -> dict:
    """Same loop as ``domain_switch``, but explicitly contrasting the
    re-entry cache on (PR 2) vs. off (the PR 1 enter/exit path)."""

    def run(reentry: bool) -> dict:
        runtime = SdradRuntime(reentry_cache=reentry)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

        def body(handle):
            return None

        def loop(n: int) -> None:
            execute = runtime.execute
            udi = domain.udi
            for _ in range(n):
                execute(udi, body)

        return _measure(loop, min_time=min_time, batch=64)

    on = run(True)
    off = run(False)
    return {
        "reentry_on": on,
        "reentry_off": off,
        "speedup": round(on["ops_per_sec"] / off["ops_per_sec"], 2),
    }


# ----------------------------------------------------------------------
# Bench 7: observability overhead (PR 5)
# ----------------------------------------------------------------------

def bench_memcached_obs(min_time: float) -> dict:
    """Observability's cost contract (the PR 6 <=1.05x gate).

    ``obs=None`` (the default) must cost nothing — the server binds its
    dispatch methods straight to the implementations, so there is not even
    a wrapper frame. A live hub is measured in the *saturated steady
    state*: the span buffer (capacity 10,000, a production-shaped cap) is
    warmed to capacity before timing starts, so the measured path is the
    saturated hot path — the shared DROPPED placeholder,
    cached metric handles — that a long-running deployment actually sits
    in. The fill-phase cost is a bounded one-off (capacity x span build),
    not a per-request cost, which is why steady state is the honest
    denominator for the paper's always-on-telemetry claim.

    The gated ratio rides the PR 6 serving configuration — 16-request
    pipelines through ``handle_batch`` — where the tracing grain is one
    span per batch entry plus exact per-request metrics (uniform-status
    batches record in one vectorised call). The per-request grain (two
    spans + two metric points per single ``handle``) is also reported, as
    ``*_per_request`` entries: that grain buys per-request trace detail at
    a cost no in-process tracer can amortise away, so it is informational
    rather than gated. All configurations are measured interleaved so the
    within-file ratios survive machine drift.

    Every configuration runs on ONE shared server instance, switching
    ``runtime.obs`` between ``None`` and the pre-saturated hubs around
    each timed call. Separately constructed servers differ by heap-layout
    luck — measured at 2-4% on this workload, the same order as the gated
    margin — so a two-instance comparison measures the allocator lottery
    as much as the instrumentation; pairing every config over the identical
    instance cancels that bias and leaves only the obs cost. The obs-off
    config therefore pays the wrapper's one-attribute ``obs is None``
    early-out rather than a wrapper-free binding — the same check a
    production ``obs=None`` deployment pays per dispatch, ~0.03% of a
    batch, charged to the *off* side so the gate stays conservative."""
    from repro.obs import Observability

    def requests() -> list[bytes]:
        reqs = []
        for i in range(16):
            value = b"v" * 64
            reqs.append(b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value))
            reqs.append(b"get key%d\r\n" % i)
        return reqs

    reqs = requests()
    batch_size = 16
    batches = [reqs[0:batch_size], reqs[batch_size : 2 * batch_size]]

    full = Observability(span_capacity=10_000)
    sampled = Observability(sampling=0.01, span_capacity=10_000)
    runtime = SdradRuntime(obs=full)
    sampled.bind_clock(runtime.clock)
    server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
    server.connect("bench-client")
    # ``runtime._obs_entries`` is resolved against the constructed-with hub;
    # each toggle swaps the matching counter in with the hub.
    entry_counters = {
        id(None): None,
        id(full): runtime._obs_entries,
        id(sampled): sampled.registry.counter("sdrad_domain_entries_total"),
    }

    for hub_obj in (full, sampled):
        runtime.obs = hub_obj
        runtime._obs_entries = entry_counters[id(hub_obj)]
        # Warm the real serving loop (metric handles, interned codes) ...
        for _ in range(64):
            for raws in batches:
                server.handle_batch("bench-client", raws)
        # ... then saturate the ring directly: the timed window must sit in
        # the buffer-full steady state, and at 1% sampling the serving loop
        # would need capacity/sampling ~= 1M batches to get there.
        while not hub_obj.buffer.full:
            span = hub_obj.start_span("memcached.batch", client="bench-client")
            hub_obj.end_span(span, status="ok")
    runtime.obs = None
    runtime._obs_entries = None

    def make_loop(hub_obj, *, batched: bool):
        counter = entry_counters[id(hub_obj)]

        if batched:
            def loop(n: int) -> None:
                runtime.obs = hub_obj
                runtime._obs_entries = counter
                try:
                    handle_batch = server.handle_batch
                    for i in range(n // batch_size):
                        handle_batch("bench-client", batches[i % len(batches)])
                finally:
                    runtime.obs = None
                    runtime._obs_entries = None

            return loop

        def loop(n: int) -> None:
            runtime.obs = hub_obj
            runtime._obs_entries = counter
            try:
                handle = server.handle
                for i in range(n):
                    handle("bench-client", reqs[i % len(reqs)])
            finally:
                runtime.obs = None
                runtime._obs_entries = None

        return loop

    measured = _measure_group(
        {
            "obs_off": make_loop(None, batched=True),
            "obs_on": make_loop(full, batched=True),
            "obs_sampled_1pct": make_loop(sampled, batched=True),
            "obs_off_per_request": make_loop(None, batched=False),
            "obs_on_per_request": make_loop(full, batched=False),
        },
        min_time=min_time,
        batch=32,
        # The 1.05x gate leaves a few percent of noise headroom over the
        # true ratio: pair at ~5 ms grain and accumulate more rounds than
        # the default so the call-pair median converges.
        rounds=max(_REPEAT, 14),
        grain=0.005,
    )
    off = measured["obs_off"]
    return {
        **measured,
        "overhead_full": round(
            _paired_ratio(off, measured["obs_on"]), 3
        ),
        "overhead_sampled": round(
            _paired_ratio(off, measured["obs_sampled_1pct"]), 3
        ),
        "overhead_full_per_request": round(
            _paired_ratio(
                measured["obs_off_per_request"],
                measured["obs_on_per_request"],
            ),
            3,
        ),
    }


# ----------------------------------------------------------------------
# Bench 8: sharded fleet scatter-gather scaling (PR 7)
# ----------------------------------------------------------------------

def bench_fleet(min_time: float) -> dict:
    """The PR 7 tentpole gate: multiget throughput scaling 1 -> 8 shards.

    Both fleets are preloaded with identical items and serve the SAME
    deterministic multiget stream, dispatched the way an open-loop
    front-end actually sees it: in *waves* of concurrent in-flight
    multigets (``Fleet.multiget_wave``), where every shard receives one
    ``handle_batch`` pipeline per wave — one domain activation record per
    shard per wave, amortising the per-``handle`` entry cost that would
    otherwise dominate both sides equally and flatten the ratio.
    Throughput is computed over the fleet's *critical path* — the
    front-end's serial host time (routing via the route cache, request
    building, reassembly) plus, per wave, the slowest shard's pipeline
    (its ``get_many`` service AND its response split, which pipelines
    with the other shards) — what a wall clock in front of N real
    parallel nodes would read. On 1 shard every multiget is whole-shard,
    so it rides the no-parse fast path; on 8 shards each shard serves
    ~1/8 of the wave's keys. The >= 3x gate protects exactly the three
    fast paths that make that split profitable: cached O(1) routing,
    coalesced per-shard pipelines, and verbatim whole-shard responses.
    Rounds alternate 1-shard/8-shard back to back and the reported
    speedup is the median of per-round ratios, the same drift-cancelling
    discipline as ``_paired_ratio``.

    A seeded end-to-end fleet run (arrivals + failover + ledger) is
    recorded alongside as ``fleet_run`` — informational, asserted by the
    driver's own test suite rather than gated here.
    """
    import random as _random

    from repro.fleet import Fleet, FleetRunConfig, HealthConfig, run_fleet

    ITEM_COUNT = 4_000
    MULTIGET_SIZE = 16
    WAVE = 32  # concurrent in-flight multigets coalesced per wave
    WAVES = 8
    TOTAL_KEYS = WAVES * WAVE * MULTIGET_SIZE
    items = [(b"user:%06d" % i, b"v" * 32) for i in range(ITEM_COUNT)]
    key_rng = _random.Random(0xF1EE7)
    waves = [
        [
            [
                items[key_rng.randrange(ITEM_COUNT)][0]
                for _ in range(MULTIGET_SIZE)
            ]
            for _ in range(WAVE)
        ]
        for _ in range(WAVES)
    ]

    fleets = {}
    for count in (1, 8):
        fleet = Fleet(count, seed=0, track_host_time=True)
        stored = fleet.set_many(list(items))
        assert stored == ITEM_COUNT
        fleets[count] = fleet
    # Wave serving must be byte-identical to one-at-a-time single-shard
    # serving of the same multigets, on both fleets.
    reference = [fleets[1].multiget(list(keys)) for keys in waves[0]]
    assert fleets[1].multiget_wave(waves[0]) == reference
    assert fleets[8].multiget_wave(waves[0]) == reference

    def run_round(fleet: "Fleet") -> dict:
        fleet.reset_host_time()
        wave = fleet.multiget_wave
        for batch in waves:
            wave(batch)
        snap = fleet.host_time_snapshot()
        snap["keys_per_sec"] = TOTAL_KEYS / snap["makespan_s"]
        return snap

    # Warm both serving paths before timing.
    for fleet in fleets.values():
        run_round(fleet)

    # Many short paired rounds spread across _REPEAT windows: the median
    # of per-round ratios shrugs off a noise burst unless it covers most
    # of the total measurement span, not just one window.
    rounds = max(3, int(min_time / 0.01))
    samples: dict = {1: [], 8: []}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(_REPEAT):
            gc.collect()
            gc.disable()
            try:
                for _ in range(rounds):
                    # Back-to-back per round: both sides sit in the same
                    # drift.
                    for count in (1, 8):
                        samples[count].append(run_round(fleets[count]))
            finally:
                if gc_was_enabled:
                    gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()

    ratios = sorted(
        eight["keys_per_sec"] / one["keys_per_sec"]
        for one, eight in zip(samples[1], samples[8])
    )
    mid = len(ratios) // 2
    speedup = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2.0
    )

    def summarize(rounds_list: list) -> dict:
        best = max(rounds_list, key=lambda s: s["keys_per_sec"])
        return {
            "keys_per_sec": round(best["keys_per_sec"], 1),
            "serial_s": round(best["serial_s"], 6),
            "critical_s": round(best["critical_s"], 6),
            "parallel_total_s": round(best["parallel_total_s"], 6),
            "makespan_s": round(best["makespan_s"], 6),
            "round_rates": [round(s["keys_per_sec"], 1) for s in rounds_list],
        }

    report = run_fleet(
        FleetRunConfig(
            shards=8,
            seed=0,
            keyspace=1_000_000,
            rate=4_000.0,
            horizon=1.0 if min_time >= 0.25 else 0.25,
            preload=2_000,
            kill_at=0.3 if min_time >= 0.25 else None,
            kill_shard="shard-1",
            outage=0.2,
            health_config=HealthConfig(probe_interval=0.05),
        )
    )
    return {
        "fleet_1shard": summarize(samples[1]),
        "fleet_8shard": summarize(samples[8]),
        "multiget_speedup_8x1": round(speedup, 2),
        "multiget_size": MULTIGET_SIZE,
        "wave_size": WAVE,
        "fleet_run": report.as_dict(),
    }


# ----------------------------------------------------------------------
# Bench 9: isolation-backend substrates on the memcached E1 path (PR 8)
# ----------------------------------------------------------------------

def bench_backends(min_time: float) -> dict:
    """The PR 8 tentpole: the same serving mix on each substrate.

    Every configuration runs the memcached E1 path — per-connection
    isolation, the 16-key set/get mix through the unsafe parser — on a
    runtime constructed over a different :class:`IsolationBackend`.
    ``default`` (no ``backend=`` argument) and ``mpk`` (the explicit
    spelling) must be the same machine: their paired ratio is gated at
    >= 0.75 so the backend indirection can never quietly tax the path
    every earlier PR measured. ``cheri`` (grant-set gate, unbounded
    tags) and ``sfi`` (per-access tax accounting on the virtual clock)
    are recorded alongside — informational, since their *virtual* costs
    are the modelled substrate differences while their *wall-clock*
    rates mostly measure the shared gate machinery. All four are
    measured interleaved, same drift discipline as ``memcached_e2e``."""

    def requests() -> list[bytes]:
        reqs = []
        for i in range(16):
            value = b"v" * 64
            reqs.append(b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value))
            reqs.append(b"get key%d\r\n" % i)
        return reqs

    def make_loop(backend):
        runtime = SdradRuntime(backend=backend)
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("bench-client")
        reqs = requests()

        def loop(n: int) -> None:
            handle = server.handle
            for i in range(n):
                handle("bench-client", reqs[i % len(reqs)])

        return loop

    measured = _measure_group(
        {
            "default": make_loop(None),
            "mpk": make_loop("mpk"),
            "cheri": make_loop("cheri"),
            "sfi": make_loop("sfi"),
        },
        min_time=min_time,
        batch=32,
        rounds=max(_REPEAT, 4),
    )
    return {
        **measured,
        "mpk_vs_default": round(
            _paired_ratio(measured["mpk"], measured["default"]), 3
        ),
        "cheri_vs_mpk": round(
            _paired_ratio(measured["cheri"], measured["mpk"]), 3
        ),
        "sfi_vs_mpk": round(
            _paired_ratio(measured["sfi"], measured["mpk"]), 3
        ),
    }


# ----------------------------------------------------------------------
# Bench 10: statistical fault-load campaign (PR 10)
# ----------------------------------------------------------------------

def bench_campaign(min_time: float) -> dict:
    """The PR 10 campaign loop — informational, never gated.

    ``sampling`` measures the stratified sampler's injection throughput:
    each call builds a fresh two-stratum sampler and runs one round per
    stratum (fresh runtime, arrival plan, severity draws, background
    requests, ledger fold) — the unit of work the sequential stopping rule
    repeats. ``closed_loop_seconds`` times one tiny seeded campaign end to
    end (sample -> fit -> decide -> validate, fleet application skipped)
    so a cost blow-up anywhere in the loop shows in the recorded file."""
    from repro.campaigns import CampaignConfig, CampaignSampler, run_campaign
    from repro.campaigns.strata import InjectionPhase
    from repro.faultinj.models import FaultKind

    cfg = CampaignConfig(
        kinds=(FaultKind.STACK_SMASH, FaultKind.HEAP_OVERFLOW),
        domains=("shard-0",),
        phases=(InjectionPhase.ENTRY,),
        backends=("mpk",),
        max_per_stratum=16,
        max_rounds=2,
        validation_injections=8,
    )
    per_step = cfg.batch * len(cfg.strata())

    def loop(n: int) -> None:
        for _ in range(max(1, n // per_step)):
            sampler = CampaignSampler(cfg)
            sampler.step()

    sampling = _measure(loop, min_time=min_time, batch=per_step)
    start = time.perf_counter()
    report = run_campaign(cfg, run_fleet=False)
    closed_loop = time.perf_counter() - start
    return {
        "sampling": sampling,
        "closed_loop_seconds": round(closed_loop, 3),
        "closed_loop_rounds": report.rounds,
    }


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="BENCH_PR10.json",
        help="output JSON path (default: BENCH_PR10.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter runs (noisier numbers, for smoke-testing the harness)",
    )
    parser.add_argument(
        "--only",
        help="comma-separated bench names to run (default: all)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="best-of-N timed windows per measurement (default: 3)",
    )
    args = parser.parse_args()
    min_time = 0.05 if args.quick else 0.25
    global _REPEAT
    _REPEAT = 1 if args.quick else max(1, args.repeat)

    all_benches = (
        ("raw_access", bench_raw_access),
        ("access_plans", bench_access_plans),
        ("domain_switch", bench_domain_switch),
        ("fault_rewind", bench_fault_rewind),
        ("kvstore_e2e", bench_kvstore_e2e),
        ("memcached_e2e", bench_memcached_e2e),
        ("domain_reentry", bench_domain_reentry),
        ("memcached_obs", bench_memcached_obs),
        ("fleet", bench_fleet),
        ("backends", bench_backends),
        ("campaign", bench_campaign),
    )
    selected = dict(all_benches)
    if args.only:
        wanted = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in selected]
        if unknown:
            parser.error(
                f"unknown bench(es) {', '.join(unknown)}; "
                f"choose from {', '.join(selected)}"
            )
        selected = {name: selected[name] for name in wanted}

    out = Path(args.out)
    results = {
        "schema": 7,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeat": _REPEAT,
        "benches": {},
    }
    if args.only and out.exists():
        # A partial run (make bench-obs / bench-plans) refreshes only the
        # selected benches; the other entries in the recorded file — which
        # the regression gate and the absolute targets read — must survive.
        try:
            previous = json.loads(out.read_text())
        except ValueError:
            previous = None
        if isinstance(previous, dict) and isinstance(previous.get("benches"), dict):
            results["benches"].update(previous["benches"])
    for name, fn in all_benches:
        if name not in selected:
            continue
        print(f"[bench] {name} ...", flush=True)
        result = fn(min_time)
        for config in result.values():
            # Per-call rates feed the paired-ratio estimator in-process;
            # hundreds of floats per config are noise in the recorded file.
            if isinstance(config, dict):
                config.pop("_call_rates", None)
        results["benches"][name] = result
        # Drop the bench's runtimes/arenas before the next one runs, so a
        # later bench's GC pauses are not inflated by this bench's heap.
        gc.collect()

    out.write_text(json.dumps(results, indent=2) + "\n")

    b = results["benches"]
    print(f"\nresults -> {out}")
    if "raw_access" in b:
        print(
            f"  raw_access    : {b['raw_access']['tlb_on']['ops_per_sec']:>12,.0f} ops/s"
            f"  (tlb off {b['raw_access']['tlb_off']['ops_per_sec']:,.0f},"
            f" speedup {b['raw_access']['speedup']}x)"
        )
    if "access_plans" in b:
        p = b["access_plans"]
        print(
            f"  access_plans  : {p['plan_on']['ops_per_sec']:>12,.0f} iters/s"
            f"  (plan off {p['plan_off']['ops_per_sec']:,.0f},"
            f" speedup {p['speedup']}x)"
        )
    if "domain_switch" in b:
        print(f"  domain_switch : {b['domain_switch']['ops_per_sec']:>12,.0f} ops/s")
    if "fault_rewind" in b:
        print(
            f"  fault_rewind  : {b['fault_rewind']['lazy']['ops_per_sec']:>12,.0f} ops/s"
            f"  (eager {b['fault_rewind']['eager']['ops_per_sec']:,.0f},"
            f" lazy speedup {b['fault_rewind']['speedup']}x)"
        )
    if "kvstore_e2e" in b:
        print(
            f"  kvstore_e2e   : {b['kvstore_e2e']['tlb_on']['ops_per_sec']:>12,.0f} req/s"
            f"  (tlb off {b['kvstore_e2e']['tlb_off']['ops_per_sec']:,.0f},"
            f" speedup {b['kvstore_e2e']['speedup']}x)"
        )
    if "memcached_e2e" in b:
        m = b["memcached_e2e"]
        print(
            f"  memcached_e2e : {m['batched']['ops_per_sec']:>12,.0f} req/s batched"
            f"  (per-conn {m['per_connection']['ops_per_sec']:,.0f},"
            f" per-req {m['per_request']['ops_per_sec']:,.0f},"
            f" fastpath off {m['fastpath_off']['ops_per_sec']:,.0f},"
            f" baseline {m['baseline']['ops_per_sec']:,.0f},"
            f" vs baseline {m['speedup_vs_baseline']}x)"
        )
    if "domain_reentry" in b:
        r = b["domain_reentry"]
        print(
            f"  domain_reentry: {r['reentry_on']['ops_per_sec']:>12,.0f} ops/s"
            f"  (cache off {r['reentry_off']['ops_per_sec']:,.0f},"
            f" speedup {r['speedup']}x)"
        )
    if "memcached_obs" in b:
        o = b["memcached_obs"]
        print(
            f"  memcached_obs : {o['obs_off']['ops_per_sec']:>12,.0f} req/s obs off"
            f"  (full tracing {o['obs_on']['ops_per_sec']:,.0f},"
            f" 1% sampled {o['obs_sampled_1pct']['ops_per_sec']:,.0f},"
            f" off/on {o['overhead_full']}x,"
            f" per-req {o['overhead_full_per_request']}x)"
        )
    if "fleet" in b:
        f = b["fleet"]
        run = f["fleet_run"]
        print(
            f"  fleet         : {f['fleet_8shard']['keys_per_sec']:>12,.0f} keys/s"
            f" 8-shard multiget"
            f"  (1-shard {f['fleet_1shard']['keys_per_sec']:,.0f},"
            f" speedup {f['multiget_speedup_8x1']}x;"
            f" run avail {run['availability']:.4f},"
            f" p99 {run['p99'] * 1e6:.0f}us)"
        )
    if "backends" in b:
        k = b["backends"]
        print(
            f"  backends      : {k['mpk']['ops_per_sec']:>12,.0f} req/s mpk"
            f"  (default {k['default']['ops_per_sec']:,.0f},"
            f" cheri {k['cheri']['ops_per_sec']:,.0f},"
            f" sfi {k['sfi']['ops_per_sec']:,.0f},"
            f" mpk/default {k['mpk_vs_default']}x)"
        )
    if "campaign" in b:
        c = b["campaign"]
        print(
            f"  campaign      : {c['sampling']['ops_per_sec']:>12,.0f} inj/s"
            f"  (closed loop {c['closed_loop_seconds']}s,"
            f" {c['closed_loop_rounds']} round(s))"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
