"""Regression test: the runtime's host memory stays flat under load.

Domain events are counted in ``DomainStats`` (and in ``repro.obs`` when it
is enabled), never appended to an unbounded per-event log, so a long run
of entries and of domain init/destroy cycles must not grow retained
memory with the number of events.

``tracemalloc`` sees only the Python heap, not the pages of the simulated
address space (an anonymous mapping), so the same loop is also held to a
resident-set budget read from ``/proc/self/statm`` where Linux provides it.
"""

from __future__ import annotations

import gc
import mmap
import os
import tracemalloc

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime

EXECUTES = 50_000
LIFECYCLES = 2_000
SOAK_LIFECYCLES = 20_000
PER_REQUEST_REQUESTS = 20_000
BUDGET = 1024 * 1024  # bytes of retained growth allowed
RSS_BUDGET = 4 * 1024 * 1024  # bytes of resident growth allowed
STATM = "/proc/self/statm"


def _settled_rss() -> int:
    """Resident bytes after a full collection; 0 where ``/proc`` is absent."""
    if not os.access(STATM, os.R_OK):
        return 0
    gc.collect()
    with open(STATM) as statm:
        return int(statm.read().split()[1]) * mmap.PAGESIZE


def _work(handle) -> None:
    return None


def _drive(runtime: SdradRuntime, udi: int, executes: int, lifecycles: int) -> None:
    for _ in range(executes):
        runtime.execute(udi, _work)
    for _ in range(lifecycles):
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.domain_destroy(domain.udi)


def test_retained_memory_does_not_grow_with_events():
    runtime = SdradRuntime()
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    tracemalloc.start()
    try:
        _drive(runtime, domain.udi, 1_000, 50)  # warm-up: caches, entry
        before, _ = tracemalloc.get_traced_memory()
        rss_before = _settled_rss()
        _drive(runtime, domain.udi, EXECUTES, LIFECYCLES)
        after, _ = tracemalloc.get_traced_memory()
        rss_after = _settled_rss()
    finally:
        tracemalloc.stop()
    assert domain.stats.entries == 1_000 + EXECUTES
    assert runtime.destroyed_count == 50 + LIFECYCLES
    assert after - before < BUDGET, f"retained {after - before} bytes"
    assert rss_after - rss_before < RSS_BUDGET, (
        f"resident set grew {rss_after - rss_before} bytes"
    )


def test_domain_lifecycles_retain_nothing_per_domain():
    """Each domain gets its own canary seed and stack; nothing may
    remember them (or anything else) once the domain is destroyed."""
    runtime = SdradRuntime()
    tracemalloc.start()
    try:
        _drive(runtime, udi=0, executes=0, lifecycles=50)  # warm-up
        before, _ = tracemalloc.get_traced_memory()
        _drive(runtime, udi=0, executes=0, lifecycles=SOAK_LIFECYCLES)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runtime.destroyed_count == 50 + SOAK_LIFECYCLES
    assert after - before < BUDGET, f"retained {after - before} bytes"


def _serve(server: MemcachedServer, requests: int) -> None:
    """Sets and gets over 64 keys, so the store itself stops growing."""
    for i in range(requests // 2):
        key = b"key-%02d" % (i % 64)
        server.handle("c", b"set %s 0 0 8\r\nvalue-%02d\r\n" % (key, i % 100))
        server.handle("c", b"get %s\r\n" % key)


def test_per_request_serving_retains_nothing_per_request():
    """A fresh domain per request recycles its predecessor's heap and
    stack; neither the parked slot nor anything else may grow with
    requests."""
    runtime = SdradRuntime()
    server = MemcachedServer(runtime, isolation=IsolationMode.PER_REQUEST)
    server.connect("c")
    tracemalloc.start()
    try:
        _serve(server, 1_000)  # warm-up: store, plans, parked slot
        before, _ = tracemalloc.get_traced_memory()
        rss_before = _settled_rss()
        _serve(server, PER_REQUEST_REQUESTS)
        after, _ = tracemalloc.get_traced_memory()
        rss_after = _settled_rss()
    finally:
        tracemalloc.stop()
    assert runtime.destroyed_count == 1_000 + PER_REQUEST_REQUESTS
    # Exactly one allocator/stack pair, the last retired domain's, waits
    # for the next request's domain.
    parked = runtime._parked
    heap, stack = parked.memory
    assert (heap.base, stack.base) == (parked.heap_base, parked.stack_base)
    assert after - before < BUDGET, f"retained {after - before} bytes"
    assert rss_after - rss_before < RSS_BUDGET, (
        f"resident set grew {rss_after - rss_before} bytes"
    )
