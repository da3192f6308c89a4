"""Regression test: the runtime's host memory stays flat under load.

Domain events are counted in ``DomainStats`` (and in ``repro.obs`` when it
is enabled), never appended to an unbounded per-event log, so a long run
of entries and of domain init/destroy cycles must not grow retained
memory with the number of events.
"""

from __future__ import annotations

import tracemalloc

from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime

EXECUTES = 50_000
LIFECYCLES = 2_000
BUDGET = 1024 * 1024  # bytes of retained growth allowed


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
        _drive(runtime, domain.udi, 1_000, 50)  # warm-up: caches, tickets
        before, _ = tracemalloc.get_traced_memory()
        _drive(runtime, domain.udi, EXECUTES, LIFECYCLES)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert domain.stats.entries == 1_000 + EXECUTES
    assert runtime.destroyed_count == 50 + LIFECYCLES
    assert after - before < BUDGET, f"retained {after - before} bytes"
