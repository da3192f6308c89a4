"""Runtime telemetry: one structured snapshot of everything observable.

Operators of a rewind-based service need the numbers SDRaD makes available
— per-domain fault mixes, rewind counts, isolation costs, key-virtualisation
pressure — in one place. :func:`snapshot` aggregates them from a runtime
into a JSON-friendly dict; servers and experiments attach it to their
reports, and :func:`consistency_check` sweeps what can still disagree.
An obs hub reads its entry, fault and domain counters from the runtime
(:meth:`SdradRuntime.collect_counters`), so those agree by construction.
"""

from __future__ import annotations

from typing import Any

from .constants import ROOT_UDI
from .domain import DomainStats
from .runtime import SdradRuntime


def snapshot(runtime: SdradRuntime) -> dict[str, Any]:
    """Aggregate a runtime's observable state."""
    domains = []
    live = DomainStats()
    for domain in runtime.domains():
        stats = domain.stats
        live.absorb(stats)
        domains.append(
            {
                "udi": domain.udi,
                "pkey": domain.pkey,
                "state": domain.state.value,
                "entries": stats.entries,
                "clean_exits": stats.clean_exits,
                "faults": stats.faults,
                "rewinds": stats.rewinds,
                "heap_bytes": domain.heap_size,
                "stack_bytes": domain.stack_size,
                "heap_live_blocks": domain.heap.stats().live_blocks,
                "bytes_copied_in": stats.bytes_copied_in,
                "bytes_copied_out": stats.bytes_copied_out,
            }
        )

    space = runtime.space
    tlb_lookups = space.tlb_hits + space.tlb_misses
    memory = {
        "backend": space.backend.name,
        "space_bytes": space.size,
        "mapped_bytes": runtime.mapped_bytes(),
        "checked_loads": space.loads,
        "checked_stores": space.stores,
        "hardware_faults": space.faults,
        "gate_writes": space.gate.writes,
        "tlb_enabled": space.tlb_enabled,
        "tlb_hits": space.tlb_hits,
        "tlb_misses": space.tlb_misses,
        "tlb_flushes": space.tlb_flushes,
        "tlb_hit_rate": space.tlb_hits / tlb_lookups if tlb_lookups else 0.0,
        "reentry_cache_enabled": runtime.reentry_enabled,
        "reentry_hits": runtime.reentry_hits,
        "reentry_misses": runtime.reentry_misses,
    }

    out: dict[str, Any] = {
        "virtual_time": runtime.clock.now,
        "domains": domains,
        "domain_count": len(domains) - 1,  # excluding root
        "totals": {
            "entries": live.entries,
            "faults": live.faults,
            "rewinds": live.rewinds,
            "fault_mix": live.fault_kinds,
            "recovery_time": live.rewinds * runtime.cost.rewind,
        },
        "memory": memory,
    }
    if runtime.keys is not None:
        out["key_virtualization"] = {
            "binds": runtime.keys.stats.binds,
            "evictions": runtime.keys.stats.evictions,
            "hits": runtime.keys.stats.hits,
            "hit_rate": runtime.keys.hit_rate(),
            "pages_retagged": runtime.keys.stats.pages_retagged,
            "bound_domains": len(runtime.keys.bound_domains),
            "free_physical_keys": runtime.keys.free_physical_keys,
        }
    if runtime.obs is not None:
        out["obs"] = {
            "sampling": runtime.obs.sampling,
            "spans": len(runtime.obs.buffer),
            "open_spans": runtime.obs.open_span_count,
            "dropped_spans": runtime.obs.buffer.dropped,
            "metrics": runtime.obs.registry.snapshot(),
        }
    return out


def consistency_check(runtime: SdradRuntime) -> list[str]:
    """Cross-subsystem invariants; returns human-readable violations.

    Used by integration tests as a final sweep: an empty list means the
    runtime's books balance.
    """
    problems: list[str] = []
    data = snapshot(runtime)
    totals = data["totals"]
    if sum(totals["fault_mix"].values()) != totals["faults"]:
        problems.append("fault mix does not sum to total faults")
    for domain in data["domains"]:
        if domain["udi"] != ROOT_UDI and domain["state"] == "destroyed":
            problems.append(f"destroyed domain {domain['udi']} still listed")
    entries = runtime.contexts.depth
    if entries != 0:
        problems.append(f"{entries} execution context(s) left on the stack")

    # The pushed rewind counter must equal the runtime's lifetime rewinds
    # at any sampling rate, if the hub is not shared with other runtimes
    # (a cluster's shared hub sums its workers' rewinds).
    obs = runtime.obs
    if obs is not None:
        rewinds = runtime.destroyed_stats.rewinds + totals["rewinds"]
        counted = obs.registry.counter_total("sdrad_rewinds_total")
        if counted != rewinds:
            problems.append(
                f"runtime counts {rewinds} but obs counter "
                f"'sdrad_rewinds_total' totals {counted}"
            )
        if obs.open_span_count != 0:
            problems.append(
                f"{obs.open_span_count} span(s) still open at rest"
            )
        tree_problems = obs.buffer.tree_violations()
        problems.extend(f"span tree: {p}" for p in tree_problems)
    return problems
