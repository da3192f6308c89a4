"""Runtime telemetry: one structured snapshot of everything observable.

Operators of a rewind-based service need the numbers SDRaD makes available
— per-domain fault mixes, rewind counts, isolation costs, key-virtualisation
pressure — in one place. :func:`snapshot` aggregates them from a runtime
into a JSON-friendly dict; servers and experiments attach it to their
reports, and tests use it as a single consistency check across subsystems.
"""

from __future__ import annotations

from typing import Any

from .constants import ROOT_UDI
from .domain import DomainStats
from .runtime import SdradRuntime


def snapshot(runtime: SdradRuntime) -> dict[str, Any]:
    """Aggregate a runtime's observable state."""
    domains = []
    total_faults = 0
    total_rewinds = 0
    total_entries = 0
    fault_mix: dict[str, int] = {}
    for domain in runtime.domains():
        stats = domain.stats
        total_faults += stats.faults
        total_rewinds += stats.rewinds
        total_entries += stats.entries
        for mechanism, count in stats.fault_kinds.items():
            fault_mix[mechanism] = fault_mix.get(mechanism, 0) + count
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
            "entries": total_entries,
            "faults": total_faults,
            "rewinds": total_rewinds,
            "fault_mix": fault_mix,
            "recovery_time": total_rewinds * runtime.cost.rewind,
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

    # Obs cross-checks: every obs lifecycle counter must equal the lifetime
    # total the runtime keeps itself — live domains' stats plus the
    # aggregate destroyed domains were folded into. Metrics are exempt from
    # span sampling precisely so this holds at any sampling rate. Caveat:
    # these compare one runtime against the hub, so they assume the hub is
    # not shared with other runtimes (a cluster's shared hub aggregates
    # across workers and must be checked at the cluster level instead).
    obs = runtime.obs
    if obs is not None:
        lifetime = DomainStats()
        lifetime.absorb(runtime.destroyed_stats)
        for domain in runtime.domains():
            lifetime.absorb(domain.stats)
        expected = {
            "sdrad_rewinds_total": lifetime.rewinds,
            "sdrad_domain_faults_total": lifetime.faults,
            "sdrad_domain_entries_total": lifetime.entries - lifetime.retries,
            "sdrad_domains_created_total": data["domain_count"]
            + runtime.destroyed_count,
            "sdrad_domains_destroyed_total": runtime.destroyed_count,
        }
        for counter_name, owned in expected.items():
            counted = obs.registry.counter_total(counter_name)
            if counted != owned:
                problems.append(
                    f"runtime counts {owned} but obs counter "
                    f"{counter_name!r} totals {counted}"
                )
        if obs.open_span_count != 0:
            problems.append(
                f"{obs.open_span_count} span(s) still open at rest"
            )
        tree_problems = obs.buffer.tree_violations()
        problems.extend(f"span tree: {p}" for p in tree_problems)
    return problems
