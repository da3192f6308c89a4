"""``SdradRuntime.domain_retire``: a destroy whose regions and key wait,
still mapped and allocated, for the next init of the same shape.

The model treats a retired domain as destroyed, so everything observable
must match a destroy: addresses, keys, bytes, charges, telemetry. The one
documented difference is the fault class of a stale access into a parked
region: its pages keep a key that no live gate grants, so the access is a
gate violation (a protection-key fault) instead of a segmentation fault.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CapabilityViolation,
    DomainNotFound,
    DomainStateError,
    MemoryError_,
    ProtectionKeyViolation,
    SdradError,
    SegmentationFault,
    SfiViolation,
)
from repro.memory.layout import PAGE_SIZE
from repro.sdrad.constants import ROOT_UDI, DomainFlags, DomainState
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import snapshot

BACKENDS = ["mpk", "cheri", "sfi"]
VIOLATION = {
    "mpk": ProtectionKeyViolation,
    "cheri": CapabilityViolation,
    "sfi": SfiViolation,
}


def _init(runtime, heap_size=64 * 1024, **kwargs):
    return runtime.domain_init(
        flags=DomainFlags.RETURN_TO_PARENT, heap_size=heap_size, **kwargs
    )


def _capture(runtime, domain):
    """Run one entry that writes the heap; returns its handle, heap plan
    and buffer address."""
    seen = {}

    def body(handle):
        buf = handle.malloc(64)
        handle.store(buf, b"P" * 64)
        seen.update(handle=handle, plan=handle._plan, buf=buf)

    assert runtime.execute(domain.udi, body).ok
    return seen["handle"], seen["plan"], seen["buf"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_access_to_a_parked_domain_is_a_gate_violation(backend):
    runtime = SdradRuntime(backend=backend)
    domain = _init(runtime)
    handle, plan, buf = _capture(runtime, domain)
    runtime.domain_retire(domain.udi)
    assert runtime._parked is not None
    assert domain.state is DomainState.DESTROYED
    assert domain.heap is None and domain.stack is None
    space = runtime.space
    stack_top = domain.stack_base + domain.stack_size - 8
    for stale in (buf, domain.stack_base, stack_top):
        for access in (lambda: space.load(stale, 8), lambda: space.store(stale, b"x")):
            with pytest.raises(VIOLATION[backend]) as info:
                access()
            assert not isinstance(info.value, SegmentationFault)
    # The predecessor's plan and handle take the same checked path.
    with pytest.raises(VIOLATION[backend]):
        plan.load(buf, 64)
    with pytest.raises(VIOLATION[backend]):
        handle.load(buf, 64)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_plan_and_handle_cannot_read_an_adopting_successor(backend):
    runtime = SdradRuntime(backend=backend)
    first = _init(runtime)
    handle, plan, buf = _capture(runtime, first)
    runtime.domain_retire(first.udi)
    successor = _init(runtime)
    assert runtime._parked is None
    # Adopted: the same regions and key, a fresh udi and domain object.
    assert (successor.heap_base, successor.stack_base, successor.pkey) == (
        first.heap_base,
        first.stack_base,
        first.pkey,
    )
    assert successor.udi != first.udi and successor is not first

    def fill(h):
        secret = h.malloc(64)
        h.store(secret, b"successor-secret" * 4)
        return secret

    secret = runtime.execute(successor.udi, fill).value
    # From the root gate, neither the predecessor's plan nor its handle
    # reaches the successor's bytes.
    for stale in (buf, secret):
        with pytest.raises(MemoryError_):
            plan.load(stale, 64)
        with pytest.raises(MemoryError_):
            handle.load(stale, 64)
    assert runtime.execute(
        successor.udi, lambda h: h.load(secret, 64)
    ).value == b"successor-secret" * 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_retire_then_init_matches_destroy_then_init(backend):
    """Addresses, keys, bytes, clock, stats and telemetry agree with a
    destroy; only the host-side TLB and plan caches differ."""

    def run(teardown):
        runtime = SdradRuntime(backend=backend)
        out = []
        for size in (64 * 1024, 64 * 1024, 32 * 1024, 64 * 1024):
            domain = _init(runtime, heap_size=size)
            _capture(runtime, domain)
            out.append((domain.udi, domain.pkey, domain.heap_base, domain.stack_base))
            getattr(runtime, teardown)(domain.udi)
            state = snapshot(runtime)
            for key in ("tlb_hits", "tlb_misses", "tlb_flushes", "tlb_hit_rate"):
                del state["memory"][key]
            out.append(state)
        out.append((runtime.destroyed_count, runtime.destroyed_stats))
        out.append(runtime.space.raw_load(0, runtime.space.size))
        return out

    assert run("domain_retire") == run("domain_destroy")


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_parked_key_does_not_block_an_init_of_another_shape(backend):
    """With 15 keys in use, one of them parked, an init of a different
    shape settles the parked domain and takes its key."""
    runtime = SdradRuntime(backend=backend)
    domains = [_init(runtime, heap_size=16 * 1024) for _ in range(15)]
    runtime.domain_retire(domains[7].udi)
    other = _init(runtime, heap_size=32 * 1024)
    assert other.pkey == domains[7].pkey
    assert runtime._parked is None
    # The settled regions went back to the free list.
    assert (domains[7].heap_base, 16 * 1024) in runtime._free_regions


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_parked_key_is_adopted_by_an_init_of_its_shape(backend):
    runtime = SdradRuntime(backend=backend)
    domains = [_init(runtime, heap_size=16 * 1024) for _ in range(15)]
    retired = domains[14]
    heap, stack = retired.heap, retired.stack
    runtime.domain_retire(retired.udi)
    assert runtime._parked.memory == (heap, stack)
    again = _init(runtime, heap_size=16 * 1024)
    assert (again.pkey, again.heap_base) == (retired.pkey, retired.heap_base)
    # The retired allocator and stack are reset in place for the adopter.
    assert again.heap is heap and again.stack is stack
    assert heap.name == f"domain-{again.udi}-heap"


@pytest.mark.parametrize("backend", BACKENDS)
def test_map_shared_region_after_a_retire_returns_the_destroy_address(backend):
    def run(teardown):
        runtime = SdradRuntime(backend=backend)
        domain = _init(runtime, heap_size=64 * 1024)
        _init(runtime)  # keeps the bump pointer past the freed regions
        getattr(runtime, teardown)(domain.udi)
        return runtime.map_shared_region(64 * 1024), domain.heap_base

    retired, destroyed = run("domain_retire"), run("domain_destroy")
    assert retired == destroyed
    assert retired[0] == retired[1]  # the freed heap, reused exactly


def test_key_virtualization_never_parks():
    runtime = SdradRuntime(key_virtualization=True)
    domain = _init(runtime)
    _capture(runtime, domain)
    runtime.domain_retire(domain.udi)
    assert runtime._parked is None
    assert (domain.heap_base, domain.heap_size) in runtime._free_regions
    with pytest.raises(SegmentationFault):
        runtime.space.load(domain.heap_base, 8)


@pytest.mark.parametrize("backend", BACKENDS)
def test_at_most_one_shape_is_parked(backend):
    runtime = SdradRuntime(backend=backend)
    first, second = _init(runtime), _init(runtime, heap_size=32 * 1024)
    runtime.domain_retire(first.udi)
    runtime.domain_retire(second.udi)
    parked = runtime._parked
    assert (parked.heap_base, parked.heap_size) == (second.heap_base, 32 * 1024)
    # The first was settled: unmapped, its regions free, its key free.
    assert (first.heap_base, first.heap_size) in runtime._free_regions
    assert not runtime.space.pkeys.is_allocated(first.pkey)
    with pytest.raises(SegmentationFault):
        runtime.space.load(first.heap_base, 8)
    assert runtime.mapped_bytes() == runtime.space.page_table.mapped_bytes() - (
        32 * 1024 + second.stack_size
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_remapped_domain_is_unmapped_at_its_retire(backend):
    """Only regions exactly as their init mapped them are parked: a
    protected heap is unmapped at once, and a heap someone unmapped fails
    the retire before anything is torn down, as a destroy's unmap did."""
    runtime = SdradRuntime(backend=backend)
    table = runtime.space.page_table
    protected, unmapped = _init(runtime), _init(runtime)
    table.protect_range(protected.heap_base, PAGE_SIZE, readable=True, writable=False)
    runtime.domain_retire(protected.udi)
    assert runtime._parked is None
    assert (protected.heap_base, protected.heap_size) in runtime._free_regions
    table.unmap_range(unmapped.heap_base, PAGE_SIZE)
    count = runtime.destroyed_count
    with pytest.raises(SdradError, match="double unmap"):
        runtime.domain_retire(unmapped.udi)
    assert runtime.domain(unmapped.udi).state is not DomainState.DESTROYED
    assert runtime.destroyed_count == count


def test_retire_refuses_what_destroy_refuses(runtime):
    with pytest.raises(DomainNotFound):
        runtime.domain_retire(99)
    with pytest.raises(SdradError):
        runtime.domain_retire(ROOT_UDI)
    domain = _init(runtime)

    def nested(handle):
        runtime.domain_retire(domain.udi)

    with pytest.raises(DomainStateError):
        runtime.execute(domain.udi, nested)
    assert runtime._parked is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_adopting_domain_replays_its_predecessors_entry_gate(backend, monkeypatch):
    """The parked slot carries the gate value the retired domain's entries
    derived; the adopter's first entry replays it (no derivation) with the
    same gate value and write count, and still counts a re-entry miss. A
    domain that is never entered passes the value on to its adopter, and
    an init that settles the parked domain instead derives its own."""
    runtime = SdradRuntime(backend=backend)
    gate = runtime.space.gate
    seen = []

    def body(handle):
        seen.append((gate.value, gate.writes))

    first = _init(runtime)
    assert first.entry_gate is None
    writes = gate.writes
    assert runtime.execute(first.udi, body).ok
    derived_value, derived_writes = seen[-1][0], seen[-1][1] - writes
    runtime.domain_retire(first.udi)
    assert runtime._parked.entry_gate == (derived_value, derived_writes)

    derivations = []
    apply_domain_gate = runtime._apply_domain_gate
    monkeypatch.setattr(
        runtime,
        "_apply_domain_gate",
        lambda domain: derivations.append(domain) or apply_domain_gate(domain),
    )
    idle = _init(runtime)  # adopted, retired without an entry
    assert idle.entry_gate == (derived_value, derived_writes)
    runtime.domain_retire(idle.udi)
    assert runtime._parked.entry_gate == (derived_value, derived_writes)
    adopter = _init(runtime)
    assert adopter.pkey == first.pkey
    misses, writes = runtime.reentry_misses, gate.writes
    assert runtime.execute(adopter.udi, body).ok
    assert seen[-1] == (derived_value, writes + derived_writes)
    assert runtime.reentry_misses == misses + 1
    assert derivations == []
    # An init that does not adopt derives its gate on its first entry.
    runtime.domain_retire(adopter.udi)
    other = _init(runtime, heap_size=32 * 1024)
    assert runtime._parked is None
    assert other.entry_gate is None
    assert runtime.execute(other.udi, body).ok
    assert derivations == [other]
