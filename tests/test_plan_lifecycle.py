"""Checked plans across per-request domain lifecycles, and cache bounds.

A domain created on recycled regions re-arms its predecessor's dead
checked plans instead of compiling new ones, and one that adopts a
retired domain's regions and key keeps its predecessor's live plans. That
is only sound if every re-arm follows a passing probe and every adoption
yields what a destroy and a fresh init would: the differential test
drives random lifecycles — repeated and varying heap sizes, retires,
destroys, explicit udi reuse, shared-region reservations, heap and stack
traffic, stale reads of retired heaps, retags, unmaps and downgrades of
recycled or live regions —
against an ``access_plans=False``
twin and against a twin that destroys where the others retire, and checks
that no plan the cache hands out fails its probe. An adopting domain also
replays the entry gate value its predecessor derived; the differential
checks each adopter's first entry against the destroy twin, which derives
it. The bound tests drive the plan cache past its limit and check that
per-request serving holds one parked allocator and stack.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.errors import ReproError
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.mpk import PkruRegister
from repro.memory.plans import AccessPlanCache
from repro.sdrad.constants import DomainFlags
from repro.sdrad.detect import DetectionMechanism
from repro.sdrad.runtime import DomainResult, SdradRuntime


class _ProbingPlanCache(AccessPlanCache):
    """A plan cache that probes every checked plan it hands out."""

    __slots__ = ("handed_out",)

    def __init__(self, space: AddressSpace) -> None:
        super().__init__(space)
        self.handed_out: list = []

    def checked_plan(self, base, length, mode="r"):
        plan = super().checked_plan(base, length, mode)
        if plan is not None:
            assert self._probe(base, length, mode), (base, length, mode)
            self.handed_out.append(plan)
        return plan


_STACK = 4 * PAGE_SIZE
#: Mostly one size, so successors reuse their predecessors' regions.
_heap_size = st.sampled_from([4 * PAGE_SIZE] * 2 + [8 * PAGE_SIZE, 16 * PAGE_SIZE])
_pick = st.integers(0, 3)
_heap_op = st.tuples(
    st.just("heap"), _pick, st.integers(-PAGE_SIZE, 24 * PAGE_SIZE), st.integers(1, 64)
)
_stack_op = st.tuples(st.just("stack"), _pick, st.integers(1, 40))
_remap_op = st.tuples(
    st.just("remap"),
    st.sampled_from(["retag", "unmap", "protect"]),
    st.sampled_from(["recycled", "heap", "stack"]),
    _pick,
    _pick,
    st.booleans(),
    st.booleans(),
)
#: Traffic and remaps weighted above init/destroy, so that a remap often
#: lands between a plan's compile and its next request.
_life_ops = st.lists(
    st.one_of(
        # The flag asks for the udi of the last retired or destroyed domain.
        st.tuples(st.just("init"), _heap_size, st.booleans()),
        st.tuples(st.just("retire"), _pick),
        st.tuples(st.just("retire"), _pick),
        st.tuples(st.just("destroy"), _pick),
        st.tuples(st.just("shared"), st.sampled_from([_STACK, 8 * PAGE_SIZE])),
        # A live domain reads a retired or destroyed domain's heap.
        st.tuples(st.just("stale"), _pick, _pick),
        _heap_op,
        _heap_op,
        _stack_op,
        _stack_op,
        _remap_op,
        _remap_op,
    ),
    min_size=12,
    max_size=40,
)


def _heap_body(offset: int, n: int):
    def body(handle):
        buf = handle.malloc(32)
        handle.store(buf + offset, bytes([n]) * n)
        return handle.load(buf + offset, n)

    return body


def _stack_body(n: int):
    def body(handle):
        frame = handle.push_frame("req")
        buf = frame.alloca(16)
        frame.write_buffer(buf, bytes([n]) * n)  # over 16 bytes smashes
        data = frame.read_buffer(buf, 16)
        handle.pop_frame(frame)
        return data

    return body


class _LifeSide:
    """One runtime of the lifecycle differential. ``retire=False`` makes
    every retire step a destroy: the reference an adoption must match."""

    def __init__(self, backend: str, access_plans: bool, retire: bool = True) -> None:
        space = AddressSpace(size=8 << 20, backend=backend, access_plans=access_plans)
        if access_plans:
            space.plans = _ProbingPlanCache(space)
        self.runtime = SdradRuntime(space=space, root_heap_size=16 * PAGE_SIZE)
        self.space = space
        self.retire = retire
        self.udis: list[int] = []
        self.gone: list[int] = []
        self.gone_heaps: list[int] = []
        # The udi the last step entered and the gate value inside it.
        self.entered = None
        self.entry_gate = None

    def _domain(self, pick: int):
        return self.runtime.domain(self.udis[pick % len(self.udis)])

    def _execute(self, udi: int, body):
        gate = self.space.gate

        def entry(handle):
            self.entry_gate = gate.value
            return body(handle)

        self.entered = udi
        return self.runtime.execute(udi, entry)

    def apply(self, op):
        runtime, name = self.runtime, op[0]
        self.entered = self.entry_gate = None
        if name == "init":
            udi = self.gone.pop() if op[2] and self.gone else None
            domain = runtime.domain_init(
                flags=DomainFlags.RETURN_TO_PARENT,
                heap_size=op[1],
                stack_size=_STACK,
                udi=udi,
            )
            self.udis.append(domain.udi)
            return domain.udi, domain.pkey, domain.heap_base, domain.stack_base
        if name == "shared":
            return runtime.map_shared_region(op[1])
        if not self.udis and name != "remap":
            return None
        if name in ("retire", "destroy"):
            udi = self.udis[op[1] % len(self.udis)]
            heap_base = runtime.domain(udi).heap_base
            if name == "retire" and self.retire:
                runtime.domain_retire(udi)
            else:
                runtime.domain_destroy(udi)
            self.udis.remove(udi)
            self.gone.append(udi)
            self.gone_heaps.append(heap_base)
            return udi
        if name == "stale":
            if not self.gone_heaps:
                return None
            stale = self.gone_heaps[op[2] % len(self.gone_heaps)]
            return self._execute(self._domain(op[1]).udi, lambda h: h.load(stale, 8))
        if name == "heap":
            return self._execute(self._domain(op[1]).udi, _heap_body(op[2], op[3]))
        if name == "stack":
            return self._execute(self._domain(op[1]).udi, _stack_body(op[2]))
        _, kind, where, pick, tag_pick, readable, writable = op
        if where == "recycled":
            # A region a destroyed domain left for the next init to reuse.
            # Poking the page table is a region operation, and so, like
            # every one in the runtime, settles a retired domain first.
            runtime._settle()
            regions = runtime._free_regions
            if not regions:
                return None
            base, size = regions[pick % len(regions)]
        elif not self.udis:
            return None
        elif where == "heap":
            domain = self._domain(pick)
            base, size = domain.heap_base, domain.heap_size
        else:
            domain = self._domain(pick)
            base, size = domain.stack_base, domain.stack_size
        table = self.space.page_table
        if kind == "retag":
            tags = [0] + [runtime.domain(udi).pkey for udi in self.udis]
            return table.tag_range(base, size, tags[tag_pick % len(tags)])
        if kind == "unmap":
            return table.unmap_range(base, size)
        return table.protect_range(base, size, readable=readable, writable=writable)


def _life_outcome(side: _LifeSide, op):
    try:
        result = ("ok", side.apply(op))
    except ReproError as exc:
        result = (type(exc), str(exc))
    space, runtime = side.space, side.runtime
    return (
        result,
        space.loads,
        space.stores,
        space.faults,
        runtime.clock.now,
        runtime.reentry_hits,
        runtime.reentry_misses,
        runtime.destroyed_count,
        runtime.mapped_bytes(),
    )


def _adopts(runtime, op) -> bool:
    """Whether ``op`` is an init that will adopt the parked domain."""
    parked = runtime._parked
    return (
        op[0] == "init"
        and parked is not None
        and runtime._adoptable(parked, op[1], _STACK)
    )


def _tlb_marks(side: _LifeSide) -> tuple[int, int]:
    space = side.space
    return space.tlb_hits + space.tlb_misses, space.tlb_flushes


def _first_entry(side: _LifeSide, marks: tuple[int, int]):
    """What an adopter's first entry must share with a derived entry: the
    gate value inside it, the gate writes, the TLB lookups and flushes the
    entry made, the re-entry misses and the clock. The split of lookups into
    hits and misses is not shared: a destroy's ``pkey_free`` flushes the
    verdicts that a retire keeps for the adopter."""
    space, runtime = side.space, side.runtime
    lookups, flushes = marks
    return (
        side.entry_gate,
        space.gate.writes,
        space.tlb_hits + space.tlb_misses - lookups,
        space.tlb_flushes - flushes,
        runtime.reentry_misses,
        runtime.clock.now,
    )


def _parked_pages(runtime) -> tuple[range, ...]:
    """The byte ranges of the retired domain waiting in the parked slot."""
    parked = runtime._parked
    if parked is None:
        return ()
    return (
        range(parked.heap_base, parked.heap_base + parked.heap_size),
        range(parked.stack_base, parked.stack_base + parked.stack_size),
    )


def _stale(outcome, parked: tuple[range, ...], mechanism: DetectionMechanism):
    """``outcome`` with a fault into ``parked`` reduced to its address,
    after checking that it was detected by ``mechanism``."""
    result = outcome[0]
    if result[0] != "ok" or not isinstance(result[1], DomainResult):
        return outcome
    fault = result[1].fault
    if fault is None or not any(fault.address in pages for pages in parked):
        return outcome
    assert fault.mechanism is mechanism, fault
    stale = ("stale", fault.address, fault.domain_udi, fault.timestamp)
    return (("ok", replace(result[1], fault=stale)),) + outcome[1:]


@pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=_life_ops)
@example(  # a downgrade of the live heap: its dead plan must stay dead
    ops=[
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 0, 8),
        ("remap", "protect", "heap", 0, 0, True, False),
        ("heap", 0, 0, 8),
    ]
)
@example(  # a successor re-arms its predecessor's plans on recycled regions
    ops=[
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 0, 8),
        ("stack", 0, 8),
        ("destroy", 0),
        ("remap", "unmap", "recycled", 0, 0, False, False),
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 8, 8),
        ("stack", 0, 40),
    ]
)
@example(  # a successor adopts a retired domain, under its old udi too
    ops=[
        ("init", 4 * PAGE_SIZE, False),
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 0, 8),
        ("heap", 1, 0, 8),
        ("retire", 0),
        ("heap", 0, -PAGE_SIZE, 8),  # a stale pointer into the parked stack
        ("init", 4 * PAGE_SIZE, True),
        ("heap", 1, 8, 8),
        ("retire", 1),
        ("init", 8 * PAGE_SIZE, False),  # another shape settles it
        ("retire", 0),
        ("retire", 0),  # a second retire settles the first
        ("init", 4 * PAGE_SIZE, True),
        ("stack", 0, 40),
    ]
)
@example(  # the adopter replays its predecessor's gate, not its peer's
    ops=[
        ("init", 4 * PAGE_SIZE, False),
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 0, 8),
        ("heap", 1, 0, 8),
        ("retire", 1),
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 1, 0, 8),
    ]
)
@example(  # an adopter retired before its first entry passes the gate on
    ops=[
        ("init", 4 * PAGE_SIZE, False),
        ("stack", 0, 8),
        ("retire", 0),
        ("init", 4 * PAGE_SIZE, False),
        ("retire", 0),
        ("init", 4 * PAGE_SIZE, False),
        ("stack", 0, 8),
    ]
)
@example(  # a lower key is free: the init takes it, not the parked one
    ops=[
        ("init", 8 * PAGE_SIZE, False),
        ("init", 4 * PAGE_SIZE, False),
        ("destroy", 0),
        ("shared", _STACK),
        ("shared", 8 * PAGE_SIZE),
        ("retire", 0),
        ("init", 4 * PAGE_SIZE, False),
        ("heap", 0, 0, 8),
    ]
)
def test_rearmed_plans_match_plan_off_twin(backend, ops):
    """Per-request lifecycles with remaps in between: the plans-on runtime
    gives the same results, fault types and messages, counters and final
    bytes as its plan-off twin, and every checked plan the cache hands
    out — compiled, re-armed or adopted — passes its probe. Against a
    twin that destroys where it retires, every init gets the same udi,
    key and regions, and everything else matches too, except that a
    stale access into a parked region is a gate violation where the
    destroyed region's is a page fault. An adopter's first entry, which
    replays its predecessor's gate value, matches the destroy twin's
    derived entry (:func:`_first_entry`)."""
    on = _LifeSide(backend, access_plans=True)
    off = _LifeSide(backend, access_plans=False)
    ref = _LifeSide(backend, access_plans=False, retire=False)
    adopted = set()  # adopters not entered yet
    for op in ops:
        parked = _parked_pages(on.runtime)
        adopting = _adopts(off.runtime, op)
        marks = _tlb_marks(off), _tlb_marks(ref)
        outcome = _life_outcome(on, op)
        assert outcome == _life_outcome(off, op), op
        assert _stale(outcome, parked, DetectionMechanism.PKEY_VIOLATION) == _stale(
            _life_outcome(ref, op), parked, DetectionMechanism.PAGE_FAULT
        ), op
        if op[0] == "init" and outcome[0][0] == "ok":
            udi = outcome[0][1][0]
            (adopted.add if adopting else adopted.discard)(udi)
        elif off.entered in adopted:
            adopted.discard(off.entered)
            assert _first_entry(off, marks[0]) == _first_entry(ref, marks[1]), op
        cache = on.space.plans
        for plan in cache.handed_out:
            if plan.is_valid():
                # A usable plan's verdict must still hold right now.
                assert cache._probe(plan.base, plan.length, plan.mode)
    size = on.space.size
    assert on.space.raw_load(0, size) == off.space.raw_load(0, size)
    assert on.space.raw_load(0, size) == ref.space.raw_load(0, size)


def test_successor_domain_rearms_its_predecessors_plans():
    """A fresh domain on the same regions under the same key compiles
    nothing: its heap and stack plans are the predecessor's, re-armed."""
    runtime = SdradRuntime()
    plans = []

    def body(handle):
        handle.store(handle.malloc(16), b"x" * 16)
        frame = handle.push_frame("req")
        frame.write_buffer(frame.alloca(16), b"y" * 16)
        handle.pop_frame(frame)
        plans.append((handle._plan, runtime.domain(handle.udi).stack._rw_plan))

    for _ in range(3):
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(domain.udi, body).ok
        runtime.domain_destroy(domain.udi)
    assert plans[0] == plans[1] == plans[2]
    assert all(plan is not None for plan in plans[0])
    assert not any(plan.is_valid() for plan in plans[0])  # destroyed again


class TestCacheBounds:
    """ROADMAP item 4: every cache has a bound and a test that reaches it."""

    def test_plan_cache_stays_bounded_and_drops_only_dead_plans(self):
        space = AddressSpace(size=64 * PAGE_SIZE)
        space.page_table.map_range(0, 64 * PAGE_SIZE)
        space.pkru.grant(space.pkeys.alloc())
        granted = space.pkru.value
        cache = space.plans
        bound = cache._MAX_PLANS
        made_checked, made_kernel = [], []
        for i in range(3 * bound // 2):
            # Distinct (base, length) per step: no key repeats.
            base, length = (i % 16) * PAGE_SIZE, (i // 16 + 1) * 64
            plan = cache.checked_plan(base, length, "rw")
            assert plan is not None
            made_checked.append(plan)
            made_kernel.append(cache.kernel_plan(base, length))
            if i % 3 == 0:
                # Kill the page's plans; they stay cached, dead.
                space.page_table.protect_range(
                    base, PAGE_SIZE, readable=True, writable=True
                )
            if i % 5 == 0:
                # Dormant under a foreign PKRU, then back.
                space.pkru.write(PkruRegister.DENY_ALL_EXCEPT_DEFAULT)
                space.pkru.write(granted)
            assert len(cache._checked) <= bound
            assert len(cache._kernel) <= bound
        cached_checked = set(map(id, cache._checked.values()))
        cached_kernel = set(map(id, cache._kernel.values()))
        dropped_checked = [p for p in made_checked if id(p) not in cached_checked]
        dropped_kernel = [p for p in made_kernel if id(p) not in cached_kernel]
        assert dropped_checked and dropped_kernel  # the bound was reached
        for plan in dropped_checked + dropped_kernel:
            assert not plan.is_valid()
        for plan in dropped_checked:
            assert plan.cell[0] is None  # shot down, not merely dormant
            # Never revived: the run gets a fresh plan object.
            again = cache.checked_plan(plan.base, plan.length, plan.mode)
            assert again is not plan and not plan.is_valid()

    def test_per_request_serving_holds_one_parked_pair(self):
        """Per-request serving holds exactly one allocator/stack pair
        beyond the live domains': the last retired domain's, parked for
        the next request's domain to reset in place."""
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_REQUEST)
        server.connect("c")
        first = None
        for i in range(50):
            server.handle("c", b"set k%d 0 0 5\r\nvalue\r\n" % (i % 7))
            assert server.handle("c", b"get k%d\r\n" % (i % 7)).startswith(b"VALUE")
            parked = runtime._parked
            assert parked is not None
            heap, stack = parked.memory
            assert heap.base == parked.heap_base and stack.base == parked.stack_base
            first = first or parked.memory
            # Every request's domain reset the one pair in place.
            assert heap is first[0] and stack is first[1]
