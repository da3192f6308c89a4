"""Compiled access plans: specialized accessors for hot page runs.

Per-access enforcement (``AddressSpace.load``/``store``) pays a Python
frame, a TLB probe, a bounds check and an ``int.from_bytes`` for every
simulated access. The hot loops of the reproduction — allocator boundary
tags, kvstore item I/O, the in-domain parsers — touch the *same page run*
millions of times under the *same PKRU*, so all of that work is loop
invariant. An :class:`AccessPlan` hoists it: the plan factory validates a
contiguous run of pages once (same verdict the per-access path would
compute), then generates accessor closures that fuse the residual validity
test, the bounds check and the ``struct.Struct`` decode into one Python
frame over a single :class:`memoryview` of the run.

Hardware analogy (DESIGN.md §9): a plan is a *batched TLB verdict*. The
per-access path asks "may the current PKRU touch this page?" once per
access; a plan asks it once per (PKRU, page run) and then rides the cached
answer — which is only sound if the answer is shot down on exactly the
events that could change it:

====================  =====================================================
event                 effect on plans
====================  =====================================================
``WRPKRU``            checked plans are keyed by PKRU value and hold the
                      per-PKRU TLB verdict dict in their cell; a switch
                      makes foreign plans *dormant* (identity test fails,
                      accessors fall back to the checked path) and
                      reactivates them when the same PKRU value returns —
                      mirroring the per-PKRU TLB verdict caches.
map/mprotect/retag    ``PageTable.on_range_update`` →
                      :meth:`AccessPlanCache.shootdown_checked` over the
                      updated pages: checked plans whose run overlaps
                      them die; kernel plans survive (they read neither
                      the page table nor the gate).
``pkey_free``         TLB full flush → every checked plan dies (a recycled
                      key may return under a new owner with the same PKRU
                      bits); kernel plans survive.
``tlb_flush``         :meth:`AccessPlanCache.shootdown` (every plan dies
                      and leaves the cache).
domain destroy        unmaps the domain's regions → range update → the
                      checked plans over them die; a stale plan can never
                      serve a freed domain's heap.
re-request            a dead checked plan stays cached under its key;
                      :meth:`AccessPlanCache.checked_plan` re-arms the same
                      object only after a fresh probe of the run passes
                      under the current PKRU, so a successor domain on
                      recycled regions reuses its predecessor's plans
                      without compiling and a run the update made
                      inaccessible keeps its plan dead.
====================  =====================================================

A dead or dormant plan never raises by itself: every accessor falls back
to the ordinary checked (or raw) path, which re-checks everything and
raises the byte-identical fault the plan-off build would raise. Plans are
therefore a pure fast path — ``AddressSpace(access_plans=False)`` is the
ablation proving results are bit-identical either way.

Two plan flavours exist, matching the two access paths:

* **checked plans** (:meth:`AccessPlanCache.checked_plan`) — the
  application path. Built only after a non-faulting probe of every page in
  the run under the *current* PKRU; accessors keep the ``loads``/``stores``
  counters exact and count every fast-path access as a TLB hit — the plan
  *is* a cached verdict, so telemetry sees it as one.
* **kernel plans** (:meth:`AccessPlanCache.kernel_plan`) — the trusted
  runtime path (allocator metadata, slab items, stack canaries, FFI
  marshalling), bounds-checked like ``raw_load``/``raw_store`` and exempt
  from PKRU just like them.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import SdradError
from .layout import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .address_space import AddressSpace

_U32 = struct.Struct("<I")

#: A checked plan's mode -> the (read, write) access its probe validates.
_MODE_ACCESS = {"r": (True, False), "w": (False, True), "rw": (True, True)}

#: Cached bulk-decode structs for :meth:`AccessPlan.load_u32_run`
#: (one precompiled ``"<NI"`` per element count).
_RUN_STRUCTS: dict[int, struct.Struct] = {}


def _run_struct(count: int) -> struct.Struct:
    st = _RUN_STRUCTS.get(count)
    if st is None:
        if len(_RUN_STRUCTS) >= 128:
            _RUN_STRUCTS.clear()
        st = struct.Struct("<%dI" % count)
        _RUN_STRUCTS[count] = st
    return st


class AccessPlan:
    """One compiled accessor bundle over a contiguous run of pages.

    The accessor attributes (``load``, ``store``, ``view``, ...) are
    generated closures, not methods: each captures the run's base, length,
    backing views and validity cell so a call is a single Python frame.
    Each flavour compiles only what its callers use: checked plans have
    ``load``/``view``/``store``, ``load_u32``/``store_u32``,
    ``load_u32_run`` and ``load_many``; kernel plans have ``load``/``store``,
    ``load_u32``/``store_u32`` and ``unpack_from``/``pack_into``.
    ``cell`` is a one-element mutable list — the shootdown switch. A kernel
    plan's cell holds ``True`` until a shootdown sets it to ``False`` for
    good. A checked plan's cell holds the verdict dict it was validated
    under, or ``None`` once shot down; the cache re-arms a dead checked plan
    in place after a passing probe. Read liveness through :attr:`is_valid`:
    an empty verdict dict is falsy.
    """

    __slots__ = (
        "base",
        "length",
        "mode",
        "checked",
        "pkru",
        "cell",
        "is_valid",
        "load",
        "view",
        "store",
        "load_u32",
        "store_u32",
        "unpack_from",
        "pack_into",
        "load_u32_run",
        "load_many",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "checked" if self.checked else "kernel"
        state = "live" if self.is_valid() else "dead"
        return (
            f"<AccessPlan {kind}/{self.mode} "
            f"[{self.base:#x}+{self.length:#x}] {state}>"
        )


def _compile_checked(
    space: "AddressSpace", base: int, length: int, mode: str, pkru_value: int
) -> AccessPlan:
    """Generate a checked (application-path) plan under the current PKRU.

    The closures guard every access with one identity test,
    ``space._tlb is cell[0]``: the cell holds the per-PKRU verdict dict the
    plan was validated under (``None`` once shot down), so the test is true
    exactly while the plan is live and its PKRU is active. A wraparound-safe
    bounds test (``0 <= o <= o + n <= length``) rejects negative offsets
    *and* negative lengths, which Python slicing would otherwise absorb
    silently. Anything else falls back to the checked per-access path,
    preserving fault semantics bit for bit.
    """
    plan = AccessPlan()
    plan.base = base
    plan.length = length
    plan.mode = mode
    plan.checked = True
    plan.pkru = pkru_value
    cell = [space._tlb]
    plan.cell = cell
    run = space._view[base : base + length]
    ro_run = run.toreadonly()
    can_read = "r" in mode
    can_write = "w" in mode

    space_load = space.load
    space_store = space.store
    space_load_view = space.load_view
    space_load_u32 = space.load_u32
    space_store_u32 = space.store_u32
    u32_unpack = _U32.unpack_from
    u32_pack = _U32.pack_into

    def is_valid() -> bool:
        return space._tlb is cell[0]

    plan.is_valid = is_valid

    if can_read:

        def load(addr: int, n: int) -> bytes:
            o = addr - base
            if space._tlb is cell[0] and 0 <= o <= o + n <= length:
                space.loads += 1
                space.tlb_hits += 1
                return bytes(ro_run[o : o + n])
            return space_load(addr, n)

        def view(addr: int, n: int) -> memoryview:
            o = addr - base
            if space._tlb is cell[0] and 0 <= o <= o + n <= length:
                space.loads += 1
                space.tlb_hits += 1
                return ro_run[o : o + n]
            return space_load_view(addr, n)

        def load_u32(addr: int) -> int:
            o = addr - base
            if space._tlb is cell[0] and 0 <= o <= length - 4:
                space.loads += 1
                space.tlb_hits += 1
                return u32_unpack(ro_run, o)[0]
            return space_load_u32(addr)

        def load_u32_run(addr: int, count: int) -> tuple:
            o = addr - base
            if space._tlb is cell[0] and count > 0 and 0 <= o <= length - 4 * count:
                space.loads += count
                space.tlb_hits += count
                return _run_struct(count).unpack_from(ro_run, o)
            return tuple(space_load_u32(addr + 4 * i) for i in range(count))

        def load_many(requests: Iterable[tuple[int, int]]) -> list[bytes]:
            if space._tlb is not cell[0]:
                return space.load_many(requests)
            out: list[bytes] = []
            fast = 0
            for addr, n in requests:
                o = addr - base
                if 0 <= o <= o + n <= length:
                    out.append(bytes(ro_run[o : o + n]))
                    fast += 1
                else:
                    out.append(space_load(addr, n))
            space.loads += fast
            space.tlb_hits += fast
            return out

        plan.load = load
        plan.view = view
        plan.load_u32 = load_u32
        plan.load_u32_run = load_u32_run
        plan.load_many = load_many
    else:
        # Read accessors on a write-only plan stay on the checked path so
        # the plan never grants rights its probe did not validate.
        plan.load = space_load
        plan.view = space_load_view
        plan.load_u32 = space_load_u32
        plan.load_u32_run = lambda addr, count: tuple(
            space_load_u32(addr + 4 * i) for i in range(count)
        )
        plan.load_many = space.load_many

    if can_write:

        def store(addr: int, data: bytes) -> None:
            n = len(data)
            o = addr - base
            if space._tlb is cell[0] and 0 <= o <= o + n <= length:
                space.stores += 1
                space.tlb_hits += 1
                run[o : o + n] = data
                return
            space_store(addr, data)

        def store_u32(addr: int, value: int) -> None:
            o = addr - base
            if space._tlb is cell[0] and 0 <= o <= length - 4:
                space.stores += 1
                space.tlb_hits += 1
                u32_pack(run, o, value & 0xFFFFFFFF)
                return
            space_store_u32(addr, value)

        plan.store = store
        plan.store_u32 = store_u32
    else:
        plan.store = space_store
        plan.store_u32 = space_store_u32

    return plan


def _compile_kernel(space: "AddressSpace", base: int, length: int) -> AccessPlan:
    """Generate a kernel (trusted-runtime) plan over ``[base, base+length)``.

    Mirrors ``raw_load``/``raw_store``: bounds-checked, PKRU-exempt, and
    exempt from the ``loads``/``stores`` counters exactly like the raw
    path it replaces. Only the shootdown cell guards validity: like
    ``raw_*``, kernel access reads neither the page table nor the gate,
    so remaps, retags and ``pkey_free`` leave the plan live; only
    ``tlb_flush`` and the cache bound kill it.
    """
    plan = AccessPlan()
    plan.base = base
    plan.length = length
    plan.mode = "rw"
    plan.checked = False
    plan.pkru = None
    cell = [True]
    plan.cell = cell
    run = space._view[base : base + length]
    ro_run = run.toreadonly()

    raw_load = space.raw_load
    raw_store = space.raw_store
    u32_unpack = _U32.unpack_from
    u32_pack = _U32.pack_into

    def is_valid() -> bool:
        return cell[0]

    def load(addr: int, n: int) -> bytes:
        o = addr - base
        if cell[0] and 0 <= o <= o + n <= length:
            return bytes(ro_run[o : o + n])
        return raw_load(addr, n)

    def load_u32(addr: int) -> int:
        o = addr - base
        if cell[0] and 0 <= o <= length - 4:
            return u32_unpack(ro_run, o)[0]
        return _U32.unpack(raw_load(addr, 4))[0]

    def unpack_from(st: struct.Struct, addr: int) -> tuple:
        o = addr - base
        if cell[0] and 0 <= o <= length - st.size:
            return st.unpack_from(ro_run, o)
        return st.unpack(raw_load(addr, st.size))

    def store(addr: int, data: bytes) -> None:
        n = len(data)
        o = addr - base
        if cell[0] and 0 <= o <= o + n <= length:
            run[o : o + n] = data
            return
        raw_store(addr, data)

    def store_u32(addr: int, value: int) -> None:
        o = addr - base
        if cell[0] and 0 <= o <= length - 4:
            u32_pack(run, o, value & 0xFFFFFFFF)
            return
        raw_store(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def pack_into(st: struct.Struct, addr: int, *values: object) -> None:
        o = addr - base
        if cell[0] and 0 <= o <= length - st.size:
            st.pack_into(run, o, *values)
            return
        raw_store(addr, st.pack(*values))

    plan.is_valid = is_valid
    plan.load = load
    plan.load_u32 = load_u32
    plan.unpack_from = unpack_from
    plan.store = store
    plan.store_u32 = store_u32
    plan.pack_into = pack_into
    return plan


class AccessPlanCache:
    """Per-space registry of compiled plans plus their shootdown switch.

    Checked plans are cached per ``(PKRU value, base, length, mode)`` —
    the same segregation the software TLB applies to verdicts — and kernel
    plans per ``(base, length)``. The TLB shootdown hooks of
    :class:`~repro.memory.address_space.AddressSpace` drive invalidation:
    a range update kills the checked plans overlapping it
    (:meth:`shootdown_checked`), ``pkey_free`` kills every checked plan,
    and ``tlb_flush`` kills every plan (:meth:`shootdown`). A killed checked
    plan stays cached under its key, dead, so the next request for the same
    run re-arms the same object after a passing probe instead of compiling
    a new one. A plan is only ever live while it is in the cache, so
    consumers that cached a plan object re-request it when
    ``plan.is_valid()`` goes false.
    """

    #: Backstop against pathological run churn: past this many cached
    #: plans (dead checked plans included), everything is shot down rather
    #: than evicted piecemeal (an evicted-but-live plan could otherwise
    #: outlive its invalidation).
    _MAX_PLANS = 512

    __slots__ = (
        "_space", "_checked", "_live", "_kernel", "built", "hits", "shootdowns"
    )

    def __init__(self, space: "AddressSpace") -> None:
        self._space = space
        self._checked: dict[tuple[int, int, int, str], AccessPlan] = {}
        # The live subset of ``_checked`` (cell holds a verdict dict): a
        # shootdown scans only these, since a dead plan has nothing to kill.
        self._live: dict[tuple[int, int, int, str], AccessPlan] = {}
        self._kernel: dict[tuple[int, int], AccessPlan] = {}
        self.built = 0
        self.hits = 0
        self.shootdowns = 0

    # ------------------------------------------------------------------
    # Plan acquisition
    # ------------------------------------------------------------------

    def checked_plan(
        self, base: int, length: int, mode: str = "r"
    ) -> Optional[AccessPlan]:
        """Application-path plan for the run under the *current* PKRU.

        Returns ``None`` when any page of the run is not accessible for
        ``mode`` right now: the caller must stay on the per-access checked
        path, which raises the faithful fault (the probe itself never
        faults and never touches the fault counters). A cached plan that
        was shot down is re-armed in place once the probe passes again;
        re-arming counts in :attr:`built` like a compile.
        """
        if mode not in _MODE_ACCESS:
            raise SdradError(f"unknown plan mode {mode!r}")
        space = self._space
        key = (space.pkru.value, base, length, mode)
        plan = self._checked.get(key)
        if plan is not None and plan.cell[0] is space._tlb:
            self.hits += 1
            return plan
        if not self._probe(base, length, mode):
            return None
        if plan is not None:
            plan.cell[0] = space._tlb
        else:
            if len(self._checked) >= self._MAX_PLANS:
                self.shootdown()
            plan = _compile_checked(space, base, length, mode, key[0])
            self._checked[key] = plan
        self._live[key] = plan
        self.built += 1
        return plan

    def kernel_plan(self, base: int, length: int) -> Optional[AccessPlan]:
        """Trusted-runtime plan (the ``raw_*`` path, compiled)."""
        key = (base, length)
        plan = self._kernel.get(key)
        if plan is not None and plan.cell[0]:
            self.hits += 1
            return plan
        space = self._space
        if base < 0 or length <= 0 or base + length > space.size:
            return None
        if len(self._kernel) >= self._MAX_PLANS:
            self.shootdown()
        plan = _compile_kernel(space, base, length)
        self._kernel[key] = plan
        self.built += 1
        return plan

    # ------------------------------------------------------------------
    # Validation + invalidation
    # ------------------------------------------------------------------

    def _probe(self, base: int, length: int, mode: str) -> bool:
        """Non-faulting check of the run under the current PKRU — the
        verdict ``_check_access`` would compute page by page, read off the
        run once by the page table. No raising and no fault counting (a
        failed probe means "no plan", not "a fault happened")."""
        space = self._space
        table = space.page_table
        if base < 0 or length <= 0 or base + length > table.space_size:
            return False
        read, write = _MODE_ACCESS[mode]
        return table.run_allows(
            base // PAGE_SIZE, (base + length - 1) // PAGE_SIZE + 1, space.pkru, read, write
        )

    def shootdown(self) -> None:
        """Kill and drop every plan, kernel plans included (``tlb_flush``,
        bound)."""
        for plan in self._kernel.values():
            plan.cell[0] = False
        self._kernel.clear()
        self.shootdown_checked()
        self._checked.clear()

    def shootdown_checked(self, lo: int = 0, hi: Optional[int] = None) -> None:
        """Kill the checked plans whose run overlaps bytes ``[lo, hi)``
        (every checked plan by default), in all PKRU views.

        The range is page-aligned by the caller, so a byte overlap is a
        page overlap: a plan sharing even one page with the update dies.
        Dead plans stay cached under their key for :meth:`checked_plan`
        to re-arm.
        """
        self.shootdowns += 1
        live = self._live
        if not live:
            return
        if hi is None:
            hi = self._space.size
        # Keys are (pkru, base, length, mode).
        for key, plan in list(live.items()):
            if key[1] < hi and lo < key[1] + key[2]:
                plan.cell[0] = None
                del live[key]
