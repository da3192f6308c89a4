"""Simulated memory subsystem: address space, MPK, allocators, stacks.

This package is the hardware substitution layer (DESIGN.md §2): it provides
the same primitives SDRaD uses on Linux/x86-64 — ``mmap``/``mprotect``/
``pkey_mprotect`` analogues, a PKRU register, per-domain heaps and canaried
stacks — with enforcement performed on the simulated load/store path.
"""

from .address_space import AddressSpace
from .allocator import FreeListAllocator, HeapStats
from .backends import (
    BackendLimits,
    GrantSetGate,
    IsolationBackend,
    TagAllocator,
    available_backends,
    resolve_backend,
)
from .layout import (
    DEFAULT_DOMAIN_HEAP,
    DEFAULT_DOMAIN_STACK,
    DEFAULT_SPACE_SIZE,
    PAGE_SIZE,
    page_align_up,
    page_base,
    page_index,
    pages_spanned,
)
from .mpk import NUM_PKEYS, PKEY_DEFAULT, PkeyAllocator, PkruRegister, pkru_bits
from .pagetable import PageEntry, PageTable
from .plans import AccessPlan, AccessPlanCache
from .slab import SlabAllocator, SlabClassStats, default_size_classes
from .snapshot import RegionSnapshot, capture, differs, restore
from .stack import CallStack, StackFrame

__all__ = [
    "AddressSpace",
    "BackendLimits",
    "GrantSetGate",
    "IsolationBackend",
    "TagAllocator",
    "available_backends",
    "resolve_backend",
    "FreeListAllocator",
    "HeapStats",
    "DEFAULT_DOMAIN_HEAP",
    "DEFAULT_DOMAIN_STACK",
    "DEFAULT_SPACE_SIZE",
    "PAGE_SIZE",
    "page_align_up",
    "page_base",
    "page_index",
    "pages_spanned",
    "NUM_PKEYS",
    "PKEY_DEFAULT",
    "PkeyAllocator",
    "PkruRegister",
    "pkru_bits",
    "PageEntry",
    "PageTable",
    "AccessPlan",
    "AccessPlanCache",
    "SlabAllocator",
    "SlabClassStats",
    "default_size_classes",
    "RegionSnapshot",
    "capture",
    "differs",
    "restore",
    "CallStack",
    "StackFrame",
]
