"""Simulated Intel Memory Protection Keys (MPK / PKU).

Real MPK associates one of 16 *protection keys* with every user page and a
thread-local 32-bit *PKRU* register with two bits per key:

* ``AD`` (access disable) — bit ``2k``: all accesses to pages tagged ``k``
  fault;
* ``WD`` (write disable) — bit ``2k + 1``: writes to pages tagged ``k``
  fault (reads still allowed).

Userspace flips PKRU with the unprivileged ``WRPKRU`` instruction, which is
what makes MPK-based isolation *lightweight*: a domain switch is a register
write, not a syscall. This module reproduces exactly those semantics —
16 keys, the AD/WD bit layout, key allocation/free — so the SDRaD runtime
above it is written against the same contract the C library uses.
"""

from __future__ import annotations

from ..errors import OutOfDomains, SdradError

#: Number of protection keys the hardware provides.
NUM_PKEYS = 16

#: Key 0 is the default key: every page not explicitly tagged belongs to it,
#: and the ABI expects it to stay accessible (glibc and the loader live
#: there). SDRaD reserves it for the trusted runtime + root domain.
PKEY_DEFAULT = 0

#: Access-disable bit for key ``k`` is ``1 << (2 * k)``.
AD_BIT = 0b01
#: Write-disable bit for key ``k`` is ``1 << (2 * k + 1)``.
WD_BIT = 0b10


def pkru_bits(pkey: int, *, access_disable: bool, write_disable: bool) -> int:
    """PKRU bit pattern for one key."""
    _validate_pkey(pkey)
    bits = 0
    if access_disable:
        bits |= AD_BIT << (2 * pkey)
    if write_disable:
        bits |= WD_BIT << (2 * pkey)
    return bits


def _validate_pkey(pkey: int) -> None:
    if not 0 <= pkey < NUM_PKEYS:
        raise SdradError(f"protection key out of range: {pkey}")


class PkruRegister:
    """The thread-local PKRU register.

    The power-on/reset convention here matches SDRaD's: *deny everything
    except key 0*, so an untagged thread can only touch default-key pages
    and each domain must be explicitly granted its keys on entry.
    """

    __slots__ = ("_value", "writes", "on_write")

    #: All AD bits set except for key 0 — deny-by-default.
    DENY_ALL_EXCEPT_DEFAULT = int(
        "".join("11" for _ in range(NUM_PKEYS - 1)) + "00", 2
    )

    def __init__(self, value: int | None = None) -> None:
        self._value = (
            self.DENY_ALL_EXCEPT_DEFAULT if value is None else value & 0xFFFFFFFF
        )
        #: Count of WRPKRU writes, so experiments can charge their cost.
        self.writes = 0
        #: Mutation hook called with the new value after every WRPKRU.
        #: The address space uses it to keep its permission cache (software
        #: TLB) coherent — cached verdicts depend on the PKRU value.
        self.on_write = None

    @property
    def value(self) -> int:
        return self._value

    def write(self, value: int) -> None:
        """The WRPKRU instruction."""
        self._value = value & 0xFFFFFFFF
        self.writes += 1
        if self.on_write is not None:
            self.on_write(self._value)

    def write_prepared(self, value: int, modelled_writes: int = 1) -> None:
        """Apply a pre-derived PKRU value in a single step.

        The runtime's re-entry fast path derives a domain's final PKRU once
        (through ``modelled_writes`` WRPKRUs) and replays the result on later
        entries. The replay must be indistinguishable from the derivation to
        everything observable — the ``writes`` counter feeds telemetry and
        cost accounting — so the counter advances by the full modelled
        instruction count while the register (and the cache-coherency hook)
        sees only the final value.
        """
        if modelled_writes < 1:
            raise SdradError(
                f"write_prepared models {modelled_writes} WRPKRUs; need >= 1"
            )
        self._value = value & 0xFFFFFFFF
        self.writes += modelled_writes
        if self.on_write is not None:
            self.on_write(self._value)

    # Access checks and plan probes ask these per page run, so the key
    # range test is inlined; ``_validate_pkey`` only raises.

    def allows_read(self, pkey: int) -> bool:
        if not 0 <= pkey < NUM_PKEYS:
            _validate_pkey(pkey)
        return not self._value & (AD_BIT << (2 * pkey))

    def allows_write(self, pkey: int) -> bool:
        if not 0 <= pkey < NUM_PKEYS:
            _validate_pkey(pkey)
        if self._value & (AD_BIT << (2 * pkey)):
            return False
        return not self._value & (WD_BIT << (2 * pkey))

    def grant(self, pkey: int, *, read: bool = True, write: bool = True) -> None:
        """Convenience mutation of the current value (counts as one WRPKRU)."""
        _validate_pkey(pkey)
        value = self._value
        value &= ~((AD_BIT | WD_BIT) << (2 * pkey))
        if not read:
            value |= AD_BIT << (2 * pkey)
        elif not write:
            value |= WD_BIT << (2 * pkey)
        self.write(value)

    def revoke(self, pkey: int) -> None:
        """Deny all access to ``pkey`` (counts as one WRPKRU)."""
        _validate_pkey(pkey)
        self.write(self._value | (AD_BIT << (2 * pkey)))

    def close_all(self) -> None:
        """Deny every key, including the default (two WRPKRUs).

        This is the first half of a domain entry on any substrate; on MPK
        it is the historical ``write(DENY_ALL_EXCEPT_DEFAULT)`` followed by
        revoking key 0 (whose AD pattern that constant cannot express), so
        the write count and every intermediate ``on_write`` value are
        exactly what the runtime produced before this micro-op existed.
        """
        self.write(self.DENY_ALL_EXCEPT_DEFAULT)
        self.revoke(0)

    def snapshot(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PkruRegister({self._value:#010x}, writes={self.writes})"


class PkeyAllocator:
    """Kernel-side protection-key bookkeeping (``pkey_alloc``/``pkey_free``).

    SDRaD's central scalability limit is right here: MPK gives 16 keys, one
    is reserved, so at most 15 concurrently isolated domains exist without
    key virtualisation. :class:`~repro.errors.OutOfDomains` models the
    ``ENOSPC`` the real syscall returns.
    """

    def __init__(self) -> None:
        self._allocated: set[int] = {PKEY_DEFAULT}
        #: Hook called after a key is freed. Key recycling is an isolation
        #: hazard — a verdict cached for the old owner must not leak to the
        #: next — so the address space flushes its permission cache here.
        self.on_free = None

    @property
    def allocated(self) -> frozenset[int]:
        return frozenset(self._allocated)

    @property
    def available(self) -> int:
        return NUM_PKEYS - len(self._allocated)

    def alloc(self) -> int:
        """Allocate the lowest free key (mirrors the kernel's behaviour)."""
        for pkey in range(NUM_PKEYS):
            if pkey not in self._allocated:
                self._allocated.add(pkey)
                return pkey
        raise OutOfDomains(
            f"all {NUM_PKEYS} protection keys in use; "
            "MPK supports at most 15 isolated domains"
        )

    def free(self, pkey: int) -> None:
        _validate_pkey(pkey)
        if pkey == PKEY_DEFAULT:
            raise SdradError("cannot free the default protection key")
        if pkey not in self._allocated:
            raise SdradError(f"pkey_free of unallocated key {pkey}")
        self._allocated.remove(pkey)
        if self.on_free is not None:
            self.on_free(pkey)

    def is_allocated(self, pkey: int) -> bool:
        _validate_pkey(pkey)
        return pkey in self._allocated

    def would_reissue(self, pkey: int) -> bool:
        """Whether ``free(pkey)`` then ``alloc()`` would hand ``pkey``
        straight back: no lower key is free."""
        return self._allocated.issuperset(range(pkey))
