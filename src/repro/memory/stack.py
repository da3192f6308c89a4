"""Simulated call stacks with stack canaries.

SDRaD's second detection mechanism (after MPK violations) is the compiler's
stack protector: a random *canary* word placed between a frame's local
buffers and its saved return address, verified in the function epilogue. A
contiguous overflow of a stack buffer must cross the canary to reach the
return address, so epilogue verification catches it before control flow is
hijacked — and, in SDRaD, triggers rewind instead of ``abort()``.

Layout of one frame on the downward-growing simulated stack::

    higher addresses
    +-----------------------+
    | saved return address  |  8 bytes   (frame.return_slot)
    +-----------------------+
    | canary                |  8 bytes   (frame.canary_slot)
    +-----------------------+
    | local buffer N        |
    | ...                   |  allocated downward by frame.alloca()
    | local buffer 0        |
    +-----------------------+   <- stack pointer after allocations
    lower addresses

A buffer overflow writes *upward* (toward higher addresses), so overrunning
any local buffer first smashes the canary, exactly as on x86-64.

Canary derivation: each stack has a 64-bit integer seed (the runtime
derives one per domain from its root seed and the domain's udi with one
:func:`mix64`, see :func:`stack_seed`). The ``i``-th frame pushed
(counting from 1) draws ``mix64(seed + i * GAMMA)`` — splitmix64 in
counter mode — and clears the low byte: 56 random bits per frame above a
NUL byte that stops string overflows, as real stack protectors do,
compared at every epilogue. A stream is reproducible from the root seed
and independent per domain, and drawing a canary costs a few integer
operations.
"""

from __future__ import annotations

import struct

from ..errors import SdradError, StackCanaryViolation
from .address_space import AddressSpace

WORD = 8

#: Canary word + saved return address, the prologue/epilogue pair.
_FRAME_STRUCT = struct.Struct("<QQ")

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64's increment (the golden-ratio odd constant).
GAMMA = 0x9E3779B97F4A7C15
#: A canary keeps the low (first-in-memory) byte NUL.
_CANARY_MASK = 0xFFFFFFFFFFFFFF00


def mix64(z: int) -> int:
    """splitmix64's finaliser: a bijective 64-bit mix."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_stack_size(size: int) -> None:
    """Raise :class:`SdradError` unless ``size`` bytes hold one frame."""
    if size < 4 * WORD:
        raise SdradError(f"stack too small: {size} bytes")


def stack_seed(root_seed: int, udi: int) -> int:
    """The canary seed of domain ``udi``'s stack under ``root_seed``."""
    return mix64((root_seed * GAMMA + udi) & _MASK64)


class StackFrame:
    """One activation record; only :meth:`CallStack.push_frame` creates
    one, and it sets every slot."""

    __slots__ = (
        "stack", "name", "return_slot", "canary_slot", "sp",
        "_expected_canary", "popped",
    )

    def alloca(self, nbytes: int) -> int:
        """Allocate a local buffer in this frame; returns its address.

        The buffer occupies ``[addr, addr + nbytes)`` with ``addr + nbytes``
        adjacent to the previously allocated local (or the canary for the
        first one), so overflow reaches the canary after crossing any
        intervening locals.
        """
        if self.popped:
            raise SdradError(f"alloca on popped frame '{self.name}'")
        if nbytes <= 0:
            raise SdradError(f"alloca size must be positive, got {nbytes}")
        aligned = (nbytes + WORD - 1) // WORD * WORD
        addr = self.sp - aligned
        if addr < self.stack.base:
            raise SdradError(f"stack overflow in frame '{self.name}'")
        self.sp = addr
        return addr

    def write_buffer(self, addr: int, data: bytes) -> None:
        """Checked store into a local buffer (the application write path).

        Note that, like a C ``memcpy``, this enforces nothing about buffer
        bounds — only page-level permissions apply. Writing more bytes than
        were ``alloca``'d is precisely how tests model a stack smash: a
        compiled plan covers the whole stack region, so an overflow inside
        it corrupts the canary exactly like the per-access path would.
        """
        stack = self.stack
        plan = stack._rw_plan
        if plan is None or plan.cell[0] is not stack.space._tlb:
            plan = stack._checked_plan()  # (re)acquires the stack's plan
        if plan is not None:
            plan.store(addr, data)
        else:
            stack.space.store(addr, data)

    def read_buffer(self, addr: int, nbytes: int) -> bytes:
        plan = self.stack._checked_plan()
        if plan is not None:
            return plan.load(addr, nbytes)
        return self.stack.space.load(addr, nbytes)


class CallStack:
    """A per-domain simulated stack with canary-protected frames."""

    def __init__(self, space: AddressSpace, base: int, size: int, seed: int) -> None:
        check_stack_size(size)
        self.space = space
        self.base = base
        self.size = size
        self.top = base + size
        self._frames: list[StackFrame] = []
        # Compiled windows over the stack region, looked up on first use: a
        # kernel plan for prologue/epilogue canary words, a checked plan
        # (current PKRU) for application buffer I/O.
        self._plan = None
        self._rw_plan = None
        self.reset_full(seed)

    def reset_full(self, seed: int) -> None:
        """Return to the freshly constructed state under canary ``seed``.

        :meth:`unwind_all` abandons the frames (a rewind); this also
        restarts the canary stream and forgets a pending lazy scrub, so a
        destroyed domain's stack can serve the next domain on the same
        region exactly as a new one would. It keeps its plan references:
        they cover the same region and check themselves on every use
        (``cell[0]``, ``cell[0] is space._tlb``), so the successor skips
        the lookups a new stack would make.
        """
        # splitmix64 state: advanced by GAMMA per canary drawn.
        self._canary_state = seed & _MASK64
        #: Set by a lazy discard: the stack bytes are stale and are
        #: zero-filled on the next frame push instead of at rewind time.
        self.scrub_pending = False
        self.unwind_all()

    def _kernel_plan(self):
        plan = self._plan
        if plan is not None and plan.cell[0]:
            return plan
        cache = self.space.plans
        if cache is None:
            return None
        self._plan = cache.kernel_plan(self.base, self.size)
        return self._plan

    def _checked_plan(self):
        plan = self._rw_plan
        if plan is not None and plan.cell[0] is self.space._tlb:
            return plan
        cache = self.space.plans
        if cache is None:
            return None
        self._rw_plan = cache.checked_plan(self.base, self.size, "rw")
        return self._rw_plan

    @property
    def depth(self) -> int:
        return len(self._frames)

    @property
    def used_bytes(self) -> int:
        return self.top - (self._frames[-1].sp if self._frames else self._sp)

    def push_frame(self, name: str, return_address: int = 0) -> StackFrame:
        """Function prologue: reserve return slot + canary, write canary."""
        frames = self._frames
        parent_sp = frames[-1].sp if frames else self._sp
        return_slot = parent_sp - WORD
        canary_slot = return_slot - WORD
        if canary_slot < self.base:
            raise SdradError(f"stack overflow pushing frame '{name}'")
        if self.scrub_pending:
            # Deferred discard-time scrub: paid on first reuse, not rewind.
            self.space.raw_fill(self.base, self.size, 0)
            self.scrub_pending = False
        self._canary_state = state = (self._canary_state + GAMMA) & _MASK64
        canary = mix64(state) & _CANARY_MASK
        frame = StackFrame()
        frame.stack = self
        frame.name = name
        frame.return_slot = return_slot
        frame.canary_slot = frame.sp = canary_slot  # locals go below it
        frame._expected_canary = canary
        frame.popped = False
        # The canary slot sits directly below the return slot, so both words
        # go down in one store (same bytes, same layout, half the calls).
        # Test the cached kernel plan in line; look it up only when dead.
        plan = self._plan
        if plan is None or not plan.cell[0]:
            plan = self._kernel_plan()
        if plan is not None:
            plan.pack_into(_FRAME_STRUCT, canary_slot, canary, return_address)
        else:
            self.space.raw_store(
                canary_slot,
                canary.to_bytes(WORD, "little")
                + return_address.to_bytes(WORD, "little"),
            )
        frames.append(frame)
        return frame

    def pop_frame(self, frame: StackFrame) -> int:
        """Function epilogue: verify canary, then unwind.

        Returns the saved return address. Raises
        :class:`StackCanaryViolation` if the canary was overwritten —
        the ``__stack_chk_fail`` moment.
        """
        if not self._frames or self._frames[-1] is not frame:
            raise SdradError(
                f"pop of frame '{frame.name}' that is not the innermost frame"
            )
        plan = self._plan
        if plan is None or not plan.cell[0]:
            plan = self._kernel_plan()
        if plan is not None:
            found, return_address = plan.unpack_from(
                _FRAME_STRUCT, frame.canary_slot
            )
        else:
            words = self.space.raw_load(frame.canary_slot, 2 * WORD)
            found = int.from_bytes(words[:WORD], "little")
            return_address = int.from_bytes(words[WORD:], "little")
        self._frames.pop()
        frame.popped = True
        if found != frame._expected_canary:
            raise StackCanaryViolation(frame.name, frame._expected_canary, found)
        return return_address

    def unwind_all(self) -> None:
        """Abandon every frame without canary checks (rewind path)."""
        for frame in self._frames:
            frame.popped = True
        self._frames.clear()
        self._sp = self.top

    def check_canaries(self) -> None:
        """Verify every live frame's canary without unwinding."""
        for frame in self._frames:
            found = int.from_bytes(
                self.space.raw_load(frame.canary_slot, WORD), "little"
            )
            if found != frame._expected_canary:
                raise StackCanaryViolation(frame.name, frame._expected_canary, found)
