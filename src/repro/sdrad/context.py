"""Execution contexts: the ``sigsetjmp`` buffers of the simulation.

On entry to a domain, SDRaD saves enough CPU state to resume at the entry
point if the domain later faults: the jump buffer, the PKRU value to restore
and bookkeeping about the active domain. We model that as an explicit stack
of :class:`ExecutionContext` records; "longjmp" is structured unwinding back
to the matching :meth:`ContextStack.pop` (see DESIGN.md D3).

Nested domain entries (domain A calls into domain B) push nested contexts,
and a fault in B rewinds only B's context — A's continuation is untouched,
exactly matching the C library's nested-domain semantics.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import SdradError


class ExecutionContext(NamedTuple):
    """State saved at one domain entry (immutable; one per entry, so a
    tuple rather than a frozen dataclass, whose constructor costs ~5x)."""

    udi: int
    saved_pkru: int
    entered_at: float
    depth: int


class ContextStack:
    """The per-thread stack of live domain entries."""

    def __init__(self) -> None:
        #: The live entries, outermost first (read-only outside this class;
        #: the runtime tests it for emptiness before any linear scan).
        self.entries: list[ExecutionContext] = []

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def current(self) -> ExecutionContext | None:
        return self.entries[-1] if self.entries else None

    def current_udi(self, root_udi: int) -> int:
        """UDI of the domain currently executing (root if none entered)."""
        return self.entries[-1].udi if self.entries else root_udi

    def push(self, udi: int, saved_pkru: int, entered_at: float) -> ExecutionContext:
        # ``tuple.__new__`` skips the generated ``__new__``'s Python frame.
        context = tuple.__new__(ExecutionContext, (udi, saved_pkru, entered_at, len(self.entries)))
        self.entries.append(context)
        return context

    def pop(self, context: ExecutionContext) -> ExecutionContext:
        """Pop ``context``; it must be the innermost entry.

        Popping out of order would mean a domain exit crossed another
        domain's live entry — a runtime bug the C library guards with
        assertions, and so do we.
        """
        if not self.entries:
            raise SdradError("context stack underflow")
        if self.entries[-1] is not context:
            raise SdradError(
                f"out-of-order domain exit: popping udi={context.udi} "
                f"but innermost is udi={self.entries[-1].udi}"
            )
        return self.entries.pop()

    def contains_udi(self, udi: int) -> bool:
        """Is ``udi`` somewhere on the live entry stack (re-entrancy check)?"""
        return any(c.udi == udi for c in self.entries)
