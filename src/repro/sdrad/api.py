"""A C-shaped facade over :class:`~repro.sdrad.runtime.SdradRuntime`.

The SDRaD artifact is a C library whose API the paper describes as
"flexible APIs to support different compartmentalization schemes". This
module mirrors that surface — ``sdrad_init``, ``sdrad_enter``/
``sdrad_exit`` bracketing, ``sdrad_malloc``/``sdrad_free``, negative
return codes — so the retrofit-effort experiment (E7) can count integration
points against the same call vocabulary the paper's Memcached patch uses.

Pythonic callers should prefer :meth:`SdradRuntime.execute`; this facade
exists for API fidelity and for the explicit enter/exit style some retrofit
patterns need (e.g. wrapping a parser loop rather than a function).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import (
    AllocationFailure,
    DomainNotFound,
    DomainStateError,
    InvalidFree,
    OutOfDomains,
    SdradError,
)
from .constants import DomainFlags, ReturnCode
from .policy import RecoveryPolicy
from .runtime import DomainResult, SdradRuntime


class SdradApi:
    """Stateful facade with C-style error codes instead of exceptions."""

    def __init__(self, runtime: Optional[SdradRuntime] = None) -> None:
        self.runtime = runtime if runtime is not None else SdradRuntime()
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Domain lifecycle
    # ------------------------------------------------------------------

    def sdrad_init(
        self,
        udi: int,
        flags: DomainFlags = DomainFlags.RETURN_TO_PARENT,
        heap_size: Optional[int] = None,
        stack_size: Optional[int] = None,
    ) -> ReturnCode:
        """Create domain ``udi``; ``SUCCESS`` or a negative code."""
        kwargs: dict[str, int] = {}
        if heap_size is not None:
            kwargs["heap_size"] = heap_size
        if stack_size is not None:
            kwargs["stack_size"] = stack_size
        try:
            self.runtime.domain_init(flags=flags, udi=udi, **kwargs)
        except OutOfDomains as exc:
            return self._fail(ReturnCode.OUT_OF_PKEYS, exc)
        except AllocationFailure as exc:
            return self._fail(ReturnCode.OUT_OF_MEMORY, exc)
        except DomainStateError as exc:
            return self._fail(ReturnCode.ILLEGAL_STATE, exc)
        except SdradError as exc:
            return self._fail(ReturnCode.INVALID_ARGUMENT, exc)
        return ReturnCode.SUCCESS

    def sdrad_deinit(self, udi: int) -> ReturnCode:
        """Destroy domain ``udi``; ``SUCCESS`` or a negative code.

        A full :meth:`~repro.sdrad.runtime.SdradRuntime.domain_destroy`,
        not a retire: the C library's deinit unmaps the domain's memory
        and frees its key before it returns, so a stale pointer into the
        domain faults as a segmentation fault at once.
        """
        try:
            self.runtime.domain_destroy(udi)
        except DomainNotFound as exc:
            return self._fail(ReturnCode.NO_SUCH_DOMAIN, exc)
        except (DomainStateError, SdradError) as exc:
            return self._fail(ReturnCode.ILLEGAL_STATE, exc)
        return ReturnCode.SUCCESS

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def sdrad_enter(
        self,
        udi: int,
        fn: Callable[..., object],
        *args: object,
        policy: Optional[RecoveryPolicy] = None,
    ) -> tuple[ReturnCode, Optional[DomainResult]]:
        """Execute ``fn`` in ``udi``.

        In C, ``sdrad_enter`` switches the calling thread into the domain
        and a later fault longjmps back here; with structured control flow
        the enter/run/exit bracket is a single call. Returns
        ``(SUCCESS, result)`` for a clean run, ``(DOMAIN_FAULTED, result)``
        when the domain was rewound, or an error code and ``None`` for API
        misuse.
        """
        try:
            result = self.runtime.execute(udi, fn, *args, policy=policy)
        except DomainNotFound as exc:
            return self._fail(ReturnCode.NO_SUCH_DOMAIN, exc), None
        except DomainStateError as exc:
            return self._fail(ReturnCode.ILLEGAL_STATE, exc), None
        if result.ok:
            return ReturnCode.SUCCESS, result
        return ReturnCode.DOMAIN_FAULTED, result

    # ------------------------------------------------------------------
    # Domain heap management
    # ------------------------------------------------------------------

    def sdrad_malloc(self, udi: int, nbytes: int) -> tuple[ReturnCode, int]:
        """Allocate on ``udi``'s heap from the trusted side; returns address.

        (The C library exposes this so the parent can stage data inside a
        domain before entering it.)
        """
        try:
            domain = self.runtime.domain(udi)
            addr = domain.heap.malloc(nbytes)
        except DomainNotFound as exc:
            return self._fail(ReturnCode.NO_SUCH_DOMAIN, exc), 0
        except AllocationFailure as exc:
            return self._fail(ReturnCode.OUT_OF_MEMORY, exc), 0
        except SdradError as exc:
            return self._fail(ReturnCode.INVALID_ARGUMENT, exc), 0
        self.runtime.charge(self.runtime.cost.domain_alloc)
        return ReturnCode.SUCCESS, addr

    def sdrad_free(self, udi: int, addr: int) -> ReturnCode:
        try:
            domain = self.runtime.domain(udi)
            domain.heap.free(addr)
        except DomainNotFound as exc:
            return self._fail(ReturnCode.NO_SUCH_DOMAIN, exc)
        except InvalidFree as exc:
            return self._fail(ReturnCode.INVALID_ARGUMENT, exc)
        self.runtime.charge(self.runtime.cost.domain_alloc)
        return ReturnCode.SUCCESS

    def sdrad_dprotect(self, udi: int, data: bytes) -> tuple[ReturnCode, int]:
        """Copy data into a domain ("protect it behind the domain's key")."""
        try:
            addr = self.runtime.copy_into(udi, data)
        except DomainNotFound as exc:
            return self._fail(ReturnCode.NO_SUCH_DOMAIN, exc), 0
        except AllocationFailure as exc:
            return self._fail(ReturnCode.OUT_OF_MEMORY, exc), 0
        return ReturnCode.SUCCESS, addr

    # ------------------------------------------------------------------

    def _fail(self, code: ReturnCode, exc: Exception) -> ReturnCode:
        self.last_error = str(exc)
        return code
