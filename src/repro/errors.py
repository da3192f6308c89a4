"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy mirrors the fault taxonomy of the SDRaD paper:

* :class:`MemoryError_` and its subclasses model *hardware-detected* faults —
  the simulated MMU/MPK raising what would be a ``SIGSEGV`` on real hardware.
* :class:`DetectedCorruption` and its subclasses model *software-detected*
  faults — stack canaries, heap integrity checks and similar mitigations that
  fire before the corruption is exploited.
* :class:`SdradError` covers misuse of the SDRaD API itself (double init,
  entering an unknown domain, ...), which on the C library would be an error
  return code rather than a signal.

Keeping the split explicit matters because SDRaD's recovery policy treats the
two classes identically (both trigger rewind-and-discard) while the *baseline*
strategies treat them differently: a plain process without SDRaD dies on
either, while a hardened-but-unisolated process dies on the detected ones too
(the mitigations terminate it).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Hardware-detected faults (simulated MMU / MPK)
# ---------------------------------------------------------------------------


class MemoryError_(ReproError):
    """Base class for faults raised by the simulated memory subsystem.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which Python reserves for allocator exhaustion.
    """


class SegmentationFault(MemoryError_):
    """Access to an unmapped address — the classic ``SIGSEGV``."""

    def __init__(self, address: int, access: str = "load") -> None:
        super().__init__(f"segmentation fault: {access} at {address:#x}")
        self.address = address
        self.access = access


class ProtectionKeyViolation(MemoryError_):
    """Access denied by the simulated PKRU register (MPK domain violation).

    This is the fault SDRaD relies on to *contain* a compromised domain:
    a wild write that leaves the domain's pkey-tagged pages trips here
    instead of corrupting another domain's memory.
    """

    def __init__(self, address: int, pkey: int, access: str = "load") -> None:
        super().__init__(
            f"protection-key violation: {access} at {address:#x} "
            f"(page tagged pkey={pkey}, PKRU denies)"
        )
        self.address = address
        self.pkey = pkey
        self.access = access


class CapabilityViolation(ProtectionKeyViolation):
    """Access outside the installed capability set (simulated CHERI).

    Subclasses :class:`ProtectionKeyViolation` so fault classification,
    recovery policies and telemetry treat a capability containment fault
    exactly like an MPK one — the substrate changes, the protocol does not.
    """

    def __init__(self, address: int, tag: int, access: str = "load") -> None:
        # Skip the parent constructor: the message names the actual
        # mechanism, but the attribute surface stays identical.
        MemoryError_.__init__(
            self,
            f"capability violation: {access} at {address:#x} "
            f"(page sealed for domain tag {tag}, no installed capability)",
        )
        self.address = address
        self.pkey = tag
        self.access = access


class SfiViolation(ProtectionKeyViolation):
    """Masked access escaped its sandbox region (simulated SFI)."""

    def __init__(self, address: int, tag: int, access: str = "load") -> None:
        MemoryError_.__init__(
            self,
            f"SFI violation: masked {access} at {address:#x} "
            f"(page in region {tag}, outside the active mask)",
        )
        self.address = address
        self.pkey = tag
        self.access = access


class PermissionFault(MemoryError_):
    """Access denied by page permissions (e.g. write to a read-only page)."""

    def __init__(self, address: int, access: str, perms: str) -> None:
        super().__init__(
            f"permission fault: {access} at {address:#x} (page perms '{perms}')"
        )
        self.address = address
        self.access = access
        self.perms = perms


class AllocationFailure(MemoryError_):
    """The simulated allocator ran out of arena space."""


class InvalidFree(MemoryError_):
    """``free`` of a pointer the allocator does not own (double free, wild free)."""

    def __init__(self, address: int, reason: str = "not an allocated block") -> None:
        super().__init__(f"invalid free of {address:#x}: {reason}")
        self.address = address
        self.reason = reason


# ---------------------------------------------------------------------------
# Software-detected corruption (mitigations)
# ---------------------------------------------------------------------------


class DetectedCorruption(ReproError):
    """Base class for corruption caught by a software mitigation."""


class StackCanaryViolation(DetectedCorruption):
    """A function epilogue found its stack canary overwritten."""

    def __init__(self, frame: str, expected: int, found: int) -> None:
        super().__init__(
            f"stack smashing detected in frame '{frame}': "
            f"canary {found:#x} != {expected:#x}"
        )
        self.frame = frame
        self.expected = expected
        self.found = found


class HeapCorruption(DetectedCorruption):
    """Allocator metadata or a heap guard word failed its integrity check."""

    def __init__(self, address: int, detail: str) -> None:
        super().__init__(f"heap corruption at {address:#x}: {detail}")
        self.address = address
        self.detail = detail


# ---------------------------------------------------------------------------
# SDRaD API errors
# ---------------------------------------------------------------------------


class SdradError(ReproError):
    """Misuse of the SDRaD runtime API (would be an errno-style code in C)."""


class DomainNotFound(SdradError):
    """Operation on a user-domain index that was never initialised."""

    def __init__(self, udi: int) -> None:
        super().__init__(f"no such domain: udi={udi}")
        self.udi = udi


class DomainStateError(SdradError):
    """Operation invalid for the domain's current lifecycle state."""


class OutOfDomains(SdradError):
    """All hardware protection keys are in use (MPK provides only 16)."""


class UnsupportedByBackend(SdradError):
    """The selected isolation backend cannot provide this feature.

    Raised eagerly (never silently ignored) so a deployment that asks for,
    say, key virtualisation on a substrate without key scarcity finds out
    at configuration time, not from quietly different behaviour.
    """


# ---------------------------------------------------------------------------
# FFI / sandbox errors
# ---------------------------------------------------------------------------


class FfiError(ReproError):
    """Base class for SDRaD-FFI sandboxing failures."""


class SerializationError(FfiError):
    """A value could not be serialized for the cross-domain copy."""


class SandboxViolation(FfiError):
    """A sandboxed foreign function faulted and no alternate action applied.

    Carries the original fault so callers (and tests) can assert on the
    detection mechanism that fired.
    """

    def __init__(self, function: str, cause: Exception) -> None:
        super().__init__(f"sandboxed function '{function}' faulted: {cause}")
        self.function = function
        self.cause = cause


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Internal inconsistency in simulated time (e.g. the clock running backwards)."""


class ServiceUnavailable(ReproError):
    """A simulated service refused a request because it is down/restarting."""

    def __init__(self, service: str, until: float) -> None:
        super().__init__(f"service '{service}' unavailable until t={until:.6f}s")
        self.service = service
        self.until = until
