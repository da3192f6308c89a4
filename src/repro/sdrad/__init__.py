"""SDRaD: Secure Domain Rewind and Discard — the paper's core contribution.

Public surface:

* :class:`SdradRuntime` / :class:`DomainHandle` / :class:`DomainResult` —
  the Pythonic API (``runtime.execute(udi, fn, ...)``);
* :class:`SdradApi` — the C-shaped facade with return codes;
* :class:`DomainFlags`, recovery policies, and fault classification.
"""

from .api import SdradApi
from .constants import ROOT_UDI, DomainFlags, DomainState, ReturnCode
from .context import ContextStack, ExecutionContext
from .detect import (
    RECOVERABLE_FAULTS,
    DetectionMechanism,
    FaultReport,
    classify,
    is_recoverable,
)
from .domain import Domain, DomainStats
from .keyvirt import KeyVirtStats, VirtualKeyManager
from .policy import (
    AbortPolicy,
    PolicyDecision,
    ProcessCrashed,
    RecoveryPolicy,
    RetryPolicy,
    RewindPolicy,
    default_policy,
)
from .runtime import DomainHandle, DomainResult, SdradRuntime
from .telemetry import consistency_check, snapshot
from .watchdog import FaultWatchdog, QuarantineRecord, WatchdogConfig

__all__ = [
    "SdradApi",
    "ROOT_UDI",
    "DomainFlags",
    "DomainState",
    "ReturnCode",
    "ContextStack",
    "ExecutionContext",
    "RECOVERABLE_FAULTS",
    "DetectionMechanism",
    "FaultReport",
    "classify",
    "is_recoverable",
    "Domain",
    "DomainStats",
    "KeyVirtStats",
    "VirtualKeyManager",
    "AbortPolicy",
    "PolicyDecision",
    "ProcessCrashed",
    "RecoveryPolicy",
    "RetryPolicy",
    "RewindPolicy",
    "default_policy",
    "DomainHandle",
    "DomainResult",
    "SdradRuntime",
    "FaultWatchdog",
    "QuarantineRecord",
    "WatchdogConfig",
    "consistency_check",
    "snapshot",
]
