"""Recovery policies: what happens after a domain fault is detected.

The paper's contribution is precisely the *rewind* policy; the others exist
as baselines so experiments can compare like for like:

* :class:`RewindPolicy` — discard the domain, charge the 3.5 µs rewind cost,
  return an error result to the caller (SDRaD).
* :class:`AbortPolicy` — the mitigation-only baseline: detection terminates
  the process (``__stack_chk_fail`` → ``abort()``), surfacing as
  :class:`ProcessCrashed`; the resilience layer then models a process or
  container restart.
* :class:`RetryPolicy` — rewind and transparently re-execute the domain call
  up to ``max_retries`` times; useful when faults are transient (fault
  injection campaigns) rather than attacker-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from .detect import FaultReport


class ProcessCrashed(ReproError):
    """The whole simulated process died (abort-on-detection baseline)."""

    def __init__(self, report: FaultReport) -> None:
        super().__init__(f"process aborted after fault: {report}")
        self.report = report


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of consulting a policy about a fault."""

    #: Discard the domain and resume at the entry point with an error.
    rewind: bool
    #: Re-execute the faulted call after rewinding.
    retry: bool = False
    #: Terminate the whole process (propagates ProcessCrashed).
    abort: bool = False
    #: Virtual seconds to wait (charged to the clock) before a retry —
    #: exponential backoff for transient faults. Ignored unless ``retry``.
    backoff: float = 0.0


class RecoveryPolicy:
    """Interface: decide what to do about a classified fault."""

    name = "abstract"

    def decide(self, report: FaultReport, attempt: int) -> PolicyDecision:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RewindPolicy(RecoveryPolicy):
    """SDRaD's default: always rewind, never retry, never abort."""

    name = "rewind"

    def decide(self, report: FaultReport, attempt: int) -> PolicyDecision:
        return PolicyDecision(rewind=True)


class AbortPolicy(RecoveryPolicy):
    """Mitigation-only baseline: detection kills the process."""

    name = "abort"

    def decide(self, report: FaultReport, attempt: int) -> PolicyDecision:
        return PolicyDecision(rewind=False, abort=True)


class RetryPolicy(RecoveryPolicy):
    """Rewind then re-execute, up to ``max_retries`` attempts.

    After the retry budget is exhausted the fault is surfaced like plain
    rewind (error result to the caller) — never an abort, because the domain
    is still contained.
    """

    name = "retry"

    def __init__(self, max_retries: int = 1) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries

    def decide(self, report: FaultReport, attempt: int) -> PolicyDecision:
        return PolicyDecision(rewind=True, retry=attempt <= self.max_retries)


class BackoffRetryPolicy(RecoveryPolicy):
    """Rewind, wait an exponentially growing backoff, then re-execute.

    Plain :class:`RetryPolicy` re-executes immediately, which against a
    persistent trigger just burns rewinds back to back. The backoff variant
    charges ``base_backoff * multiplier**(attempt-1)`` virtual seconds to
    the clock before each retry — the campaign decision layer's
    "retry-with-backoff" candidate.
    """

    name = "retry-backoff"

    def __init__(
        self,
        max_retries: int = 1,
        base_backoff: float = 100e-6,
        multiplier: float = 2.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if base_backoff < 0:
            raise ValueError(f"base_backoff must be >= 0, got {base_backoff}")
        self.max_retries = max_retries
        self.base_backoff = base_backoff
        self.multiplier = multiplier

    def decide(self, report: FaultReport, attempt: int) -> PolicyDecision:
        if attempt <= self.max_retries:
            return PolicyDecision(
                rewind=True,
                retry=True,
                backoff=self.base_backoff * self.multiplier ** (attempt - 1),
            )
        return PolicyDecision(rewind=True)


class QuarantinePolicy(RewindPolicy):
    """The campaign's "quarantine" choice: at the runtime it decides
    exactly like :class:`RewindPolicy`.

    The runtime keeps no per-domain quarantine. The one quarantine
    mechanism is the serving side's
    :class:`~repro.sdrad.watchdog.FaultWatchdog`, which refuses a
    repeatedly faulting principal; the campaign closure models the
    embargo from ``CampaignConfig.quarantine_window``. The class keeps its
    own name because fleet runs report ``default_policy.name``.
    """

    name = "quarantine"


def make_policy(name: str, **kwargs: float) -> RecoveryPolicy:
    """Build a recovery policy from its campaign/CLI name. ``restart`` maps
    to the abort policy: the resilience layer models the restart."""
    if name == "rewind":
        return RewindPolicy()
    if name in ("retry", "retry-backoff"):
        return BackoffRetryPolicy(**kwargs)
    if name == "quarantine":
        return QuarantinePolicy(**kwargs)
    if name in ("restart", "abort"):
        return AbortPolicy()
    raise ValueError(f"unknown recovery policy {name!r}")


def default_policy() -> RecoveryPolicy:
    return RewindPolicy()
