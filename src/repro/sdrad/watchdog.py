"""Fault-rate watchdog: quarantine for repeatedly faulting principals.

Rewind makes individual faults nearly free, which creates a new problem the
paper's §II scenario implies but does not solve: a malicious client can
spin the fault-rewind loop forever, burning CPU (and, at scale, energy —
the very resource §IV is trying to save). The watchdog closes that loop:

* every fault is attributed to a *principal* (client id, session id, ...);
* a sliding-window counter per principal tracks recent faults;
* when a principal exceeds ``threshold`` faults within ``window`` seconds,
  it is **quarantined** for ``quarantine_period`` seconds — its requests
  are refused at the front door, at zero isolation cost;
* repeat offenders escalate: each new quarantine doubles the period up to
  a cap (classic exponential backoff).

This mirrors the operational posture of fail2ban/anomaly throttles, using
SDRaD's *perfect attribution* (a fault names its domain, a domain maps to
one client) as the signal — something an unisolated server simply does not
have, since its first fault kills it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional

from ..sim.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability


@dataclass
class QuarantineRecord:
    """State the watchdog keeps per principal."""

    fault_times: Deque[float] = field(default_factory=deque)
    quarantined_until: float = 0.0
    quarantine_count: int = 0


@dataclass
class WatchdogConfig:
    """Quarantine policy knobs."""

    #: Faults tolerated within the window before quarantine.
    threshold: int = 5
    #: Sliding-window length in seconds.
    window: float = 1.0
    #: First quarantine duration; doubles per repeat offence.
    quarantine_period: float = 10.0
    #: Cap on the escalated quarantine duration.
    max_quarantine: float = 3600.0

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.quarantine_period <= 0:
            raise ValueError("quarantine period must be positive")
        if self.max_quarantine < self.quarantine_period:
            raise ValueError("max quarantine below the initial period")


class FaultWatchdog:
    """Sliding-window fault accounting with escalating quarantine."""

    def __init__(
        self,
        clock: VirtualClock,
        config: Optional[WatchdogConfig] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.clock = clock
        self.config = config or WatchdogConfig()
        self.obs = obs
        self._records: Dict[str, QuarantineRecord] = {}
        # Lifetime totals (``pardon`` drops a principal's record).
        self.total_faults = 0
        self.total_quarantines = 0
        if obs is not None:
            obs.registry.collect(self)

    def collect_counters(self):
        """The counts an obs hub reads from the watchdog, once nonzero."""
        if self.total_faults:
            yield "watchdog_faults_total", (), self.total_faults
        if self.total_quarantines:
            yield "watchdog_quarantines_total", (), self.total_quarantines

    # ------------------------------------------------------------------

    def record_fault(self, principal: str) -> bool:
        """Register one fault; returns True if this tripped a quarantine."""
        record = self._records.setdefault(principal, QuarantineRecord())
        now = self.clock.now
        self.total_faults += 1
        record.fault_times.append(now)
        self._trim(record, now)
        if len(record.fault_times) >= self.config.threshold:
            period = min(
                self.config.quarantine_period * (2**record.quarantine_count),
                self.config.max_quarantine,
            )
            record.quarantined_until = now + period
            record.quarantine_count += 1
            record.fault_times.clear()
            self.total_quarantines += 1
            if self.obs is not None:
                self.obs.event(
                    "watchdog.quarantine",
                    principal=principal,
                    duration=period,
                    offence=record.quarantine_count,
                )
                self.obs.registry.gauge("watchdog_quarantined_principals").set(
                    len(self.quarantined_principals())
                )
            return True
        return False

    def is_quarantined(self, principal: str) -> bool:
        record = self._records.get(principal)
        if record is None:
            return False
        return self.clock.now < record.quarantined_until

    def quarantine_remaining(self, principal: str) -> float:
        record = self._records.get(principal)
        if record is None:
            return 0.0
        return max(0.0, record.quarantined_until - self.clock.now)

    def pardon(self, principal: str) -> None:
        """Operator override: lift a quarantine and reset escalation."""
        self._records.pop(principal, None)

    # ------------------------------------------------------------------

    def quarantined_principals(self) -> list[str]:
        now = self.clock.now
        return [
            principal
            for principal, record in self._records.items()
            if now < record.quarantined_until
        ]

    def _trim(self, record: QuarantineRecord, now: float) -> None:
        cutoff = now - self.config.window
        while record.fault_times and record.fault_times[0] < cutoff:
            record.fault_times.popleft()
