"""Virtual time for the simulation substrate.

The paper's evaluation spans eleven orders of magnitude of latency — from a
~30 ns ``WRPKRU`` instruction to a ~2 minute Memcached restart to a full year
of service operation. Wall-clock measurement in Python cannot resolve (or
afford) any of that, so every experiment runs against a :class:`VirtualClock`
whose time only moves when a simulated cost is charged to it.

Time is kept in *seconds* as a float; helper constants make cost tables
readable (``30 * NANOSECONDS`` rather than ``3e-8``).
"""

from __future__ import annotations

from ..errors import SimulationError

#: One second, the base unit of virtual time.
SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9
MINUTES = 60.0
HOURS = 3600.0
DAYS = 86400.0
#: A non-leap year, used by availability budgets (99.999 % of a year etc.).
YEARS = 365.0 * DAYS


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    The clock is deliberately dumb: it has no scheduling knowledge.
    Drivers jump it to arrival times with :meth:`advance_to`; components
    that model costs call :meth:`advance` directly when they execute
    synchronously.

    :attr:`now`, the current virtual time in seconds, is a plain attribute
    that anyone may read freely (a request reads it several times) and
    that only :meth:`advance`, :meth:`advance_to` and :meth:`reset` move.
    Each refuses a time that would move it backwards or to NaN.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        # ``not x >= 0`` rather than ``x < 0``: NaN compares false both ways.
        if not start >= 0:
            raise SimulationError(f"clock cannot start at negative or NaN time {start}")
        self.now = float(start)

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time.

        Negative and NaN deltas are rejected: simulated time never flows
        backwards, and such a cost is always a bug in a cost model.
        """
        if not delta >= 0:
            raise SimulationError(f"cannot advance clock by negative or NaN delta {delta}")
        now = self.now = self.now + delta
        return now

    def advance_to(self, timestamp: float) -> float:
        """Jump directly to ``timestamp`` (a driver moving to the next arrival)."""
        if not timestamp >= self.now:
            raise SimulationError(
                f"cannot move clock from {self.now} to {timestamp}"
            )
        self.now = timestamp
        return timestamp

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock; only experiments should do this, between runs."""
        if not start >= 0:
            raise SimulationError(f"clock cannot reset to negative or NaN time {start}")
        self.now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.9f})"


class Stopwatch:
    """Measures elapsed *virtual* time between two points.

    Usage::

        watch = Stopwatch(clock)
        watch.start()
        ... simulated work that advances the clock ...
        elapsed = watch.stop()
    """

    __slots__ = ("_clock", "_started_at", "_elapsed")

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._started_at: float | None = None
        self._elapsed = 0.0

    def start(self) -> None:
        if self._started_at is not None:
            raise SimulationError("stopwatch already running")
        self._started_at = self._clock.now

    def stop(self) -> float:
        if self._started_at is None:
            raise SimulationError("stopwatch not running")
        self._elapsed = self._clock.now - self._started_at
        self._started_at = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Elapsed time of the last completed measurement."""
        return self._elapsed

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
