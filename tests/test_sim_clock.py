"""Tests for the virtual clock and stopwatch."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.clock import (
    DAYS,
    HOURS,
    MICROSECONDS,
    MINUTES,
    NANOSECONDS,
    YEARS,
    Stopwatch,
    VirtualClock,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.5).now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            VirtualClock(-1.0)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance(2.5)
        assert clock.now == pytest.approx(3.5)

    def test_advance_returns_new_time(self):
        clock = VirtualClock(1.0)
        assert clock.advance(2.0) == pytest.approx(3.0)

    def test_advance_zero_is_allowed(self):
        clock = VirtualClock(7.0)
        clock.advance(0.0)
        assert clock.now == 7.0

    def test_advance_rejects_negative_delta(self):
        clock = VirtualClock()
        with pytest.raises(SimulationError):
            clock.advance(-0.001)

    def test_advance_to_jumps_forward(self):
        clock = VirtualClock()
        clock.advance_to(42.0)
        assert clock.now == 42.0

    def test_advance_to_rejects_past(self):
        clock = VirtualClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.999)

    def test_reset(self):
        clock = VirtualClock(10.0)
        clock.reset()
        assert clock.now == 0.0

    def test_reset_rejects_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock().reset(-5)

    @pytest.mark.parametrize(
        "move",
        [
            VirtualClock,
            lambda nan: VirtualClock().advance(nan),
            lambda nan: VirtualClock().advance_to(nan),
            lambda nan: VirtualClock().reset(nan),
        ],
        ids=["start", "advance", "advance_to", "reset"],
    )
    def test_rejects_nan(self, move):
        # NaN compares false with everything, so ``x < 0`` lets it through.
        with pytest.raises(SimulationError):
            move(math.nan)

    def test_nanosecond_resolution_survives(self):
        clock = VirtualClock()
        clock.advance(30 * NANOSECONDS)
        assert clock.now == pytest.approx(3e-8)


class TestTimeConstants:
    def test_unit_ladder(self):
        assert MINUTES == 60
        assert HOURS == 3600
        assert DAYS == 86400
        assert YEARS == 365 * DAYS

    def test_microsecond(self):
        assert 3.5 * MICROSECONDS == pytest.approx(3.5e-6)


class TestStopwatch:
    def test_measures_elapsed_virtual_time(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(1.25)
        assert watch.stop() == pytest.approx(1.25)

    def test_context_manager(self):
        clock = VirtualClock()
        with Stopwatch(clock) as watch:
            clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)

    def test_double_start_rejected(self):
        watch = Stopwatch(VirtualClock())
        watch.start()
        with pytest.raises(SimulationError):
            watch.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(SimulationError):
            Stopwatch(VirtualClock()).stop()

    def test_reusable_after_stop(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(1.0)
        watch.stop()
        watch.start()
        clock.advance(0.5)
        assert watch.stop() == pytest.approx(0.5)
