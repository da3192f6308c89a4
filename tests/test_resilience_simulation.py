"""Tests for the long-horizon service availability simulation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faultinj.campaign import PeriodicArrivals, PoissonArrivals
from repro.resilience.simulation import (
    ServiceAvailabilitySimulation,
    ServiceOutcome,
    compare_strategies,
)
from repro.resilience.strategy import RecoveryStrategyModel
from repro.sim.clock import MINUTES, YEARS
from repro.sim.cost import GIB
from repro.sim.rng import RngFactory

MODEL = RecoveryStrategyModel()


def year_times(count: int) -> list[float]:
    return list(PeriodicArrivals(count).times(YEARS))


class TestRestartSimulation:
    def test_downtime_matches_arithmetic(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(3)).run()
        assert outcome.faults_recovered == 3
        assert outcome.downtime == pytest.approx(3 * spec.downtime_per_fault)

    def test_three_restarts_violate_five_nines(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(3)).run()
        assert not outcome.meets_five_nines

    def test_two_restarts_meet_five_nines(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(2)).run()
        assert outcome.meets_five_nines

    def test_requests_dropped_during_downtime(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(
            spec, year_times(3), request_rate=100.0
        ).run()
        expected = 100.0 * outcome.downtime
        assert outcome.requests_dropped == pytest.approx(expected)
        assert outcome.requests_served == pytest.approx(
            outcome.requests_offered - expected
        )


class TestRewindSimulation:
    def test_massive_fault_count_still_five_nines(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(spec, year_times(1_000)).run()
        assert outcome.meets_five_nines
        assert outcome.downtime == pytest.approx(1000 * 3.5e-6)

    def test_each_fault_loses_one_request(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(
            spec, year_times(10), request_rate=100.0
        ).run()
        assert outcome.requests_dropped == pytest.approx(10, abs=0.1)


class TestFaultAbsorption:
    def test_faults_during_restart_absorbed(self):
        spec = MODEL.process_restart(10 * GIB)
        # second fault lands while the first restart is still in progress
        times = [100.0, 110.0, 100000.0]
        outcome = ServiceAvailabilitySimulation(spec, times).run()
        assert outcome.faults_recovered == 2
        assert outcome.faults_absorbed == 1
        assert outcome.downtime == pytest.approx(2 * spec.downtime_per_fault)

    def test_downtime_truncated_at_horizon(self):
        spec = MODEL.process_restart(10 * GIB)
        horizon = 1000.0
        outcome = ServiceAvailabilitySimulation(spec, [999.0], horizon=horizon).run()
        assert outcome.downtime == pytest.approx(1.0)

    def test_out_of_horizon_faults_ignored(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(
            spec, [10.0, 2 * YEARS], horizon=YEARS
        ).run()
        assert outcome.faults_injected == 1


class TestComparison:
    def test_compare_strategies_ordering(self):
        specs = MODEL.all_for(10 * GIB)
        outcomes = compare_strategies(specs, year_times(3))
        by_name = {o.strategy: o for o in outcomes}
        assert by_name["sdrad-rewind"].downtime < by_name["replicated-2x"].downtime
        assert (
            by_name["replicated-2x"].downtime
            < by_name["process-restart"].downtime
        )
        assert (
            by_name["process-restart"].downtime
            < by_name["container-restart"].downtime
        )

    def test_same_schedule_for_all(self):
        specs = MODEL.all_for(GIB)
        outcomes = compare_strategies(specs, year_times(5))
        assert all(o.faults_injected == 5 for o in outcomes)

    def test_poisson_schedule_runs(self):
        rng = RngFactory(3).stream("faults")
        times = list(PoissonArrivals(10 / YEARS, rng).times(YEARS))
        spec = MODEL.process_restart(GIB)
        outcome = ServiceAvailabilitySimulation(spec, times).run()
        assert outcome.faults_injected == len(times)


class TestValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            ServiceAvailabilitySimulation(MODEL.sdrad_rewind(), [], horizon=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ServiceAvailabilitySimulation(
                MODEL.sdrad_rewind(), [], request_rate=-1
            )

    def test_no_faults_is_perfect(self):
        outcome = ServiceAvailabilitySimulation(MODEL.sdrad_rewind(), []).run()
        assert outcome.availability == 1.0
        assert outcome.downtime == 0.0


class TestTraceIndependence:
    def test_downtime_computed_from_trace_not_bookkeeping(self):
        """The down intervals are the witness of the availability math."""
        spec = MODEL.process_restart(10 * GIB)
        times = year_times(2)
        sim = ServiceAvailabilitySimulation(spec, times)
        outcome = sim.run()
        assert sim.down_intervals == [
            (t, t + spec.downtime_per_fault) for t in times
        ]
        assert outcome.downtime == pytest.approx(2 * spec.downtime_per_fault)

    def test_intervals_absorb_and_truncate(self):
        spec = MODEL.process_restart(10 * GIB)
        sim = ServiceAvailabilitySimulation(spec, [100.0, 110.0, 990.0], horizon=1000.0)
        sim.run()
        assert sim.down_intervals == [
            (100.0, 100.0 + spec.downtime_per_fault),
            (990.0, 1000.0),
        ]


def e3_schedules() -> dict[str, list[float]]:
    """E3's 3-per-year periodic schedule and its seeded Poisson schedule."""
    rng = RngFactory(5).stream("e3/poisson")
    return {
        "periodic": year_times(3),
        "poisson": list(PoissonArrivals(6 / YEARS, rng).times(YEARS)),
    }


#: Outcomes recorded with the former discrete-event engine (one scheduled
#: callback per fault); the sorted loop must reproduce them field for field.
PINNED_OUTCOMES = {
    "periodic": [
        ServiceOutcome(
            "sdrad-rewind", 31536000.0, 3, 3, 0,
            1.05e-05, 0.999999999999667, 12.477613304431475,
            31536000000.0, 31535999996.9895, 3.0105,
        ),
        ServiceOutcome(
            "process-restart", 31536000.0, 3, 3, 0,
            343.7333333315328, 0.9999891002875022, 4.962584957313444,
            31536000000.0, 31535656266.666668, 343733.3333315328,
        ),
        ServiceOutcome(
            "container-restart", 31536000.0, 3, 3, 0,
            350.933333334513, 0.9999888719769998, 4.95358198538456,
            31536000000.0, 31535649066.666664, 350933.333334513,
        ),
        ServiceOutcome(
            "replicated-2x", 31536000.0, 3, 3, 0,
            6.0, 0.9999998097412481, 6.72065535663914,
            31536000000.0, 31535994000.0, 6000.0,
        ),
    ],
    "poisson": [
        ServiceOutcome(
            "sdrad-rewind", 31536000.0, 6, 6, 0,
            2.1e-05, 0.9999999999993341, 12.176583308767494,
            31536000000.0, 31535999993.979, 6.021,
        ),
        ServiceOutcome(
            "process-restart", 31536000.0, 6, 6, 0,
            687.4666666621342, 0.9999782005750044, 4.661554961649463,
            31536000000.0, 31535312533.33334, 687466.6666621342,
        ),
        ServiceOutcome(
            "container-restart", 31536000.0, 6, 6, 0,
            701.8666666699573, 0.9999777439539995, 4.652551989718413,
            31536000000.0, 31535298133.33333, 701866.6666699573,
        ),
        ServiceOutcome(
            "replicated-2x", 31536000.0, 6, 6, 0,
            12.0, 0.9999996194824962, 6.419625360848446,
            31536000000.0, 31535988000.0, 12000.0,
        ),
    ],
}


def run_all(times: list[float]) -> list[ServiceOutcome]:
    return compare_strategies(MODEL.all_for(10 * GIB), times, request_rate=1000.0)


@pytest.mark.parametrize("schedule", sorted(PINNED_OUTCOMES))
class TestPinnedOutcomes:
    def test_outcomes_equal_recorded_values(self, schedule):
        assert run_all(e3_schedules()[schedule]) == PINNED_OUTCOMES[schedule]

    def test_unsorted_schedule_equals_sorted_run(self, schedule):
        times = e3_schedules()[schedule]
        assert run_all(times[::-1]) == run_all(sorted(times))

    def test_duplicated_timestamp_equals_sorted_run(self, schedule):
        times = e3_schedules()[schedule]
        duplicated = [times[1]] + times[::-1]
        outcomes = run_all(duplicated)
        assert outcomes == run_all(sorted(duplicated))
        rewind, *restarts = outcomes
        # Rewind recovers both faults; a restart absorbs the second, which
        # leaves its downtime and dropped requests exactly as pinned.
        assert rewind.faults_recovered == len(duplicated)
        for got, pinned in zip(restarts, PINNED_OUTCOMES[schedule][1:]):
            assert got == replace(
                pinned, faults_injected=len(duplicated), faults_absorbed=1
            )


class TestRepeatableRun:
    @pytest.mark.parametrize(
        "spec", [MODEL.sdrad_rewind(), MODEL.process_restart(10 * GIB)],
        ids=["sdrad-rewind", "process-restart"],
    )
    def test_second_run_gives_same_outcome_and_intervals(self, spec):
        sim = ServiceAvailabilitySimulation(
            spec, year_times(3) + [year_times(3)[0] + 1.0], request_rate=100.0
        )
        first = sim.run()
        first_intervals = list(sim.down_intervals)
        assert sim.run() == first
        assert sim.down_intervals == first_intervals
