"""Integration: each quantitative claim of the paper, end-to-end.

One test class per claim; EXPERIMENTS.md references these as the executable
record of the reproduction.
"""

from __future__ import annotations

import pytest

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.faultinj.campaign import PeriodicArrivals
from repro.resilience.simulation import compare_strategies
from repro.resilience.strategy import RecoveryStrategyModel
from repro.sdrad.runtime import SdradRuntime
from repro.sim.clock import MINUTES, YEARS
from repro.sim.cost import GIB
from repro.sustainability.lca import LifecycleAssessment

MODEL = RecoveryStrategyModel()


class TestClaimOverheadBand:
    """§II: 'negligible overhead (2 %–4 %) in realistic multi-processing
    scenarios' — measured as isolated vs unisolated virtual time per
    request on the Memcached replica."""

    @staticmethod
    def run_requests(isolation: IsolationMode, n: int = 200) -> float:
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=isolation)
        server.connect("c")
        requests = [b"set k%03d 0 0 8\r\nvalue123\r\n" % (i % 50) for i in range(n)]
        start = runtime.clock.now
        for request in requests:
            server.handle("c", request)
        return runtime.clock.now - start

    def test_per_connection_overhead_in_band(self):
        baseline = self.run_requests(IsolationMode.NONE)
        isolated = self.run_requests(IsolationMode.PER_CONNECTION)
        overhead = isolated / baseline - 1.0
        assert 0.01 < overhead < 0.05, f"overhead {overhead:.4f} out of band"

    def test_per_request_overhead_is_larger(self):
        per_connection = self.run_requests(IsolationMode.PER_CONNECTION)
        per_request = self.run_requests(IsolationMode.PER_REQUEST)
        assert per_request > per_connection


class TestClaimRecoveryTimes:
    """§II: 'a regular restart takes about 2 minutes, in-process rewinding
    takes only 3.5 µs'."""

    def test_restart_about_two_minutes_at_10gib(self):
        spec = MODEL.process_restart(10 * GIB)
        assert spec.downtime_per_fault == pytest.approx(2 * MINUTES, rel=0.2)

    def test_rewind_exactly_3_5_us(self):
        assert MODEL.sdrad_rewind().downtime_per_fault == pytest.approx(3.5e-6)

    def test_measured_rewind_matches_spec(self):
        """The spec number and the *measured* rewind in the runtime agree."""
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("m")
        rewinds_before = sum(d.stats.rewinds for d in runtime.domains())
        before = runtime.clock.now
        server.handle("m", b"get " + b"K" * 270 + b"\r\n")
        elapsed = runtime.clock.now - before
        assert sum(d.stats.rewinds for d in runtime.domains()) == rewinds_before + 1
        # request time = parse attempt + rewind; the rewind dominates
        assert runtime.cost.rewind < elapsed < 3 * runtime.cost.rewind

    def test_ratio_exceeds_ten_million(self):
        restart = MODEL.process_restart(10 * GIB).downtime_per_fault
        rewind = MODEL.sdrad_rewind().downtime_per_fault
        assert restart / rewind > 1e7


class TestClaimAvailability:
    """§IV: three 2-minute restarts/year violate five nines; rewind leaves
    >9·10⁷ recoveries of headroom."""

    def test_simulated_year_three_faults(self):
        times = list(PeriodicArrivals(3).times(YEARS))
        outcomes = compare_strategies(MODEL.all_for(10 * GIB), times)
        by_name = {o.strategy: o for o in outcomes}
        assert not by_name["process-restart"].meets_five_nines
        assert by_name["sdrad-rewind"].meets_five_nines
        assert by_name["replicated-2x"].meets_five_nines

    def test_rewind_survives_ninety_million_faults_budget(self):
        spec = MODEL.sdrad_rewind()
        assert spec.recoveries_per_budget(315.36) > 9e7

    def test_simulated_year_with_hourly_faults_still_five_nines(self):
        times = list(PeriodicArrivals(24 * 365).times(YEARS))  # hourly
        outcomes = compare_strategies([MODEL.sdrad_rewind()], times)
        assert outcomes[0].meets_five_nines


class TestClaimSustainability:
    """§IV: replication for availability over-provisions hardware; SDRaD
    achieves the target with one instance."""

    def test_equal_availability_unequal_carbon(self):
        lca = LifecycleAssessment()
        rows = lca.assess(dataset_bytes=10 * GIB, faults_per_year=3)
        compliant = [r for r in rows if r.meets_target]
        assert len(compliant) == 3
        best = min(compliant, key=lambda r: r.total_kg)
        assert best.strategy == "sdrad-rewind"
        assert best.replicas == 1

    def test_saving_survives_moderate_rebound(self):
        lca = LifecycleAssessment()
        rows = lca.assess(dataset_bytes=10 * GIB, faults_per_year=3)
        assert lca.carbon_saving(rows, rebound_fraction=0.5) > 0


class TestClaimRetrofitEffort:
    """§II: retrofitting Memcached took 2 changed files / 484 added lines.
    Our replica's integration surface is the same order of magnitude."""

    def test_integration_surface_is_small(self):
        import inspect

        from repro.apps import memcached_server

        source = inspect.getsource(memcached_server)
        # the whole isolated-server module (wrapper + parser + plumbing)
        # stays within a few hundred lines, like the paper's patch
        assert len(source.splitlines()) < 600
