"""E2 — recovery latency: rewind vs process/container restart vs failover.

Paper claim (§II): "in our Memcached setup with a 10 GB database, a regular
restart takes about 2 minutes, in-process rewinding takes only 3.5 µs."

Reproduced as: a dataset-size sweep (0.1 → 10 GiB) of restart latencies from
the calibrated cost model, against the rewind latency *measured* on the
simulated runtime (an actual fault → rewind cycle on the Memcached replica,
not a constant read back from the model). Expected shape: restart grows
linearly with dataset size, rewind is flat, the gap at 10 GiB exceeds 10⁷×.
"""

from __future__ import annotations

import pytest

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.obs import Observability
from repro.resilience.strategy import RecoveryStrategyModel
from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime
from repro.sim.cost import GIB
from repro.sustainability.report import format_seconds, format_table

MODEL = RecoveryStrategyModel()
DATASET_SWEEP = [GIB // 10, GIB, 2 * GIB, 5 * GIB, 10 * GIB]

ATTACK = b"get " + b"K" * 270 + b"\r\n"


def measured_rewind_latency() -> float:
    """Drive a real fault through the Memcached replica; time the rewind."""
    runtime = SdradRuntime(obs=Observability())
    server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
    server.connect("attacker")
    server.handle("attacker", ATTACK)
    rewinds = runtime.obs.buffer.of_name("domain.rewind")
    assert rewinds, "attack did not trigger a rewind"
    return rewinds[0].attrs["duration"]


def test_e2_recovery_time_table(experiment_printer):
    rewind = measured_rewind_latency()
    rows = []
    for dataset in DATASET_SWEEP:
        process = MODEL.process_restart(dataset).downtime_per_fault
        container = MODEL.container_restart(dataset).downtime_per_fault
        failover = MODEL.replicated_failover(2).downtime_per_fault
        rows.append(
            (
                f"{dataset / GIB:.1f} GiB",
                format_seconds(rewind),
                format_seconds(process),
                format_seconds(container),
                format_seconds(failover),
                f"{process / rewind:.1e}",
            )
        )
    experiment_printer(
        "E2 — recovery latency by strategy and dataset size "
        "(paper: 2 min restart vs 3.5 µs rewind @ 10 GB)",
        format_table(
            (
                "dataset",
                "sdrad-rewind",
                "process-restart",
                "container-restart",
                "failover-2x",
                "restart/rewind",
            ),
            rows,
        ),
    )


def test_e2_measured_rewind_is_3_5_us():
    assert measured_rewind_latency() == pytest.approx(3.5e-6)


def test_e2_restart_at_10gib_about_two_minutes():
    t = MODEL.process_restart(10 * GIB).downtime_per_fault
    assert 100 < t < 140  # "about 2 minutes"


def test_e2_gap_exceeds_seven_orders():
    rewind = measured_rewind_latency()
    restart = MODEL.process_restart(10 * GIB).downtime_per_fault
    assert restart / rewind > 1e7


def test_e2_restart_scales_linearly_rewind_flat():
    restarts = [MODEL.process_restart(d).downtime_per_fault for d in DATASET_SWEEP]
    diffs = [b - a for a, b in zip(restarts, restarts[1:])]
    sizes = [b - a for a, b in zip(DATASET_SWEEP, DATASET_SWEEP[1:])]
    slopes = [d / s for d, s in zip(diffs, sizes)]
    assert all(s == pytest.approx(slopes[0], rel=1e-6) for s in slopes)


def test_e2_scrub_ablation(experiment_printer):
    """Design decision D2: discard-without-scrub is what keeps rewind in
    microseconds; scrubbing a large domain costs 100× more."""
    rows = []
    for heap_kib in (64, 256, 1024):
        # Eager mode charges the scrub at discard time — that is the cost
        # this ablation exists to expose (lazy, the default, defers it).
        runtime = SdradRuntime(scrub_mode="eager")
        plain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT, heap_size=heap_kib * 1024
        )
        scrubbed = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD,
            heap_size=heap_kib * 1024,
        )

        def fault(handle):
            handle.store(0, b"x")

        plain_result = runtime.execute(plain.udi, fault)
        scrub_result = runtime.execute(scrubbed.udi, fault)
        rows.append(
            (
                f"{heap_kib} KiB",
                format_seconds(plain_result.recovery_time),
                format_seconds(scrub_result.recovery_time),
                f"{scrub_result.recovery_time / plain_result.recovery_time:.0f}x",
            )
        )
    experiment_printer(
        "E2b — ablation: discard vs scrub-on-discard",
        format_table(("domain heap", "discard", "scrub", "ratio"), rows),
    )


def test_e2c_checkpoint_restore_ablation(experiment_printer):
    """Design decision D2/D3: discard vs checkpoint/restore. Restoring a
    snapshot preserves domain state across faults, but a domain-sized copy
    precedes *every* call — the measured numbers show why SDRaD discards."""
    rows = []
    for heap_kib in (64, 256, 1024):
        runtime = SdradRuntime()
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT, heap_size=heap_kib * 1024
        )

        def fault(handle):
            handle.store(0, b"x")

        before = runtime.clock.now
        runtime.execute(domain.udi, lambda h: None)
        plain_call = runtime.clock.now - before
        before = runtime.clock.now
        runtime.execute_with_checkpoint(domain.udi, lambda h: None)
        checkpoint_call = runtime.clock.now - before
        rewind = runtime.execute(domain.udi, fault).recovery_time
        restored = runtime.execute_with_checkpoint(domain.udi, fault).recovery_time
        rows.append(
            (
                f"{heap_kib} KiB",
                format_seconds(plain_call),
                format_seconds(checkpoint_call),
                format_seconds(rewind),
                format_seconds(restored),
            )
        )
    experiment_printer(
        "E2c — ablation: rewind-and-discard vs checkpoint/restore "
        "(per-call overhead and per-fault recovery)",
        format_table(
            (
                "domain heap",
                "call (discard design)",
                "call (checkpointing)",
                "recovery (rewind)",
                "recovery (restore)",
            ),
            rows,
        ),
    )
    # checkpointing's per-call cost dwarfs the discard design's
    assert all(
        _parse_seconds(row[2]) > 10 * _parse_seconds(row[1]) for row in rows
    )


def _parse_seconds(text: str) -> float:
    value, unit = text.split()
    factor = {"ns": 1e-9, "µs": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0}[unit]
    return float(value) * factor


@pytest.mark.benchmark(group="e2-recovery")
def test_e2_bench_rewind_cycle(benchmark):
    """Wall-time of a complete simulated fault→detect→rewind cycle."""
    runtime = SdradRuntime()
    server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
    server.connect("attacker")
    benchmark(server.handle, "attacker", ATTACK)
