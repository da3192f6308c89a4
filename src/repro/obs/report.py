"""The ``python -m repro obs`` demo: a fully-observed memcached run.

Drives a deterministic mixed workload — honest sets/gets, pipelined
batches, and periodic malicious requests that smash the parser's stack
buffer — through an obs-instrumented :class:`MemcachedServer`, then
reports what the observability layer saw: request/rewind metrics, the
span buffer, the sustainability ledger (joules and gCO₂e per request for
rewind vs restart recovery), and the telemetry consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..apps.memcached_server import IsolationMode, MemcachedServer
from ..sdrad.runtime import SdradRuntime
from ..sdrad.telemetry import consistency_check
from ..sdrad.watchdog import FaultWatchdog, WatchdogConfig
from ..sim.cost import GIB
from .exporters import write_jsonl, write_prometheus
from .hub import Observability
from .ledger import SustainabilityLedger

#: Every Nth request is an exploit attempt (over-long key, BUG 1).
MALICIOUS_EVERY = 9
#: Every Nth request is sent as the head of a 4-request pipeline.
BATCH_EVERY = 7

_ATTACK = b"get " + b"A" * 300 + b"\r\n"


@dataclass
class DemoRun:
    """Everything the demo produced, for reporting and tests."""

    runtime: SdradRuntime
    server: MemcachedServer
    obs: Observability
    requests_sent: int


def run_demo_workload(
    requests: int = 200,
    clients: int = 4,
    sampling: float = 1.0,
) -> DemoRun:
    """Run the deterministic demo workload; returns the live objects."""
    if requests < 1:
        raise ValueError(f"need at least one request, got {requests}")
    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    obs = Observability(sampling=sampling)
    runtime = SdradRuntime(obs=obs)
    watchdog = FaultWatchdog(
        runtime.clock,
        # Tolerant enough that the demo shows rewinds *and* (for longer
        # runs) an eventual quarantine, not a wall of refusals.
        WatchdogConfig(threshold=8, window=60.0, quarantine_period=1.0),
        obs=obs,
    )
    server = MemcachedServer(
        runtime,
        isolation=IsolationMode.PER_CONNECTION,
        watchdog=watchdog,
    )
    names = [f"client-{i}" for i in range(clients)]
    for name in names:
        server.connect(name)

    sent = 0
    i = 0
    while sent < requests:
        client = names[i % clients]
        if i % MALICIOUS_EVERY == MALICIOUS_EVERY - 1:
            server.handle(client, _ATTACK)
            sent += 1
        elif i % BATCH_EVERY == BATCH_EVERY - 1:
            batch = [
                b"set batch%d 0 0 5\r\nhello\r\n" % i,
                b"get batch%d\r\n" % i,
                b"get batch%d\r\n" % (i - BATCH_EVERY),
                b"stats\r\n",
            ]
            server.handle_batch(client, batch)
            sent += len(batch)
        else:
            if i % 2 == 0:
                server.handle(client, b"set key%d 0 0 4\r\ndata\r\n" % i)
            else:
                server.handle(client, b"get key%d\r\n" % (i - 1))
            sent += 1
        i += 1
    return DemoRun(runtime=runtime, server=server, obs=obs, requests_sent=sent)


def render_report(
    run: DemoRun,
    dataset_bytes: int = 10 * GIB,
) -> str:
    """The human-readable report ``python -m repro obs`` prints."""
    obs = run.obs
    registry = obs.registry
    lines = [
        "observability demo — memcached, per-connection isolation",
        "",
        f"requests served      {registry.counter_total('app_requests_total')}",
        f"  ok                 {registry.counter_total('app_requests_total', status='ok')}",
        f"  faulted (rewound)  {registry.counter_total('app_requests_total', status='fault')}",
        f"  refused            {registry.counter_total('app_requests_total', status='refused')}",
        f"batches              {registry.counter_total('app_batches_total')}",
        f"domain entries       {registry.counter_total('sdrad_domain_entries_total')}",
        f"faults detected      {registry.counter_total('sdrad_domain_faults_total')}",
        f"rewinds              {registry.counter_total('sdrad_rewinds_total')}",
        f"quarantines          {registry.counter_total('watchdog_quarantines_total')}",
        f"spans recorded       {len(obs.buffer)} (sampling={obs.sampling})",
        f"virtual time         {run.runtime.clock.now * 1e3:.3f} ms",
        "",
        "sustainability ledger (live metrics x frozen E5 models):",
    ]
    ledger = SustainabilityLedger(
        registry, run.runtime.clock, cost=run.runtime.cost,
        dataset_bytes=dataset_bytes,
    )
    lines.append(ledger.format_entries())
    lines.append("")
    problems = consistency_check(run.runtime)
    if problems:
        lines.append("CONSISTENCY CHECK FAILED:")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append("consistency check: ok (telemetry and obs agree)")
    return "\n".join(lines)


def run_and_report(
    requests: int = 200,
    clients: int = 4,
    sampling: float = 1.0,
    dataset_gib: float = 10.0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> tuple[str, int]:
    """Run the demo and render the report; returns (text, exit_code)."""
    run = run_demo_workload(requests=requests, clients=clients, sampling=sampling)
    text = render_report(run, dataset_bytes=int(dataset_gib * GIB))
    if trace_out:
        count = write_jsonl(run.obs.buffer, trace_out)
        text += f"\ntrace: {count} spans -> {trace_out}"
    if metrics_out:
        write_prometheus(run.obs.registry, metrics_out)
        text += f"\nmetrics snapshot -> {metrics_out}"
    failed = bool(consistency_check(run.runtime))
    return text, (1 if failed else 0)
