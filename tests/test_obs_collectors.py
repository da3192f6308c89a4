"""Collected counters: the obs registry reads a fact from its owner.

The runtime's lifecycle counters, the watchdog's, the fleet's failovers
and rejoins and the cluster's worker restarts are not counted by obs a
second time; :class:`~repro.obs.metrics.ObsRegistry` reads them from
their owners at query time. These tests check that the exported values
equal the owners' after runs that reboot, fail over, rejoin and drain,
and that a hub outliving a process lets go of its runtime.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps.cluster import NginxCluster
from repro.apps.serving import IsolationMode
from repro.campaigns.sampler import InjectionProcess
from repro.campaigns.strata import CampaignConfig
from repro.faultinj.models import FaultKind
from repro.fleet.balancer import Fleet
from repro.obs import Observability, parse_prometheus_samples, prometheus_text
from repro.sdrad.watchdog import WatchdogConfig

ATTACK_KEY = b"K" * 270
NGINX_ATTACK = b"GET /" + b"A" * 1100 + b" HTTP/1.1\r\nHost: h\r\n\r\n"
KEYS = [b"key:%03d" % i for i in range(40)]

RUNTIME_FAMILIES = (
    "sdrad_domain_entries_total",
    "sdrad_domains_created_total",
    "sdrad_domains_destroyed_total",
    "sdrad_domain_faults_total",
)
COLLECTED_FAMILIES = RUNTIME_FAMILIES + (
    "watchdog_faults_total",
    "watchdog_quarantines_total",
    "fleet_failovers_total",
    "fleet_rejoins_total",
    "cluster_worker_restarts_total",
)


def _add(counts, series, value):
    counts[series] = counts.get(series, 0) + value


def _runtime_counts(counts, runtime):
    """What the runtime itself counts: its live domains' stats plus the
    aggregate of the destroyed ones."""
    stats = [runtime.destroyed_stats] + [d.stats for d in runtime.domains()]
    _add(counts, "sdrad_domain_entries_total",
         sum(s.entries - s.retries for s in stats))
    created = len(runtime.domains()) - 1 + runtime.destroyed_count
    _add(counts, "sdrad_domains_created_total", created)
    _add(counts, "sdrad_domains_destroyed_total", runtime.destroyed_count)
    for s in stats:
        for mechanism, count in s.fault_kinds.items():
            _add(counts, f'sdrad_domain_faults_total{{mechanism="{mechanism}"}}', count)


def _fleet_run():
    """Faults up to a quarantine, a kill whose restart a routed request
    sees, a failover and a rejoin, and a drain."""
    obs = Observability()
    fleet = Fleet(
        4, seed=7, obs=obs,
        watchdog_config=WatchdogConfig(threshold=2, window=60.0),
    )
    runtimes, watchdogs = [], []

    def note():
        for shard in fleet.shards.values():
            if all(shard.runtime is not r for r in runtimes):
                runtimes.append(shard.runtime)
                watchdogs.append(shard.watchdog)

    for key in KEYS:
        fleet.set(key, b"v-" + key)
    fleet.get(ATTACK_KEY)
    fleet.get(ATTACK_KEY)  # quarantines the front-end's connection
    victim = fleet.ring.shard_for(KEYS[0])
    note()
    fleet.shards[victim].kill(0.05)
    fleet.clock.advance(0.06)
    fleet.get(KEYS[0])  # restarts the victim
    fleet.fail_over(victim)
    fleet.multiget(KEYS[:8])
    fleet.rejoin(victim)
    note()
    fleet.drain_shard()
    fleet.multiget(KEYS[8:16])
    note()

    counts = {}
    for runtime in runtimes:
        _runtime_counts(counts, runtime)
    _add(counts, "watchdog_faults_total", sum(w.total_faults for w in watchdogs))
    _add(counts, "watchdog_quarantines_total",
         sum(w.total_quarantines for w in watchdogs))
    _add(counts, "fleet_failovers_total", fleet.metrics.failovers)
    _add(counts, "fleet_rejoins_total", fleet.metrics.rejoins)
    return obs, counts


def _cluster_run():
    """An unisolated worker crashes on an exploit and is rebooted."""
    obs = Observability()
    cluster = NginxCluster(workers=2, isolation=IsolationMode.NONE, obs=obs)
    booted = [worker.runtime for worker in cluster.workers]
    cluster.connect("c0")
    cluster.handle("c0", b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
    cluster.handle("c0", NGINX_ATTACK)
    rebooted = [
        worker.runtime for worker in cluster.workers
        if all(worker.runtime is not r for r in booted)
    ]
    runtimes = booted + rebooted
    counts = {}
    for runtime in runtimes:
        _runtime_counts(counts, runtime)
    _add(counts, "cluster_worker_restarts_total", cluster.metrics.worker_restarts)
    return obs, counts


def _campaign_run():
    """Contained injections before and after a whole-process restart."""
    config = CampaignConfig()
    process = InjectionProcess(config, config.domains[0], "mpk")
    runtimes = [process.runtime]
    process.serve(3)
    process.inject(FaultKind.STACK_SMASH, {"overflow": 20}, None)
    process.restart(1.0)
    runtimes.append(process.runtime)
    process.serve(2)
    process.inject(FaultKind.STACK_SMASH, {"overflow": 20}, None)
    counts = {}
    for runtime in runtimes:
        _runtime_counts(counts, runtime)
    return process.obs, counts


#: scenario -> (run, the collected families it must make nonzero).
SCENARIOS = {
    "fleet": (
        _fleet_run,
        (
            "sdrad_domain_entries_total",
            "sdrad_domain_faults_total",
            "watchdog_faults_total",
            "watchdog_quarantines_total",
            "fleet_failovers_total",
            "fleet_rejoins_total",
        ),
    ),
    "cluster": (_cluster_run, ("cluster_worker_restarts_total",)),
    "campaign": (_campaign_run, RUNTIME_FAMILIES),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exported_counters_equal_their_owners(scenario):
    run, exercised = SCENARIOS[scenario]
    obs, owned = run()
    exported = parse_prometheus_samples(prometheus_text(obs.registry))
    for family in COLLECTED_FAMILIES:
        got = {s: v for s, v in exported.items() if s.split("{")[0] == family}
        # A series is exported once nonzero; executions from construction.
        want = {
            s: v for s, v in owned.items()
            if s.split("{")[0] == family and (v or family == RUNTIME_FAMILIES[0])
        }
        assert got == want, family
    for family in exercised:
        assert any(
            v for s, v in owned.items() if s.split("{")[0] == family
        ), f"{scenario} run left {family} at 0"


# ----------------------------------------------------------------------
# Each place a hub outlives a runtime releases it
# ----------------------------------------------------------------------


def _released(ref, registry, entries_before):
    gc.collect()
    assert ref() is None, "the hub still holds a dropped runtime"
    # ... and kept its counts.
    assert registry.counter_total("sdrad_domain_entries_total") >= entries_before


def test_shard_reboot_releases_the_old_runtime():
    obs = Observability()
    fleet = Fleet(2, seed=7, obs=obs)
    fleet.set(KEYS[0], b"v")
    shard = fleet.shards[fleet.ring.shard_for(KEYS[0])]
    ref, watchdog = weakref.ref(shard.runtime), weakref.ref(shard.watchdog)
    entries = obs.registry.counter_total("sdrad_domain_entries_total")
    shard.kill(0.05)
    fleet.clock.advance(0.06)
    fleet.get(KEYS[0])
    assert shard.restarts == 1
    _released(ref, obs.registry, entries)
    assert watchdog() is None


def test_drain_releases_the_drained_runtime():
    obs = Observability()
    fleet = Fleet(3, seed=7, obs=obs)
    for key in KEYS:
        fleet.set(key, b"v")
    ref = weakref.ref(fleet.shards["shard-2"].runtime)
    entries = obs.registry.counter_total("sdrad_domain_entries_total")
    assert fleet.drain_shard() == "shard-2"
    _released(ref, obs.registry, entries)
    assert obs.registry.counter_total("sdrad_domain_entries_total") == entries


def test_cluster_worker_reboot_releases_the_old_runtime():
    obs = Observability()
    cluster = NginxCluster(workers=1, isolation=IsolationMode.NONE, obs=obs)
    ref = weakref.ref(cluster.workers[0].runtime)
    cluster.connect("c0")
    assert cluster.handle("c0", NGINX_ATTACK).startswith(b"HTTP/1.1 502 ")
    _released(ref, obs.registry, 0)


def test_campaign_process_restart_releases_the_old_runtime():
    config = CampaignConfig()
    process = InjectionProcess(config, config.domains[0], "mpk")
    process.serve(3)
    ref = weakref.ref(process.runtime)
    entries = process.obs.registry.counter_total("sdrad_domain_entries_total")
    process.restart(1.0)
    _released(ref, process.obs.registry, entries)
    assert process.obs.registry.counter_total(
        "sdrad_domain_entries_total"
    ) == entries
