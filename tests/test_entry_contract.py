"""The entry contract: what one ``SdradRuntime.execute`` call leaves behind.

A domain entry is the hottest host path in the simulator, and its Python
is tuned for speed; these pins make sure the tuning never changes what an
entry *does*. For every substrate (mpk, cheri, sfi), with the obs hub off
and on, and for the five outcomes of an entry — ok, a rewound fault, a
retry that then succeeds, an abort and a logic error — on a re-entry
miss (first entry) and a re-entry hit (primed entry), they record the
:class:`DomainResult` fields (or the escaping exception), the virtual
clock delta, the gate-write delta, the spans and counters the hub kept,
and check that the context stack and the gate come back as they were.
Literal values were recorded from the runtime before any of the tuning.

They also pin the two state errors ``execute`` raises (a destroyed domain,
a re-entered one) and how a saturated hub advances span and trace ids and
its ``dropped`` count across ``start_span``/``end_span``/``event``.
"""

from __future__ import annotations

import pytest

from repro.errors import DomainStateError
from repro.obs import DROPPED, Observability
from repro.sdrad.constants import DomainFlags
from repro.sdrad.policy import AbortPolicy, BackoffRetryPolicy, ProcessCrashed
from repro.sdrad.runtime import SdradRuntime

BACKENDS = ("mpk", "cheri", "sfi")
OUTCOMES = ("ok", "fault", "retry", "abort", "logic")


def _ok_body(handle):
    addr = handle.malloc(32)
    handle.store(addr, b"entry contract")
    return bytes(handle.load(addr, 14))


def _fault_body(handle, foreign):
    handle.malloc(16)
    handle.space.store(foreign, b"x")


def _logic_body(handle):
    handle.malloc(16)
    raise ValueError("logic error inside the domain")


def _entry(backend, outcome, hit, observed):
    """Run one entry of ``outcome`` and return everything it leaves behind."""
    obs = Observability() if observed else None
    runtime = SdradRuntime(backend=backend, obs=obs)
    victim = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    foreign = runtime.execute(victim.udi, lambda h: h.malloc(16)).value
    if hit:
        assert runtime.execute(domain.udi, lambda h: None).ok
    if obs is not None:
        obs.buffer.clear()
    hits, misses = runtime.reentry_hits, runtime.reentry_misses
    gate = runtime.space.gate
    gate_before, depth_before = gate.snapshot(), runtime.contexts.depth
    clock_before, writes_before = runtime.clock.now, gate.writes

    policy = None
    args: tuple = ()
    body = _ok_body
    if outcome == "fault":
        body, args = _fault_body, (foreign,)
    elif outcome == "retry":
        policy = BackoffRetryPolicy(max_retries=1)
        calls = []

        def body(handle):
            calls.append(1)
            if len(calls) == 1:
                _fault_body(handle, foreign)
            return _ok_body(handle)

    elif outcome == "abort":
        body, args, policy = _fault_body, (foreign,), AbortPolicy()
    elif outcome == "logic":
        body = _logic_body

    try:
        result = runtime.execute(domain.udi, body, *args, policy=policy)
    except ProcessCrashed as exc:
        returned = ("ProcessCrashed", _report(exc.report))
    except ValueError as exc:
        returned = ("ValueError", str(exc))
    else:
        returned = (
            result.ok,
            result.value,
            None if result.fault is None else _report(result.fault),
            result.retries,
            result.recovery_time,
            result.elapsed,
        )

    assert gate.snapshot() == gate_before
    assert runtime.contexts.depth == depth_before
    assert (runtime.reentry_hits - hits, runtime.reentry_misses - misses) == (
        (1, 0) if hit else (0, 1)
    )
    record = {
        "returned": returned,
        "clock": runtime.clock.now - clock_before,
        "writes": gate.writes - writes_before,
        "stats": _stats(domain),
    }
    if obs is not None:
        assert obs.open_span_count == 0
        record["spans"] = [
            (s.name, s.status, s.end - s.start, dict(s.attrs)) for s in obs.buffer
        ]
        record["counters"] = {
            name: (value["count"], value["sum"]) if isinstance(value, dict) else value
            for name, value in obs.registry.snapshot().items()
        }
    return record


def _report(report):
    return (
        report.mechanism.value,
        report.domain_udi,
        report.address,
        report.violation,
        report.message,
    )


def _stats(domain):
    stats = domain.stats
    return (
        domain.state.value,
        stats.entries,
        stats.clean_exits,
        stats.faults,
        stats.rewinds,
        stats.retries,
    )


#: Recorded before the entry path was tuned; see the module docstring.
PINS: dict = {'mpk/ok/miss': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                        3.5000000000000004e-07),
                           'clock': 3.5000000000000004e-07,
                           'writes': 4,
                           'stats': ('initialized', 1, 1, 0, 0, 0)},
                 'spans': [('domain.execute', 'ok', 1.9999999999999978e-07, {'udi': 2})],
                 'counters': {'counter/sdrad_domain_entries_total': 2,
                              'counter/sdrad_domains_created_total': 2}},
 'mpk/ok/hit': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                       3.5000000000000004e-07),
                          'clock': 3.5000000000000004e-07,
                          'writes': 4,
                          'stats': ('initialized', 2, 2, 0, 0, 0)},
                'spans': [('domain.execute', 'ok', 1.9999999999999978e-07, {'udi': 2})],
                'counters': {'counter/sdrad_domain_entries_total': 3,
                             'counter/sdrad_domains_created_total': 2}},
 'mpk/fault/miss': {'entry': {'returned': (False, None,
                                           ('pkey-violation', 2, 1118208,
                                            'ProtectionKeyViolation',
                                            'protection-key violation: store at 0x111000 (page '
                                            'tagged pkey=1, PKRU denies)'),
                                           0, 3.5000000000000004e-06, 3.85e-06),
                              'clock': 3.85e-06,
                              'writes': 4,
                              'stats': ('initialized', 1, 0, 1, 1, 0)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.rewind', 'ok', 0.0,
                               {'udi': 2,
                                'cause': 'pkey-violation',
                                'duration': 3.5000000000000004e-06,
                                'scrubbed_pages': 0}),
                              ('domain.execute', 'fault', 3.7e-06, {'udi': 2, 'retries': 0})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2,
                                 'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                 'histogram/sdrad_rewind_latency_seconds': (1,
                                                                            3.5000000000000004e-06)}},
 'mpk/fault/hit': {'entry': {'returned': (False, None,
                                          ('pkey-violation', 2, 1118208,
                                           'ProtectionKeyViolation',
                                           'protection-key violation: store at 0x111000 (page '
                                           'tagged pkey=1, PKRU denies)'),
                                          0, 3.5000000000000004e-06, 3.85e-06),
                             'clock': 3.85e-06,
                             'writes': 4,
                             'stats': ('initialized', 2, 1, 1, 1, 0)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.rewind', 'ok', 0.0,
                              {'udi': 2,
                               'cause': 'pkey-violation',
                               'duration': 3.5000000000000004e-06,
                               'scrubbed_pages': 0}),
                             ('domain.execute', 'fault', 3.7e-06, {'udi': 2, 'retries': 0})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2,
                                'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                'histogram/sdrad_rewind_latency_seconds': (1,
                                                                           3.5000000000000004e-06)}},
 'mpk/retry/miss': {'entry': {'returned': (True, b'entry contract', None, 1,
                                           0.00010350000000000001, 0.00010390000000000002),
                              'clock': 0.00010390000000000002,
                              'writes': 4,
                              'stats': ('initialized', 2, 1, 1, 1, 1)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.rewind', 'ok', 0.0,
                               {'udi': 2,
                                'cause': 'pkey-violation',
                                'duration': 3.5000000000000004e-06,
                                'scrubbed_pages': 0}),
                              ('domain.execute', 'ok', 0.00010375000000000001, {'udi': 2})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2,
                                 'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                 'histogram/sdrad_rewind_latency_seconds': (1,
                                                                            3.5000000000000004e-06)}},
 'mpk/retry/hit': {'entry': {'returned': (True, b'entry contract', None, 1,
                                          0.00010350000000000001, 0.0001039),
                             'clock': 0.0001039,
                             'writes': 4,
                             'stats': ('initialized', 3, 2, 1, 1, 1)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.rewind', 'ok', 0.0,
                              {'udi': 2,
                               'cause': 'pkey-violation',
                               'duration': 3.5000000000000004e-06,
                               'scrubbed_pages': 0}),
                             ('domain.execute', 'ok', 0.00010375, {'udi': 2})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2,
                                'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                'histogram/sdrad_rewind_latency_seconds': (1,
                                                                           3.5000000000000004e-06)}},
 'mpk/abort/miss': {'entry': {'returned': ('ProcessCrashed',
                                           ('pkey-violation', 2, 1118208,
                                            'ProtectionKeyViolation',
                                            'protection-key violation: store at 0x111000 (page '
                                            'tagged pkey=1, PKRU denies)')),
                              'clock': 3.5000000000000004e-07,
                              'writes': 4,
                              'stats': ('faulted', 1, 0, 1, 0, 0)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.execute', 'crash', 1.9999999999999978e-07, {'udi': 2})],
                    'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2}},
 'mpk/abort/hit': {'entry': {'returned': ('ProcessCrashed',
                                          ('pkey-violation', 2, 1118208,
                                           'ProtectionKeyViolation',
                                           'protection-key violation: store at 0x111000 (page '
                                           'tagged pkey=1, PKRU denies)')),
                             'clock': 3.5000000000000004e-07,
                             'writes': 4,
                             'stats': ('faulted', 2, 1, 1, 0, 0)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.execute', 'crash', 1.9999999999999978e-07, {'udi': 2})],
                   'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2}},
 'mpk/logic/miss': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                              'clock': 3.5000000000000004e-07,
                              'writes': 4,
                              'stats': ('initialized', 1, 0, 0, 0, 0)},
                    'spans': [('domain.execute', 'error', 1.9999999999999978e-07, {'udi': 2})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domains_created_total': 2}},
 'mpk/logic/hit': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                             'clock': 3.5000000000000004e-07,
                             'writes': 4,
                             'stats': ('initialized', 2, 1, 0, 0, 0)},
                   'spans': [('domain.execute', 'error', 1.9999999999999978e-07, {'udi': 2})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domains_created_total': 2}},
 'mpk/reenter': (3.000000000000005e-07, 4),
 'cheri/ok/miss': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                          2.8999999999999976e-07),
                             'clock': 2.8999999999999976e-07,
                             'writes': 3,
                             'stats': ('initialized', 1, 1, 0, 0, 0)},
                   'spans': [('domain.execute', 'ok', 1.7000000000000007e-07, {'udi': 2})],
                   'counters': {'counter/sdrad_domain_entries_total': 2,
                                'counter/sdrad_domains_created_total': 2}},
 'cheri/ok/hit': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                         2.8999999999999976e-07),
                            'clock': 2.8999999999999976e-07,
                            'writes': 3,
                            'stats': ('initialized', 2, 2, 0, 0, 0)},
                  'spans': [('domain.execute', 'ok', 1.7000000000000007e-07, {'udi': 2})],
                  'counters': {'counter/sdrad_domain_entries_total': 3,
                               'counter/sdrad_domains_created_total': 2}},
 'cheri/fault/miss': {'entry': {'returned': (False, None,
                                             ('pkey-violation', 2, 1118208,
                                              'CapabilityViolation',
                                              'capability violation: store at 0x111000 (page '
                                              'sealed for domain tag 1, no installed '
                                              'capability)'),
                                             0, 3.4999999999999995e-06, 3.79e-06),
                                'clock': 3.79e-06,
                                'writes': 3,
                                'stats': ('initialized', 1, 0, 1, 1, 0)},
                      'spans': [('domain.fault', 'ok', 0.0,
                                 {'attempt': 1,
                                  'mechanism': 'pkey-violation',
                                  'udi': 2,
                                  'address': 1118208}),
                                ('domain.rewind', 'ok', 0.0,
                                 {'udi': 2,
                                  'cause': 'pkey-violation',
                                  'duration': 3.4999999999999995e-06,
                                  'scrubbed_pages': 0}),
                                ('domain.execute', 'fault', 3.6700000000000004e-06,
                                 {'udi': 2, 'retries': 0})],
                      'counters': {'counter/sdrad_domain_entries_total': 2,
                                   'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                   'counter/sdrad_domains_created_total': 2,
                                   'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                   'histogram/sdrad_rewind_latency_seconds': (1,
                                                                              3.4999999999999995e-06)}},
 'cheri/fault/hit': {'entry': {'returned': (False, None,
                                            ('pkey-violation', 2, 1118208,
                                             'CapabilityViolation',
                                             'capability violation: store at 0x111000 (page '
                                             'sealed for domain tag 1, no installed '
                                             'capability)'),
                                            0, 3.4999999999999995e-06, 3.79e-06),
                               'clock': 3.79e-06,
                               'writes': 3,
                               'stats': ('initialized', 2, 1, 1, 1, 0)},
                     'spans': [('domain.fault', 'ok', 0.0,
                                {'attempt': 1,
                                 'mechanism': 'pkey-violation',
                                 'udi': 2,
                                 'address': 1118208}),
                               ('domain.rewind', 'ok', 0.0,
                                {'udi': 2,
                                 'cause': 'pkey-violation',
                                 'duration': 3.4999999999999995e-06,
                                 'scrubbed_pages': 0}),
                               ('domain.execute', 'fault', 3.6700000000000004e-06,
                                {'udi': 2, 'retries': 0})],
                     'counters': {'counter/sdrad_domain_entries_total': 3,
                                  'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                  'counter/sdrad_domains_created_total': 2,
                                  'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                  'histogram/sdrad_rewind_latency_seconds': (1,
                                                                             3.4999999999999995e-06)}},
 'cheri/retry/miss': {'entry': {'returned': (True, b'entry contract', None, 1,
                                             0.00010350000000000001, 0.00010384000000000002),
                                'clock': 0.00010384000000000002,
                                'writes': 3,
                                'stats': ('initialized', 2, 1, 1, 1, 1)},
                      'spans': [('domain.fault', 'ok', 0.0,
                                 {'attempt': 1,
                                  'mechanism': 'pkey-violation',
                                  'udi': 2,
                                  'address': 1118208}),
                                ('domain.rewind', 'ok', 0.0,
                                 {'udi': 2,
                                  'cause': 'pkey-violation',
                                  'duration': 3.4999999999999995e-06,
                                  'scrubbed_pages': 0}),
                                ('domain.execute', 'ok', 0.00010372000000000002, {'udi': 2})],
                      'counters': {'counter/sdrad_domain_entries_total': 2,
                                   'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                   'counter/sdrad_domains_created_total': 2,
                                   'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                   'histogram/sdrad_rewind_latency_seconds': (1,
                                                                              3.4999999999999995e-06)}},
 'cheri/retry/hit': {'entry': {'returned': (True, b'entry contract', None, 1,
                                            0.00010350000000000001, 0.00010384000000000002),
                               'clock': 0.00010384000000000002,
                               'writes': 3,
                               'stats': ('initialized', 3, 2, 1, 1, 1)},
                     'spans': [('domain.fault', 'ok', 0.0,
                                {'attempt': 1,
                                 'mechanism': 'pkey-violation',
                                 'udi': 2,
                                 'address': 1118208}),
                               ('domain.rewind', 'ok', 0.0,
                                {'udi': 2,
                                 'cause': 'pkey-violation',
                                 'duration': 3.4999999999999995e-06,
                                 'scrubbed_pages': 0}),
                               ('domain.execute', 'ok', 0.00010372000000000002, {'udi': 2})],
                     'counters': {'counter/sdrad_domain_entries_total': 3,
                                  'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                  'counter/sdrad_domains_created_total': 2,
                                  'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                  'histogram/sdrad_rewind_latency_seconds': (1,
                                                                             3.4999999999999995e-06)}},
 'cheri/abort/miss': {'entry': {'returned': ('ProcessCrashed',
                                             ('pkey-violation', 2, 1118208,
                                              'CapabilityViolation',
                                              'capability violation: store at 0x111000 (page '
                                              'sealed for domain tag 1, no installed '
                                              'capability)')),
                                'clock': 2.8999999999999976e-07,
                                'writes': 3,
                                'stats': ('faulted', 1, 0, 1, 0, 0)},
                      'spans': [('domain.fault', 'ok', 0.0,
                                 {'attempt': 1,
                                  'mechanism': 'pkey-violation',
                                  'udi': 2,
                                  'address': 1118208}),
                                ('domain.execute', 'crash', 1.7000000000000007e-07,
                                 {'udi': 2})],
                      'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                   'counter/sdrad_domain_entries_total': 2,
                                   'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                   'counter/sdrad_domains_created_total': 2}},
 'cheri/abort/hit': {'entry': {'returned': ('ProcessCrashed',
                                            ('pkey-violation', 2, 1118208,
                                             'CapabilityViolation',
                                             'capability violation: store at 0x111000 (page '
                                             'sealed for domain tag 1, no installed '
                                             'capability)')),
                               'clock': 2.8999999999999976e-07,
                               'writes': 3,
                               'stats': ('faulted', 2, 1, 1, 0, 0)},
                     'spans': [('domain.fault', 'ok', 0.0,
                                {'attempt': 1,
                                 'mechanism': 'pkey-violation',
                                 'udi': 2,
                                 'address': 1118208}),
                               ('domain.execute', 'crash', 1.7000000000000007e-07, {'udi': 2})],
                     'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                  'counter/sdrad_domain_entries_total': 3,
                                  'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                  'counter/sdrad_domains_created_total': 2}},
 'cheri/logic/miss': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                                'clock': 2.8999999999999976e-07,
                                'writes': 3,
                                'stats': ('initialized', 1, 0, 0, 0, 0)},
                      'spans': [('domain.execute', 'error', 1.7000000000000007e-07,
                                 {'udi': 2})],
                      'counters': {'counter/sdrad_domain_entries_total': 2,
                                   'counter/sdrad_domains_created_total': 2}},
 'cheri/logic/hit': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                               'clock': 2.8999999999999976e-07,
                               'writes': 3,
                               'stats': ('initialized', 2, 1, 0, 0, 0)},
                     'spans': [('domain.execute', 'error', 1.7000000000000007e-07, {'udi': 2})],
                     'counters': {'counter/sdrad_domain_entries_total': 3,
                                  'counter/sdrad_domains_created_total': 2}},
 'cheri/reenter': (2.4000000000000024e-07, 3),
 'sfi/ok/miss': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                        5.400000000000067e-08),
                           'clock': 5.400000000000067e-08,
                           'writes': 3,
                           'stats': ('initialized', 1, 1, 0, 0, 0)},
                 'spans': [('domain.execute', 'ok', 5.400000000000067e-08, {'udi': 2})],
                 'counters': {'counter/sdrad_domain_entries_total': 2,
                              'counter/sdrad_domains_created_total': 2}},
 'sfi/ok/hit': {'entry': {'returned': (True, b'entry contract', None, 0, 0.0,
                                       5.400000000000067e-08),
                          'clock': 5.400000000000067e-08,
                          'writes': 3,
                          'stats': ('initialized', 2, 2, 0, 0, 0)},
                'spans': [('domain.execute', 'ok', 5.400000000000067e-08, {'udi': 2})],
                'counters': {'counter/sdrad_domain_entries_total': 3,
                             'counter/sdrad_domains_created_total': 2}},
 'sfi/fault/miss': {'entry': {'returned': (False, None,
                                           ('pkey-violation', 2, 1118208, 'SfiViolation',
                                            'SFI violation: masked store at 0x111000 (page in '
                                            'region 1, outside the active mask)'),
                                           0, 3.5000000000000004e-06, 3.5500000000000007e-06),
                              'clock': 3.5500000000000007e-06,
                              'writes': 3,
                              'stats': ('initialized', 1, 0, 1, 1, 0)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.rewind', 'ok', 0.0,
                               {'udi': 2,
                                'cause': 'pkey-violation',
                                'duration': 3.5000000000000004e-06,
                                'scrubbed_pages': 0}),
                              ('domain.execute', 'fault', 3.5500000000000007e-06,
                               {'udi': 2, 'retries': 0})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2,
                                 'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                 'histogram/sdrad_rewind_latency_seconds': (1,
                                                                            3.5000000000000004e-06)}},
 'sfi/fault/hit': {'entry': {'returned': (False, None,
                                          ('pkey-violation', 2, 1118208, 'SfiViolation',
                                           'SFI violation: masked store at 0x111000 (page in '
                                           'region 1, outside the active mask)'),
                                          0, 3.5000000000000004e-06, 3.5500000000000007e-06),
                             'clock': 3.5500000000000007e-06,
                             'writes': 3,
                             'stats': ('initialized', 2, 1, 1, 1, 0)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.rewind', 'ok', 0.0,
                              {'udi': 2,
                               'cause': 'pkey-violation',
                               'duration': 3.5000000000000004e-06,
                               'scrubbed_pages': 0}),
                             ('domain.execute', 'fault', 3.5500000000000007e-06,
                              {'udi': 2, 'retries': 0})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2,
                                'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                'histogram/sdrad_rewind_latency_seconds': (1,
                                                                           3.5000000000000004e-06)}},
 'sfi/retry/miss': {'entry': {'returned': (True, b'entry contract', None, 1,
                                           0.00010350000000000001, 0.000103604),
                              'clock': 0.000103604,
                              'writes': 3,
                              'stats': ('initialized', 2, 1, 1, 1, 1)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.rewind', 'ok', 0.0,
                               {'udi': 2,
                                'cause': 'pkey-violation',
                                'duration': 3.5000000000000004e-06,
                                'scrubbed_pages': 0}),
                              ('domain.execute', 'ok', 0.000103604, {'udi': 2})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2,
                                 'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                 'histogram/sdrad_rewind_latency_seconds': (1,
                                                                            3.5000000000000004e-06)}},
 'sfi/retry/hit': {'entry': {'returned': (True, b'entry contract', None, 1,
                                          0.00010350000000000001, 0.000103604),
                             'clock': 0.000103604,
                             'writes': 3,
                             'stats': ('initialized', 3, 2, 1, 1, 1)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.rewind', 'ok', 0.0,
                              {'udi': 2,
                               'cause': 'pkey-violation',
                               'duration': 3.5000000000000004e-06,
                               'scrubbed_pages': 0}),
                             ('domain.execute', 'ok', 0.000103604, {'udi': 2})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2,
                                'counter/sdrad_rewinds_total{cause="pkey-violation"}': 1,
                                'histogram/sdrad_rewind_latency_seconds': (1,
                                                                           3.5000000000000004e-06)}},
 'sfi/abort/miss': {'entry': {'returned': ('ProcessCrashed',
                                           ('pkey-violation', 2, 1118208, 'SfiViolation',
                                            'SFI violation: masked store at 0x111000 (page in '
                                            'region 1, outside the active mask)')),
                              'clock': 5.000000000000037e-08,
                              'writes': 3,
                              'stats': ('faulted', 1, 0, 1, 0, 0)},
                    'spans': [('domain.fault', 'ok', 0.0,
                               {'attempt': 1,
                                'mechanism': 'pkey-violation',
                                'udi': 2,
                                'address': 1118208}),
                              ('domain.execute', 'crash', 5.000000000000037e-08, {'udi': 2})],
                    'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                 'counter/sdrad_domains_created_total': 2}},
 'sfi/abort/hit': {'entry': {'returned': ('ProcessCrashed',
                                          ('pkey-violation', 2, 1118208, 'SfiViolation',
                                           'SFI violation: masked store at 0x111000 (page in '
                                           'region 1, outside the active mask)')),
                             'clock': 5.000000000000037e-08,
                             'writes': 3,
                             'stats': ('faulted', 2, 1, 1, 0, 0)},
                   'spans': [('domain.fault', 'ok', 0.0,
                              {'attempt': 1,
                               'mechanism': 'pkey-violation',
                               'udi': 2,
                               'address': 1118208}),
                             ('domain.execute', 'crash', 5.000000000000037e-08, {'udi': 2})],
                   'counters': {'counter/sdrad_crashes_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domain_faults_total{mechanism="pkey-violation"}': 1,
                                'counter/sdrad_domains_created_total': 2}},
 'sfi/logic/miss': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                              'clock': 5.000000000000037e-08,
                              'writes': 3,
                              'stats': ('initialized', 1, 0, 0, 0, 0)},
                    'spans': [('domain.execute', 'error', 5.000000000000037e-08, {'udi': 2})],
                    'counters': {'counter/sdrad_domain_entries_total': 2,
                                 'counter/sdrad_domains_created_total': 2}},
 'sfi/logic/hit': {'entry': {'returned': ('ValueError', 'logic error inside the domain'),
                             'clock': 5.000000000000037e-08,
                             'writes': 3,
                             'stats': ('initialized', 2, 1, 0, 0, 0)},
                   'spans': [('domain.execute', 'error', 5.000000000000037e-08, {'udi': 2})],
                   'counters': {'counter/sdrad_domain_entries_total': 3,
                                'counter/sdrad_domains_created_total': 2}},
 'sfi/reenter': (0.0, 3)}


@pytest.mark.parametrize("observed", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_entry_contract_pinned(backend, outcome, hit, observed):
    key = f"{backend}/{outcome}/{'hit' if hit else 'miss'}"
    record = _entry(backend, outcome, hit, observed)
    spans = record.pop("spans", None)
    counters = record.pop("counters", None)
    assert record == PINS[key]["entry"]
    if observed:
        assert spans == PINS[key]["spans"]
        assert counters == PINS[key]["counters"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestStateErrors:
    def test_destroyed_domain_is_rejected_before_any_charge(self, backend):
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(domain.udi, lambda h: None).ok
        domain.mark_destroyed()
        clock, writes = runtime.clock.now, runtime.space.gate.writes
        with pytest.raises(
            DomainStateError, match=f"^domain {domain.udi} is destroyed$"
        ):
            runtime.execute(domain.udi, lambda h: None)
        assert (runtime.clock.now, runtime.space.gate.writes) == (clock, writes)
        assert runtime.contexts.depth == 0

    def test_reentered_domain_unwinds_the_outer_entry(self, backend):
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        gate = runtime.space.gate
        before = gate.snapshot()
        clock, writes = runtime.clock.now, gate.writes

        def reenter(handle):
            runtime.execute(domain.udi, lambda h: None)

        with pytest.raises(
            DomainStateError, match=f"^domain {domain.udi} re-entered while active$"
        ):
            runtime.execute(domain.udi, reenter)
        assert gate.snapshot() == before
        assert runtime.contexts.depth == 0
        assert (runtime.clock.now - clock, gate.writes - writes) == PINS[
            f"{backend}/reenter"
        ]
        assert _stats(domain) == ("initialized", 1, 0, 0, 0, 0)


def _ids(obs):
    """The span and trace ids the hub hands out next, read through a
    probe root span that the cleared buffer has room for."""
    dropped = obs.buffer.dropped
    obs.buffer.clear()
    probe = obs.start_span("probe")
    obs.end_span(probe)
    obs.buffer.dropped = dropped
    return probe.span_id, probe.trace_id


def test_saturated_hub_advances_ids_and_drops_as_if_built():
    obs = Observability(span_capacity=2)
    seen = []
    outer = obs.start_span("request", client="c0")
    obs.event("fault", udi=1)
    obs.event("rewind", udi=1)  # fills the store
    inner = obs.start_span("domain.execute", udi=1)
    assert inner is DROPPED
    obs.event("rewind", udi=1)
    nested = obs.start_span("nested")
    assert nested is DROPPED
    obs.end_span(nested)
    obs.end_span(inner)
    obs.end_span(outer, status="fault")
    seen.append((len(obs.buffer), obs.buffer.dropped))
    root = obs.start_span("request", client="c1")
    assert root is DROPPED
    obs.event("fault", udi=2)
    obs.end_span(root)
    assert obs.event("shard.kill") is None
    seen.append((len(obs.buffer), obs.buffer.dropped))
    seen.append(_ids(obs))
    assert seen == [(2, 4), (2, 7), (10, 4)]
