"""Adversarial tests for the domain re-entry fast path.

An isolated entry closes the gate and grants the entered domain's key
alone, so a domain's first entry derives its gate value once, keeps it on
the ``Domain`` with one reusable handle, and every later entry replays it,
from any caller. The only event that invalidates it is a key-virtualisation
retag, which moves the domain to another key; key recycling and udi reuse
reach a new ``Domain`` object, which derives afresh, and policy flags are
read live at every entry. Each rule gets a scenario here that *goes wrong*
if the rule is broken: a stale entry would grant a foreign key, or skip a
newly required exit check. The batching tests pin the mid-batch fault
contract: a fault rewinds the (side-effect-free) batch and only the
offending request errors.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.errors import DomainStateError
from repro.sdrad.constants import DomainFlags
from repro.sdrad.detect import DetectionMechanism
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import snapshot


def _roundtrip(handle, payload: bytes = b"ok"):
    """Benign body: allocate, store, read back, free."""
    buf = handle.malloc(max(len(payload), 1))
    handle.store(buf, payload)
    out = bytes(handle.load_view(buf, len(payload)))
    handle.free(buf)
    return out


class TestFastPathEquivalence:
    """``reentry_cache=False`` must reproduce the slow path bit for bit."""

    def _run(self, reentry: bool):
        runtime = SdradRuntime(reentry_cache=reentry)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        outputs = []
        for i in range(50):
            payload = b"payload-%d" % i
            outputs.append(runtime.execute(domain.udi, _roundtrip, payload))
        return runtime, [r.value for r in outputs], [r.ok for r in outputs]

    def test_results_and_telemetry_identical(self):
        rt_on, values_on, oks_on = self._run(True)
        rt_off, values_off, oks_off = self._run(False)
        assert values_on == values_off
        assert oks_on == oks_off
        # The counters real hardware would see must not notice the cache.
        assert rt_on.space.pkru.writes == rt_off.space.pkru.writes
        assert rt_on.space.loads == rt_off.space.loads
        assert rt_on.space.stores == rt_off.space.stores
        assert rt_on.clock.now == rt_off.clock.now
        # And the cache actually engaged on the cached run.
        assert rt_on.reentry_hits == 49
        assert rt_on.reentry_misses == 1
        assert rt_off.reentry_hits == 0

    def test_fault_path_identical(self):
        def smash(handle):
            frame = handle.push_frame("victim")
            buf = frame.alloca(32)
            frame.write_buffer(buf, b"A" * 128)

        results = {}
        for reentry in (True, False):
            runtime = SdradRuntime(reentry_cache=reentry)
            domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            runtime.execute(domain.udi, _roundtrip)  # prime the entry
            result = runtime.execute(domain.udi, smash)
            results[reentry] = (
                result.ok,
                result.fault.mechanism,
                runtime.space.pkru.writes,
                runtime.clock.now,
                domain.stats.faults,
            )
        assert results[True] == results[False]
        assert results[True][0] is False

    def test_telemetry_exports_cache_counters(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, _roundtrip)
        runtime.execute(domain.udi, _roundtrip)
        memory = snapshot(runtime)["memory"]
        assert memory["reentry_cache_enabled"] is True
        assert memory["reentry_hits"] == 1
        assert memory["reentry_misses"] == 1


class TestEntryDerivedOnce:
    """A domain derives its entry once, whoever enters it."""

    def test_entries_from_root_and_from_another_domain_derive_once(self):
        runtime = SdradRuntime()
        outer = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        inner = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        gate = runtime.space.gate
        assert runtime.execute(outer.udi, _roundtrip).ok
        seen = []

        def body(handle):
            seen.append(gate.value)
            return _roundtrip(handle, b"inner")

        misses, hits = runtime.reentry_misses, runtime.reentry_hits
        assert runtime.execute(inner.udi, body).value == b"inner"
        nested = runtime.execute(
            outer.udi, lambda h: runtime.execute(inner.udi, body).value
        )
        assert nested.value == b"inner"
        # The nested entry replays what the entry from root derived.
        assert runtime.reentry_misses - misses == 1
        assert runtime.reentry_hits - hits == 2  # outer again, inner nested
        assert seen[0] == seen[1]
        assert runtime.contexts.depth == 0


class TestRetagInvalidation:
    """Key-virtualisation retag (rebind/evict) must clear a domain's entry.

    Without the clear, the gate value cached while the domain held its old
    physical key grants that key — which the evictor may have handed to a
    *different* domain — while the domain's own pages now carry a new key.
    The benign re-entry below would then fault (and silently alias another
    domain's pages into view).
    """

    def test_benign_reentry_after_eviction_churn(self):
        runtime = SdradRuntime(key_virtualization=True)
        domains = [runtime.domain_init() for _ in range(14)]
        for d in domains:  # bind every physical key, cache every entry
            assert runtime.execute(d.udi, _roundtrip).ok
        victim = domains[0]
        for d in domains[1:]:  # make the victim the LRU binding
            assert runtime.execute(d.udi, _roundtrip).ok
        extra = runtime.domain_init()
        assert runtime.execute(extra.udi, _roundtrip).ok  # evicts the victim
        assert not runtime.keys.is_bound(victim.udi)
        assert runtime.keys.stats.evictions >= 1
        assert victim.entry_gate is None  # the eviction retag cleared it
        # Re-entry rebinds the victim (another retag) and must re-derive.
        misses = runtime.reentry_misses
        result = runtime.execute(victim.udi, _roundtrip, b"still-mine")
        assert result.ok
        assert result.value == b"still-mine"
        assert runtime.reentry_misses == misses + 1


class TestDestroyInvalidation:
    """A domain created under a destroyed domain's udi is a new ``Domain``
    and derives its own entry, even when it gets another key.

    Were the predecessor's entry carried over, the successor would be
    entered with a gate that grants the predecessor's key and not its own.
    """

    def test_udi_reuse_with_different_geometry(self):
        runtime = SdradRuntime(key_virtualization=True)
        first = runtime.domain_init(udi=7, heap_size=256 * 1024)
        assert runtime.execute(first.udi, _roundtrip).ok  # entry cached
        runtime.domain_destroy(7)
        # Different heap size, so the successor's regions do not recycle
        # the predecessor's exact mappings.
        runtime.domain_init(udi=7, heap_size=64 * 1024)
        result = runtime.execute(7, _roundtrip, b"successor")
        assert result.ok
        assert result.value == b"successor"

    def test_udi_reuse_without_keyvirt(self):
        runtime = SdradRuntime()
        filler = runtime.domain_init()
        first = runtime.domain_init(udi=9, heap_size=256 * 1024)
        assert runtime.execute(first.udi, _roundtrip).ok
        runtime.domain_destroy(filler.udi)  # a lower key is free
        runtime.domain_retire(9)  # parked with its entry, not adoptable
        successor = runtime.domain_init(udi=9, heap_size=64 * 1024)
        assert successor.pkey != first.pkey
        result = runtime.execute(9, _roundtrip, b"successor")
        assert result.ok
        assert result.value == b"successor"


class TestKeyRecycling:
    """Freeing a key touches no live domain's entry; a key recycled into
    a new ``Domain`` derives afresh."""

    def test_direct_pkey_free_keeps_live_entries(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(domain.udi, _roundtrip).ok
        misses = runtime.reentry_misses
        pkey = runtime.space.pkeys.alloc()
        runtime.space.pkeys.free(pkey)
        assert runtime.execute(domain.udi, _roundtrip).ok
        assert runtime.reentry_misses == misses

    def test_destroying_a_sibling_keeps_live_entries(self):
        runtime = SdradRuntime()
        kept = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        doomed = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(kept.udi, _roundtrip).ok
        assert runtime.execute(doomed.udi, _roundtrip).ok
        misses, hits = runtime.reentry_misses, runtime.reentry_hits
        runtime.domain_destroy(doomed.udi)  # pkey_free of the sibling's key
        result = runtime.execute(kept.udi, _roundtrip, b"kept")
        assert result.value == b"kept"
        assert runtime.reentry_misses == misses
        assert runtime.reentry_hits == hits + 1

    @pytest.mark.parametrize("settled_by", ["lower-key", "other-shape"])
    def test_a_recycled_key_derives_afresh(self, settled_by, monkeypatch):
        """The parked domain's key goes to an init that does not adopt it
        (a lower key is free, or the shape differs): that domain derives
        its own entry; it replays nothing."""
        runtime = SdradRuntime()
        low = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        parked = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(low.udi, _roundtrip).ok
        assert runtime.execute(parked.udi, _roundtrip).ok
        if settled_by == "other-shape":
            heap_size = 2 * parked.heap_size  # takes the parked key itself
        else:
            heap_size = parked.heap_size
            runtime.domain_destroy(low.udi)  # frees the lower key
        runtime.domain_retire(parked.udi)
        derived = []
        apply_domain_gate = runtime._apply_domain_gate
        monkeypatch.setattr(
            runtime,
            "_apply_domain_gate",
            lambda domain: derived.append(domain) or apply_domain_gate(domain),
        )
        fresh = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT, heap_size=heap_size
        )
        assert runtime._parked is None  # settled, not adopted
        assert fresh.entry_gate is None
        misses = runtime.reentry_misses
        result = runtime.execute(fresh.udi, _roundtrip, b"fresh")
        assert result.value == b"fresh"
        assert derived == [fresh]
        assert runtime.reentry_misses == misses + 1


class TestPolicyChangeInvalidation:
    """Policy flags are read at every entry, so a newly enabled exit check
    applies at once to a domain whose entry is cached."""

    def test_check_heap_applies_after_flag_change(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        # Entry cached while CHECK_HEAP_ON_EXIT is off.
        assert runtime.execute(domain.udi, _roundtrip).ok
        runtime.set_domain_flags(
            domain.udi,
            DomainFlags.RETURN_TO_PARENT | DomainFlags.CHECK_HEAP_ON_EXIT,
        )

        def corrupt(handle):
            # Smash the allocator guard and leave the block allocated, so
            # only the exit-time heap sweep can notice.
            buf = handle.malloc(16)
            capacity = handle.capacity(buf)
            handle.store(buf, b"A" * (capacity + 8))
            return None

        result = runtime.execute(domain.udi, corrupt)
        assert not result.ok
        assert result.fault.mechanism is DetectionMechanism.HEAP_INTEGRITY

    def test_flag_change_rejected_while_entered(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

        def reconfigure(handle):
            runtime.set_domain_flags(domain.udi, DomainFlags.DEFAULT)

        with pytest.raises(DomainStateError):
            runtime.execute(domain.udi, reconfigure).unwrap()


class TestBatchFaultContainment:
    """``handle_batch``: a fault mid-batch errors only the offender."""

    def _server(self) -> MemcachedServer:
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("c")
        return server

    def test_only_offender_errors(self):
        server = self._server()
        batch = [
            b"set alpha 0 0 5\r\nhello\r\n",
            b"get " + b"K" * 300 + b"\r\n",  # stack smash mid-batch
            b"set beta 0 0 2\r\nhi\r\n",
            b"get alpha\r\n",
        ]
        responses = server.handle_batch("c", batch)
        assert len(responses) == len(batch)
        assert responses[0] == b"STORED\r\n"
        assert responses[1].startswith(b"SERVER_ERROR")
        assert responses[2] == b"STORED\r\n"
        assert responses[3] == b"VALUE alpha 0 5\r\nhello\r\nEND\r\n"
        # The rewound batch applied nothing; the fallback applied each
        # surviving request exactly once.
        assert server.store.get(b"alpha") == (b"hello", 0)
        assert server.store.get(b"beta") == (b"hi", 0)
        assert server.metrics.rewinds == 1
        assert server.metrics.server_errors == 1

    def test_clean_batch_matches_serial_handling(self):
        batched = self._server()
        serial = self._server()
        requests = [
            b"set k%d 0 0 4\r\nv%03d\r\n" % (i, i) for i in range(8)
        ] + [b"get k%d\r\n" % i for i in range(8)]
        batch_responses = batched.handle_batch("c", requests)
        serial_responses = [serial.handle("c", raw) for raw in requests]
        assert batch_responses == serial_responses
        assert batched.metrics.requests == serial.metrics.requests

    def test_multiget_in_batch(self):
        server = self._server()
        server.handle("c", b"set a 0 0 1\r\nx\r\n")
        server.handle("c", b"set b 0 0 1\r\ny\r\n")
        (response,) = server.handle_batch("c", [b"get a b missing\r\n"])
        assert response == (
            b"VALUE a 0 1\r\nx\r\nVALUE b 0 1\r\ny\r\nEND\r\n"
        )


#: Every response the text protocol may legitimately begin with.
_RESPONSE_PREFIXES = (
    b"ERROR",
    b"CLIENT_ERROR",
    b"SERVER_ERROR",
    b"STORED",
    b"NOT_STORED",
    b"NOT_FOUND",
    b"DELETED",
    b"VALUE",
    b"END",
    b"STAT",
    b"-",
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"6",
    b"7",
    b"8",
    b"9",
)


class TestParserFuzz:
    """Random bytes through the isolated parser: the only acceptable
    outcomes are protocol errors or contained faults — never an uncaught
    exception, never a write that reaches root memory."""

    def test_random_requests_are_contained(self):
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("fuzz")
        server.store.set(b"sentinel", b"untouched", 0)
        rng = random.Random(0xE4)
        prefixes = (b"", b"get ", b"set ", b"delete ", b"incr ", b"stats")
        for _ in range(250):
            raw = (
                rng.choice(prefixes)
                + bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
                + rng.choice((b"", b"\r\n", b"\r\n\r\n"))
            )
            response = server.handle("fuzz", raw)
            assert isinstance(response, bytes) and response
            assert response.startswith(_RESPONSE_PREFIXES), raw
        assert server.store.get(b"sentinel") == (b"untouched", 0)

    def test_random_batches_are_contained(self):
        runtime = SdradRuntime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("fuzz")
        server.store.set(b"sentinel", b"untouched", 0)
        rng = random.Random(0xBA7C4)
        for _ in range(40):
            batch = []
            for _ in range(rng.randrange(1, 6)):
                key = bytes(rng.randrange(33, 127) for _ in range(rng.randrange(1, 300)))
                batch.append(
                    rng.choice((b"get %s\r\n", b"delete %s\r\n")) % key
                )
            responses = server.handle_batch("fuzz", batch)
            assert len(responses) == len(batch)
            for response in responses:
                assert response.startswith(_RESPONSE_PREFIXES)
        assert server.store.get(b"sentinel") == (b"untouched", 0)
