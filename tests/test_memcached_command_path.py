"""The trusted-side command path: parser tuples, ``_apply_all`` dispatch, store.

* a differential test: random pipelines through ``handle_batch`` on one
  server and per-request ``handle`` on a twin must agree on every response
  and counter, and both must match a plain-dict model of the store;
* pinned outputs of a seeded 500-pipeline run, through ``handle_batch``
  and through per-request ``handle``, on mpk, cheri and sfi, so a faster
  command path cannot move a response, a counter, a checked access or the
  clock (on SFI every checked load and store is taxed on the clock);
* an invalid key reaching ``KVStore.get``/``get_many`` raises before any
  counter, LRU move or charge;
* an item above the largest slab class is refused with ``CLIENT_ERROR``
  before anything is freed or evicted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import KVStore
from repro.apps.memcached_server import MemcachedServer
from repro.errors import AllocationFailure, SdradError
from repro.fleet.balancer import Fleet
from repro.fleet.health import HealthMonitor
from repro.sdrad.runtime import SdradRuntime

BACKENDS = ("mpk", "cheri", "sfi")
TOO_LARGE = b"CLIENT_ERROR object too large for cache\r\n"

# ----------------------------------------------------------------------
# Differential test: handle_batch vs per-request handle vs a dict model
# ----------------------------------------------------------------------

#: Valid keys, including one at the 250-byte protocol limit.
VALID_KEYS = (b"a", b"b", b"key-1", b"n", b"k" * 250)
#: Over the protocol limit but inside the 256-byte stack buffer: the parser
#: survives and rejects the command.
LONG_KEY = b"k" * 251
#: Over the stack buffer: smashes the canary, the domain rewinds.
SMASH_KEY = b"K" * 265

keys = st.sampled_from(VALID_KEYS)
values = st.one_of(
    st.binary(max_size=48), st.integers(0, 10**6).map(lambda n: b"%d" % n)
)


def _get(key_list):
    raw = b"get " + b" ".join(key_list) + b"\r\n"
    return raw, ("get", tuple(key_list))


def _store(op, key, flags, value):
    raw = b"%s %s %d 0 %d\r\n%s\r\n" % (op, key, flags, len(value), value)
    return raw, (op.decode(), key, flags & 0xFFFF, value)


well_formed = st.one_of(
    st.builds(lambda k: _get([k]), keys),
    st.builds(_get, st.lists(keys, min_size=2, max_size=5)),
    st.builds(
        _store,
        st.sampled_from((b"set", b"add", b"replace")),
        keys,
        st.integers(-3, 0x1FFFF),
        values,
    ),
    st.builds(
        lambda op, k, d: (b"%s %s %d\r\n" % (op, k, d), (op.decode(), k, d)),
        st.sampled_from((b"incr", b"decr")),
        keys,
        st.integers(0, 50),
    ),
    st.builds(lambda k: (b"delete %s\r\n" % k, ("delete", k)), keys),
    st.just((b"stats\r\n", ("stats",))),
)

#: Requests the server must refuse without touching the store.
malformed = st.sampled_from(
    (
        b"get a",  # no \r\n
        b"get\r\n",
        b"bogus a\r\n",
        b"set a 0 0\r\nx\r\n",
        b"incr a\r\n",
        b"delete a b\r\n",
        b"set a 0 0 -1\r\nx\r\n",
        b"set a x 0 1\r\nx\r\n",
        b"set a 0 y 1\r\nx\r\n",
        b"incr a -1\r\n",
        b"decr a z\r\n",
        b"get  a\r\n",  # double space: an empty key
        b"delete  a\r\n",
        b"set  a 0 0 1\r\nx\r\n",
        b"get a\rb\r\n",  # lone \r / \n inside a key
        b"get a\nb\r\n",
        b"get a a\rb\r\n",
        b"delete a\nb\r\n",
        b"incr a\rb 1\r\n",
        b"set a\rb 0 0 1\r\nx\r\n",
        b"add a\nb 0 0 1\r\nx\r\n",
        b"get " + LONG_KEY + b"\r\n",
        b"get a " + LONG_KEY + b"\r\n",
        b"set " + LONG_KEY + b" 0 0 1\r\nx\r\n",
        b"delete " + LONG_KEY + b"\r\n",
        b"get " + SMASH_KEY + b"\r\n",
        b"incr " + SMASH_KEY + b" 1\r\n",
    )
).map(lambda raw: (raw, None))

requests = st.one_of(well_formed, well_formed, malformed)
pipelines = st.lists(st.lists(requests, min_size=1, max_size=12), min_size=1, max_size=6)


def _model_apply(model: dict, op: tuple) -> bytes:
    """Expected response of a well-formed command; updates ``model``."""
    kind = op[0]
    if kind == "get":
        blocks = [
            b"VALUE %s %d %d\r\n%s\r\n" % (key, model[key][1], len(model[key][0]), model[key][0])
            for key in op[1]
            if key in model
        ]
        return b"".join(blocks) + b"END\r\n"
    if kind in ("set", "add", "replace"):
        _, key, flags, value = op
        if (kind == "add" and key in model) or (kind == "replace" and key not in model):
            return b"NOT_STORED\r\n"
        model[key] = (value, flags)
        return b"STORED\r\n"
    if kind in ("incr", "decr"):
        _, key, delta = op
        if key not in model:
            return b"NOT_FOUND\r\n"
        value, flags = model[key]
        try:
            current = int(value)
        except ValueError:
            return b"NOT_FOUND\r\n"
        if current < 0:
            return b"NOT_FOUND\r\n"
        new = max(0, current + (delta if kind == "incr" else -delta))
        model[key] = (b"%d" % new, flags)
        return b"%d\r\n" % new
    if kind == "delete":
        return b"DELETED\r\n" if model.pop(op[1], None) is not None else b"NOT_FOUND\r\n"
    return None  # stats: the body reads store counters, compared below


def _trusted_time(server: MemcachedServer) -> list:
    """Track the virtual time spent inside domains; the rest is trusted-side."""
    runtime = server.runtime
    inside = [0.0]
    execute = runtime.execute

    def timed(*args, **kwargs):
        started = runtime.clock.now
        try:
            return execute(*args, **kwargs)
        finally:
            inside[0] += runtime.clock.now - started

    runtime.execute = timed
    return inside


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches=pipelines)
def test_batch_and_per_request_agree_with_model(backend, batches):
    batched = MemcachedServer(SdradRuntime(backend=backend))
    single = MemcachedServer(SdradRuntime(backend=backend))
    batched.connect("c")
    single.connect("c")
    in_batched = _trusted_time(batched)
    in_single = _trusted_time(single)
    model: dict = {}
    for batch in batches:
        raws = [raw for raw, _ in batch]
        got = batched.handle_batch("c", raws)
        assert got == [single.handle("c", raw) for raw in raws]
        for (raw, op), response in zip(batch, got):
            if op is None:
                assert response.startswith((b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")), raw
                if SMASH_KEY in raw:
                    assert response.startswith(b"SERVER_ERROR"), raw
            elif op[0] == "stats":
                assert response.startswith(b"STAT cmd_get ") and response.endswith(b"END\r\n")
            else:
                assert response == _model_apply(model, op), raw
    assert batched.store.stats == single.store.stats
    assert batched.metrics == single.metrics
    # Gate entries differ (one per pipeline vs one per request); the
    # trusted-side time -- every store charge -- must not.
    assert batched.runtime.clock.now - in_batched[0] == pytest.approx(
        single.runtime.clock.now - in_single[0], rel=1e-12, abs=1e-15
    )
    for server in (batched, single):
        store = server.store
        assert sorted(store.keys()) == sorted(model)
        assert {key: store.get(key) for key in model} == model


# ----------------------------------------------------------------------
# Pinned outputs of a seeded handle_batch run
# ----------------------------------------------------------------------


def _seeded_pipelines(seed: int, count: int = 500, batch: int = 16) -> list:
    rng = random.Random(seed)
    pool = [b"key-%03d" % i for i in range(64)]
    out = []
    for _ in range(count):
        raws = []
        for _ in range(batch):
            draw = rng.random()
            key = rng.choice(pool)
            if draw < 0.55:
                raws.append(b"get %s\r\n" % key)
            elif draw < 0.65:
                raws.append(b"get " + b" ".join(rng.sample(pool, rng.randint(2, 6))) + b"\r\n")
            elif draw < 0.80:
                op = rng.choice((b"set", b"add", b"replace"))
                value = b"%d" % rng.randrange(10**6)
                flags = rng.randrange(1 << 16)
                raws.append(b"%s %s %d 0 %d\r\n%s\r\n" % (op, key, flags, len(value), value))
            elif draw < 0.87:
                op = rng.choice((b"incr", b"decr"))
                raws.append(b"%s %s %d\r\n" % (op, key, rng.randrange(100)))
            elif draw < 0.95:
                raws.append(b"delete %s\r\n" % key)
            elif draw < 0.97:
                raws.append(b"stats\r\n")
            elif draw < 0.99:
                raws.append(rng.choice((b"get", b"bogus\r\n", b"get  %s\r\n" % key)))
            else:
                raws.append(b"get " + SMASH_KEY + b"\r\n")  # rewind + fallback
        out.append(raws)
    return out


def pipeline_outputs(seed: int = 2023, backend: str = "mpk", batched: bool = True) -> tuple:
    """Digest, clock and counters of 500 pipelines from 4 clients, served
    by ``handle_batch`` or, with ``batched=False``, one ``handle`` each."""
    runtime = SdradRuntime(backend=backend)
    server = MemcachedServer(runtime)
    for client in range(4):
        server.connect(f"c{client}")
    digest = hashlib.blake2b(digest_size=16)
    for index, raws in enumerate(_seeded_pipelines(seed)):
        client = f"c{index % 4}"
        if batched:
            responses = server.handle_batch(client, raws)
        else:
            responses = [server.handle(client, raw) for raw in raws]
        for response in responses:
            digest.update(response)
    space = runtime.space
    return (
        digest.hexdigest(),
        runtime.clock.now,
        space.loads,
        space.stores,
        space.tlb_hits,
        space.plans.hits,
        dataclasses.astuple(server.store.stats),
        dataclasses.astuple(server.metrics),
    )


#: Outputs as (digest, clock, loads, stores, tlb_hits, plan hits,
#: StoreStats, ServerMetrics). The mpk batched entry was recorded from the
#: dataclass-based command path the tuple one replaced; the others from the
#: per-command parse and apply calls the command loops replaced. Every
#: backend and both paths answer the same bytes and count the same.
_DIGEST = "b1e46dcf7e7ce27a15a231b68b97f42a"
_STORE_STATS = (7585, 1055, 589, 4078, 3507, 0, 0)
_METRICS = (8000, 7755, 163, 82, 82, 0, 0, 0, {"c2": 21, "c0": 17, "c1": 22, "c3": 22})
#: ``(backend, batched)`` -> (clock, loads, stores, tlb_hits, plan hits).
_MEASURED = {
    ("mpk", True): (0.10722900000000098, 1312, 12946, 14258, 0),
    ("mpk", False): (0.10883010000001686, 1131, 11226, 12357, 0),
    ("cheri", True): (0.10711804000000485, 1312, 12946, 14258, 0),
    ("cheri", False): (0.10834210000003326, 1131, 11226, 12357, 0),
    ("sfi", True): (0.10673231599999616, 1312, 12946, 14258, 0),
    ("sfi", False): (0.10644441399998829, 1131, 11226, 12357, 0),
}
_PINNED = {
    key: (_DIGEST, *measured, _STORE_STATS, _METRICS) for key, measured in _MEASURED.items()
}


def test_pipeline_outputs_pinned():
    assert pipeline_outputs() == _PINNED["mpk", True]


@pytest.mark.parametrize(
    "backend, batched",
    [key for key in _MEASURED if key != ("mpk", True)],
    ids=lambda value: {True: "batch", False: "per-request"}.get(value, value),
)
def test_twin_pipeline_outputs_pinned(backend, batched):
    assert pipeline_outputs(backend=backend, batched=batched) == _PINNED[backend, batched]


# ----------------------------------------------------------------------
# Key check: an invalid key raises before any effect
# ----------------------------------------------------------------------

#: Empty, over the protocol limit, and bearing each protocol delimiter.
BAD_KEYS = (b"", b"k" * 251, b"a b", b"a\rb", b"a\nb")


def _store_state(store: KVStore) -> tuple:
    return dataclasses.astuple(store.stats), store.keys(), store.runtime.clock.now


@pytest.mark.parametrize("bad", BAD_KEYS, ids=("empty", "251-bytes", "space", "cr", "lf"))
@pytest.mark.parametrize("call", ("get", "get_many"))
def test_invalid_key_raises_before_any_effect(call, bad):
    store = KVStore(SdradRuntime())
    for i in range(8):
        store.set(b"k%d" % i, b"v%d" % i)
    store.get(b"k2")  # LRU order is no longer insertion order
    before = _store_state(store)
    with pytest.raises(SdradError):
        if call == "get":
            store.get(bad)
        else:
            store.get_many([bad, b"k1"])
    assert _store_state(store) == before


# ----------------------------------------------------------------------
# Items above the largest slab class
# ----------------------------------------------------------------------

BIG_SET = b"set big 0 0 20000\r\n" + b"x" * 20000 + b"\r\n"


def _preloaded_server() -> MemcachedServer:
    server = MemcachedServer(SdradRuntime())
    server.connect("c")
    for i in range(1000):
        server.store.set(b"k%d" % i, b"v%d" % i)
    server.store.set(b"big", b"old")
    return server


def _assert_untouched(store: KVStore) -> None:
    assert store.item_count == 1001
    assert store.stats.evictions == 0
    assert store.get(b"big") == (b"old", 0)
    assert store.get(b"k0") == (b"v0", 0)


def test_store_rejects_oversized_item_before_evicting():
    store = _preloaded_server().store
    with pytest.raises(AllocationFailure, match="exceeds largest slab class"):
        store.set(b"big", b"x" * 20000)
    _assert_untouched(store)


def test_oversized_set_through_handle():
    server = _preloaded_server()
    assert server.handle("c", BIG_SET) == TOO_LARGE
    assert server.metrics.client_errors == 1
    _assert_untouched(server.store)


def test_oversized_set_through_handle_batch():
    server = _preloaded_server()
    responses = server.handle_batch("c", [b"get big\r\n", BIG_SET, b"get big\r\n"])
    old = b"VALUE big 0 3\r\nold\r\nEND\r\n"
    assert responses == [old, TOO_LARGE, old]
    assert server._batch_pipelined  # parsed in one entry, no fallback
    _assert_untouched(server.store)


def test_oversized_set_through_fleet_is_not_a_shard_failure():
    fleet = Fleet(2)
    monitor = HealthMonitor(fleet)
    failures = []
    monitor.on_failure = failures.append
    assert fleet.set(b"big", b"old") == b"STORED\r\n"
    assert fleet.set(b"big", b"x" * 20000) == TOO_LARGE
    assert failures == [] and fleet.last_op_failed == []
    assert fleet.metrics.errors == 0
    assert fleet.get(b"big") == b"VALUE big 0 3\r\nold\r\nEND\r\n"


# ----------------------------------------------------------------------
# A set whose size class owns no slab page
# ----------------------------------------------------------------------


def _full_store(arena_size: int, items: int, value: bytes) -> KVStore:
    """A store whose arena has handed every slab page to one class."""
    store = KVStore(SdradRuntime(), arena_size=arena_size)
    for i in range(items):
        store.set(b"k%07d" % i, value)
    assert store.slabs.resident_bytes() == arena_size
    assert store.stats.evictions == 0
    return store


FULL_STORES = {
    # Every one of the 64 pages full of 64-byte chunks (910 a page).
    "4MiB": (4 * 1024 * 1024, 58_240, b"v" * 20),
    # 40-byte items: the last one opens the fourth and last page.
    "256KiB": (256 * 1024, 2_731, b"v" * 24),
}


@pytest.mark.parametrize("case", FULL_STORES)
def test_set_into_a_class_without_a_page_evicts_nothing(case):
    arena_size, items, value = FULL_STORES[case]
    store = _full_store(arena_size, items, value)
    with pytest.raises(AllocationFailure, match="slab arena exhausted"):
        store.set(b"big", b"x" * 2000)
    assert store.item_count == items
    assert store.stats.evictions == 0
    assert store.get(b"k0000000") == (value, 0)


def test_set_into_a_class_without_a_page_through_handle():
    arena_size, items, value = FULL_STORES["256KiB"]
    store = _full_store(arena_size, items, value)
    server = MemcachedServer(store.runtime, store=store)
    server.connect("c")
    assert server.handle("c", b"set big 0 0 2000\r\n" + b"x" * 2000 + b"\r\n") == TOO_LARGE
    assert store.item_count == items
    assert server.handle("c", b"get k0000000\r\n") == b"VALUE k0000000 0 24\r\n%s\r\nEND\r\n" % value
