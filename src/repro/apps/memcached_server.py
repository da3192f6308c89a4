"""A Memcached-like server with SDRaD-isolated request parsing.

Mirrors the paper's Memcached retrofit: client input is parsed by
"C-style" code — fixed stack buffers, trust in client-declared lengths —
inside an SDRaD domain, while the database (:class:`~repro.apps.kvstore.
KVStore`) lives in root memory. A malicious request corrupts only its own
domain; SDRaD rewinds it and the server answers ``SERVER_ERROR`` to that
client while every other client proceeds untouched (experiment E4).

Supported protocol subset (text protocol)::

    set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
    get <key>\r\n
    delete <key>\r\n
    stats\r\n

Deliberate parser vulnerabilities (the attack surface):

* the key token is copied into a 256-byte stack buffer without a bounds
  check — an over-long key smashes the stack canary;
* the value buffer is allocated from the *client-declared* ``<bytes>``
  field but filled with the *actual* payload — a length lie overflows the
  heap block and smashes the allocator guard.

The serving half — connections, isolation modes, rewind and watchdog
accounting, pipelined batches — is :class:`~repro.apps.serving.
DomainServer`; this module adds only the parsers and the trusted-side
apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import AllocationFailure, SdradError
from ..sdrad.runtime import DomainHandle, SdradRuntime
from ..sdrad.watchdog import FaultWatchdog
from .kvstore import KVStore, MAX_KEY_LEN
from .serving import DomainServer, IsolationMode

__all__ = ["IsolationMode", "MemcachedServer", "ServerMetrics"]

KEY_STACK_BUFFER = 256


@dataclass
class ServerMetrics:
    requests: int = 0
    ok: int = 0
    client_errors: int = 0
    server_errors: int = 0
    rewinds: int = 0
    crashes: int = 0
    quarantines: int = 0
    quarantine_refusals: int = 0
    per_client_faults: dict[str, int] = field(default_factory=dict)


def _parse_in_domain(handle: DomainHandle, raw: bytes) -> Optional[tuple]:
    """The "unsafe C parser" running inside the client's domain.

    Faithfully unsafe: the key copy trusts token length, the value buffer
    trusts the declared byte count. Both bugs corrupt only domain memory.
    """
    line_end = raw.find(b"\r\n")
    if line_end < 0:
        return None
    parts = raw[:line_end].split(b" ")

    frame = handle.push_frame("process_command")
    try:
        return _parse_parts(handle, frame, None, parts, raw, line_end)
    finally:
        handle.pop_frame(frame)


def _parse_parts(
    handle: DomainHandle,
    frame,
    key_buf: Optional[int],
    parts: list,
    raw: bytes,
    line_end: int,
) -> Optional[tuple]:
    """Parse one split command line inside an already-open stack frame.

    Returns a plain tuple, or ``None`` for a malformed line:
    ``(b"get", key, ...)`` with one entry per requested key,
    ``(op, key, flags, value)`` for set/add/replace, ``(op, key, delta)``
    for incr/decr, ``(b"delete", key)`` and ``(b"stats",)``. ``get``, most
    of the traffic, is tested first.

    ``key_buf`` is ``None`` on the per-request path (each command allocas
    its own buffer, the seed behaviour) and a pre-alloca'd buffer on the
    batch path, where every command of the pipeline strcpy's into the same
    stack slot — the same reuse idiom as a multi-key ``get``.
    """
    command = parts[0]
    if command == b"get":
        if len(parts) < 2:
            return None
        keys = parts[1:]
        # Each key of a multi-key get is "strcpy'd" into the same fixed
        # stack buffer in turn — BUG 1 fires for any over-long key in
        # the pipeline, exactly as for a single-key get.
        if key_buf is None:
            key_buf = frame.alloca(KEY_STACK_BUFFER)
        for key in keys:
            frame.write_buffer(key_buf, key + b"\x00")
        if max(map(len, keys)) > MAX_KEY_LEN:
            return None
        if len(keys) == 1:
            return (command, bytes(keys[0]))
        return (command, *[bytes(key) for key in keys])
    if command in (b"set", b"add", b"replace"):
        if len(parts) != 5:
            return None
        key = parts[1]
        # BUG 1: strcpy-style copy into a fixed stack buffer.
        if key_buf is None:
            key_buf = frame.alloca(KEY_STACK_BUFFER)
        frame.write_buffer(key_buf, key + b"\x00")
        try:
            flags = int(parts[2])
            int(parts[3])  # exptime parsed but unused in the subset
            declared = int(parts[4])
        except ValueError:
            return None
        if declared < 0:
            return None
        data = raw[line_end + 2 :]
        if data.endswith(b"\r\n"):
            data = data[:-2]
        # BUG 2: allocation sized by the *declared* length, filled with
        # the *actual* payload.
        value_buf = handle.malloc(max(declared, 1))
        handle.store(value_buf, data)
        # Zero-copy read-back: the view runs the same checked-access
        # path as ``load`` (same TLB verdicts, same counters) but the
        # only copy is the one materialising the trusted-side value.
        value = bytes(handle.load_view(value_buf, min(declared, len(data))))
        handle.free(value_buf)
        if len(key) > MAX_KEY_LEN:
            return None  # reached only if the overflow was survivable
        return (command, bytes(key), flags, value)
    if command in (b"incr", b"decr"):
        if len(parts) != 3:
            return None
        key = parts[1]
        if key_buf is None:
            key_buf = frame.alloca(KEY_STACK_BUFFER)
        frame.write_buffer(key_buf, key + b"\x00")
        try:
            delta = int(parts[2])
        except ValueError:
            return None
        if delta < 0 or len(key) > MAX_KEY_LEN:
            return None
        return (command, bytes(key), delta)
    if command == b"delete":
        if len(parts) != 2:
            return None
        key = parts[1]
        if key_buf is None:
            key_buf = frame.alloca(KEY_STACK_BUFFER)
        frame.write_buffer(key_buf, key + b"\x00")
        if len(key) > MAX_KEY_LEN:
            return None
        return (command, bytes(key))
    if command == b"stats":
        return (command,)
    return None


def _parse_batch_in_domain(
    handle: DomainHandle, raws: list[bytes]
) -> list[Optional[tuple]]:
    """Parse a whole request pipeline inside one domain entry.

    The batch parser is one "C function": a single activation record whose
    locals are reused across the pipeline loop, exactly like memcached's
    connection event loop (and like a multi-key ``get`` reuses one key
    buffer). Every command still strcpy's its key into a canary-guarded
    stack buffer and every value still round-trips the domain heap, so the
    per-request attack surface is unchanged — an over-long key anywhere in
    the pipeline smashes the shared frame's canary, the epilogue check
    trips when the batch parse returns, and the whole (unapplied) batch is
    rewound; the server then falls back to per-request handling so only
    the offender errors.
    """
    frame = handle.push_frame("process_batch")
    try:
        key_buf = frame.alloca(KEY_STACK_BUFFER)
        out = []
        append = out.append
        for raw in raws:
            line_end = raw.find(b"\r\n")
            if line_end < 0:
                append(None)
                continue
            parts = raw[:line_end].split(b" ")
            append(_parse_parts(handle, frame, key_buf, parts, raw, line_end))
        return out
    finally:
        handle.pop_frame(frame)


class MemcachedServer(DomainServer):
    """The server: the shared serving core applying commands to a KVStore."""

    app = "memcached"
    REFUSED = b"SERVER_ERROR client quarantined\r\n"
    DISCARDED = b"SERVER_ERROR domain fault (request discarded)\r\n"
    _parse = staticmethod(_parse_in_domain)
    _parse_batch = staticmethod(_parse_batch_in_domain)
    # Bound in this class's own namespace, not only inherited: the traced
    # benchmark run (bench/layers.py) wraps the request entry points it
    # finds in ``vars(MemcachedServer)`` as the ``apps`` layer.
    handle = DomainServer.handle
    handle_batch = DomainServer.handle_batch

    def __init__(
        self,
        runtime: SdradRuntime,
        store: Optional[KVStore] = None,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        domain_heap_size: int = 128 * 1024,
        watchdog: Optional[FaultWatchdog] = None,
    ) -> None:
        self.store = store if store is not None else KVStore(runtime)
        self.metrics = ServerMetrics()
        super().__init__(runtime, isolation, domain_heap_size, watchdog)

    def _discard(self) -> bytes:
        self.metrics.server_errors += 1
        return self.DISCARDED

    def _apply(self, parsed: Optional[tuple]) -> bytes:
        """Trusted-side application of a successfully parsed command.

        ``parsed`` is ``_parse_parts``'s tuple, or ``None`` for a line the
        parser rejected. No branch answers ``SERVER_ERROR``: the pipelined
        obs path and the fleet's health accounting rely on that.
        """
        if parsed is None:
            self.metrics.client_errors += 1
            return b"ERROR\r\n"
        op = parsed[0]
        if op == b"get":
            try:
                if len(parsed) == 2:
                    key = parsed[1]
                    hit = self.store.get(key)
                    self.metrics.ok += 1
                    if hit is None:
                        return b"END\r\n"
                    value, flags = hit
                    return b"VALUE %s %d %d\r\n%s\r\nEND\r\n" % (key, flags, len(value), value)
                # Multi-key get: one batched store lookup for the whole
                # request (memcached's ``get k1 k2 ...``).
                keys = parsed[1:]
                hits = self.store.get_many(list(keys))
            except SdradError:
                self.metrics.client_errors += 1
                return b"CLIENT_ERROR bad key\r\n"
            self.metrics.ok += 1
            chunks = []
            for key in keys:
                item = hits.get(key)
                if item is not None:
                    value, flags = item
                    chunks.append(b"VALUE %s %d %d\r\n%s\r\n" % (key, flags, len(value), value))
            chunks.append(b"END\r\n")
            return b"".join(chunks)
        if op in (b"set", b"add", b"replace"):
            _, key, flags, value = parsed
            try:
                if op == b"set":
                    self.store.set(key, value, flags)
                    stored = True
                elif op == b"add":
                    stored = self.store.add(key, value, flags)
                else:
                    stored = self.store.replace(key, value, flags)
            except AllocationFailure:
                # No slab chunk can hold the item (refused before anything
                # is freed or evicted), or its class has no page left and
                # nothing is left to evict.
                self.metrics.client_errors += 1
                return b"CLIENT_ERROR object too large for cache\r\n"
            except SdradError:
                self.metrics.client_errors += 1
                return b"CLIENT_ERROR bad data chunk\r\n"
            self.metrics.ok += 1
            return b"STORED\r\n" if stored else b"NOT_STORED\r\n"
        if op in (b"incr", b"decr"):
            _, key, delta = parsed
            try:
                new_value = self.store.incr(key, delta if op == b"incr" else -delta)
            except SdradError:
                self.metrics.client_errors += 1
                return b"CLIENT_ERROR bad key\r\n"
            self.metrics.ok += 1
            if new_value is None:
                return b"NOT_FOUND\r\n"
            return b"%d\r\n" % new_value
        if op == b"delete":
            try:
                found = self.store.delete(parsed[1])
            except SdradError:
                self.metrics.client_errors += 1
                return b"CLIENT_ERROR bad key\r\n"
            self.metrics.ok += 1
            return b"DELETED\r\n" if found else b"NOT_FOUND\r\n"
        if op == b"stats":
            self.metrics.ok += 1
            stats = self.store.stats
            body = (
                b"STAT cmd_get %d\r\nSTAT cmd_set %d\r\n"
                b"STAT get_hits %d\r\nSTAT get_misses %d\r\n"
                b"STAT evictions %d\r\nEND\r\n"
                % (stats.gets, stats.sets, stats.hits, stats.misses, stats.evictions)
            )
            return body
        self.metrics.client_errors += 1
        return b"ERROR\r\n"
