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
#: Token count of each single-key command: set/add/replace, incr/decr, delete.
_TOKENS = {b"set": 5, b"add": 5, b"replace": 5, b"incr": 3, b"decr": 3, b"delete": 2}


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
    """Parse one request inside the client's domain (no frame is pushed
    for a line without CRLF)."""
    if b"\r\n" not in raw:
        return None
    frame = handle.push_frame("process_command")
    try:
        return _parse_commands(handle, frame, None, (raw,))[0]
    finally:
        handle.pop_frame(frame)


def _parse_commands(
    handle: DomainHandle, frame, key_buf: Optional[int], raws
) -> list[Optional[tuple]]:
    """The "unsafe C parser": one loop over command lines inside an open
    stack frame of the client's domain. The key copy trusts token length,
    the value buffer trusts the declared byte count; both bugs corrupt only
    domain memory.

    Returns one plain tuple per line, or ``None`` for a malformed one:
    ``(b"get", key, ...)``, ``(op, key, flags, value)`` for
    set/add/replace, ``(op, key, delta)`` for incr/decr, ``(b"delete",
    key)`` and ``(b"stats",)``; ``get``, most of the traffic, is tested
    first. Every key is strcpy'd into one stack slot, ``key_buf``, which
    the first command that copies a key allocas when it is ``None``.
    """
    write_buffer = frame.write_buffer
    out: list[Optional[tuple]] = []
    append = out.append
    for raw in raws:
        line_end = raw.find(b"\r\n")
        if line_end < 0:
            append(None)
            continue
        parts = raw[:line_end].split(b" ")
        command = parts[0]
        nparts = len(parts)
        if command == b"get":
            if nparts < 2:
                append(None)
                continue
            if key_buf is None:
                key_buf = frame.alloca(KEY_STACK_BUFFER)
            if nparts == 2:
                # BUG 1: strcpy-style copy into a fixed stack buffer.
                key = parts[1]
                write_buffer(key_buf, key + b"\x00")
                append(None if len(key) > MAX_KEY_LEN else (command, bytes(key)))
                continue
            # Each key of a multi-key get lands in the same buffer in turn:
            # BUG 1 fires for any over-long key, as for a single-key get.
            keys = parts[1:]
            for key in keys:
                write_buffer(key_buf, key + b"\x00")
            if max(map(len, keys)) > MAX_KEY_LEN:
                append(None)
            else:
                append((command, *map(bytes, keys)))
            continue
        if command == b"stats":
            append((command,))
            continue
        if _TOKENS.get(command) != nparts:
            append(None)
            continue
        key = parts[1]
        if key_buf is None:
            key_buf = frame.alloca(KEY_STACK_BUFFER)
        write_buffer(key_buf, key + b"\x00")
        if nparts == 5:
            try:
                flags = int(parts[2])
                int(parts[3])  # exptime parsed but unused in the subset
                declared = int(parts[4])
            except ValueError:
                append(None)
                continue
            if declared < 0:
                append(None)
                continue
            data = raw[line_end + 2 :]
            if data.endswith(b"\r\n"):
                data = data[:-2]
            # BUG 2: allocation sized by the *declared* length, filled with
            # the *actual* payload. The zero-copy read-back runs the same
            # checked path as ``load``; the only copy is the trusted one.
            value_buf = handle.malloc(max(declared, 1))
            handle.store(value_buf, data)
            value = bytes(handle.load_view(value_buf, min(declared, len(data))))
            handle.free(value_buf)
            # Reached only if the overflow was survivable.
            append(None if len(key) > MAX_KEY_LEN else (command, bytes(key), flags, value))
        elif nparts == 3:
            try:
                delta = int(parts[2])
            except ValueError:
                append(None)
                continue
            append(None if delta < 0 or len(key) > MAX_KEY_LEN else (command, bytes(key), delta))
        else:
            append(None if len(key) > MAX_KEY_LEN else (command, bytes(key)))
    return out


def _parse_batch_in_domain(
    handle: DomainHandle, raws: list[bytes]
) -> list[Optional[tuple]]:
    """Parse a whole request pipeline inside one domain entry.

    One activation record and one key buffer serve the whole pipeline, like
    memcached's connection event loop. An over-long key anywhere smashes
    the shared frame's canary, the epilogue check trips when the parse
    returns, and the whole (unapplied) batch is rewound; the server then
    falls back to per-request handling so only the offender errors.
    """
    frame = handle.push_frame("process_batch")
    try:
        return _parse_commands(handle, frame, frame.alloca(KEY_STACK_BUFFER), raws)
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

    def _apply_all(self, parsed_seq) -> list[bytes]:
        """Apply ``_parse_commands`` results trusted-side, in order. No
        answer is ``SERVER_ERROR``: the pipelined obs path and the fleet's
        health accounting rely on that."""
        store = self.store
        metrics = self.metrics
        out = []
        append = out.append
        for parsed in parsed_seq:
            if parsed is None:
                metrics.client_errors += 1
                append(b"ERROR\r\n")
                continue
            op = parsed[0]
            if op == b"get":
                try:
                    if len(parsed) == 2:
                        key = parsed[1]
                        hit = store.get(key)
                        metrics.ok += 1
                        if hit is None:
                            append(b"END\r\n")
                            continue
                        value, flags = hit
                        append(b"VALUE %s %d %d\r\n%s\r\nEND\r\n" % (key, flags, len(value), value))
                        continue
                    # Multi-key get: one batched store lookup for the whole
                    # request (memcached's ``get k1 k2 ...``).
                    keys = parsed[1:]
                    hits = store.get_many(list(keys))
                except SdradError:
                    metrics.client_errors += 1
                    append(b"CLIENT_ERROR bad key\r\n")
                    continue
                metrics.ok += 1
                chunks = []
                for key in keys:
                    item = hits.get(key)
                    if item is not None:
                        value, flags = item
                        chunks.append(b"VALUE %s %d %d\r\n%s\r\n" % (key, flags, len(value), value))
                chunks.append(b"END\r\n")
                append(b"".join(chunks))
            elif op in (b"set", b"add", b"replace"):
                _, key, flags, value = parsed
                try:
                    if op == b"set":
                        store.set(key, value, flags)
                        stored = True
                    elif op == b"add":
                        stored = store.add(key, value, flags)
                    else:
                        stored = store.replace(key, value, flags)
                except AllocationFailure:
                    # No slab chunk can hold the item (refused before
                    # anything is freed or evicted), its class has no slab
                    # page, or nothing is left to evict.
                    metrics.client_errors += 1
                    append(b"CLIENT_ERROR object too large for cache\r\n")
                    continue
                except SdradError:
                    metrics.client_errors += 1
                    append(b"CLIENT_ERROR bad data chunk\r\n")
                    continue
                metrics.ok += 1
                append(b"STORED\r\n" if stored else b"NOT_STORED\r\n")
            elif op == b"stats":
                metrics.ok += 1
                stats = store.stats
                append(
                    b"STAT cmd_get %d\r\nSTAT cmd_set %d\r\n"
                    b"STAT get_hits %d\r\nSTAT get_misses %d\r\n"
                    b"STAT evictions %d\r\nEND\r\n"
                    % (stats.gets, stats.sets, stats.hits, stats.misses, stats.evictions)
                )
            else:
                # incr/decr or delete: a missing key is NOT_FOUND.
                try:
                    if op == b"delete":
                        response = b"DELETED\r\n" if store.delete(parsed[1]) else None
                    else:
                        _, key, delta = parsed
                        new_value = store.incr(key, delta if op == b"incr" else -delta)
                        response = None if new_value is None else b"%d\r\n" % new_value
                except SdradError:
                    metrics.client_errors += 1
                    append(b"CLIENT_ERROR bad key\r\n")
                    continue
                metrics.ok += 1
                append(b"NOT_FOUND\r\n" if response is None else response)
        return out
