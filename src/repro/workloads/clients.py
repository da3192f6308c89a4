"""Client behaviours: benign request generators and attack generators.

E4's population mixes these: benign clients issue realistic protocol
traffic; malicious clients interleave protocol-conformant requests with
exploit payloads against the deliberate parser bugs
(:mod:`repro.apps.memcached_server`, :mod:`repro.apps.http`,
:mod:`repro.apps.tls`).
"""

from __future__ import annotations

import random
from .zipf import KeyValueWorkload


class MemcachedClient:
    """Benign Memcached traffic: a get/set mix over a Zipfian keyspace."""

    def __init__(
        self,
        client_id: str,
        workload: KeyValueWorkload,
        rng: random.Random,
        set_fraction: float = 0.1,
    ) -> None:
        if not 0.0 <= set_fraction <= 1.0:
            raise ValueError(f"set fraction must be in [0, 1], got {set_fraction}")
        self.client_id = client_id
        self.workload = workload
        self.set_fraction = set_fraction
        self._rng = rng

    def next_request(self) -> bytes:
        key = self.workload.next_key()
        if self._rng.random() < self.set_fraction:
            value = self.workload.next_value()
            return b"set %s 0 0 %d\r\n" % (key, len(value)) + value + b"\r\n"
        return b"get %s\r\n" % key

    def is_malicious(self) -> bool:
        return False


class MaliciousMemcachedClient(MemcachedClient):
    """Attacker: mixes exploit payloads into otherwise-normal traffic."""

    def __init__(
        self,
        client_id: str,
        workload: KeyValueWorkload,
        rng: random.Random,
        attack_fraction: float = 0.2,
    ) -> None:
        super().__init__(client_id, workload, rng)
        if not 0.0 < attack_fraction <= 1.0:
            raise ValueError(
                f"attack fraction must be in (0, 1], got {attack_fraction}"
            )
        self.attack_fraction = attack_fraction

    def next_request(self) -> bytes:
        if self._rng.random() >= self.attack_fraction:
            return super().next_request()
        if self._rng.random() < 0.5:
            # Stack-smash payload: key overflows the parser's 256-byte buffer.
            length = self._rng.randrange(260, 272)
            return b"get " + b"K" * length + b"\r\n"
        # Heap-overflow payload: declared length lies about the data size.
        declared = self._rng.randrange(1, 8)
        actual = declared + self._rng.randrange(64, 512)
        return (
            b"set pwn 0 0 %d\r\n" % declared + b"Z" * actual + b"\r\n"
        )

    def is_malicious(self) -> bool:
        return True


class HttpClient:
    """Benign HTTP traffic over the default router's paths."""

    PATHS = (b"/", b"/health", b"/static/app.js", b"/static/site.css")

    def __init__(self, client_id: str, rng: random.Random) -> None:
        self.client_id = client_id
        self._rng = rng

    def next_request(self) -> bytes:
        path = self._rng.choice(self.PATHS)
        return (
            b"GET %s HTTP/1.1\r\nHost: repro.example\r\n"
            b"User-Agent: repro-client\r\n\r\n" % path
        )

    def is_malicious(self) -> bool:
        return False


class MaliciousHttpClient(HttpClient):
    """Attacker: over-long request lines and lying Content-Length."""

    def __init__(
        self, client_id: str, rng: random.Random, attack_fraction: float = 0.2
    ) -> None:
        super().__init__(client_id, rng)
        if not 0.0 < attack_fraction <= 1.0:
            raise ValueError(
                f"attack fraction must be in (0, 1], got {attack_fraction}"
            )
        self.attack_fraction = attack_fraction

    def next_request(self) -> bytes:
        if self._rng.random() >= self.attack_fraction:
            return super().next_request()
        if self._rng.random() < 0.5:
            # Request line overflows the 1024-byte stack buffer.
            path = b"/" + b"A" * self._rng.randrange(1040, 1060)
            return b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % path
        declared = self._rng.randrange(1, 8)
        body = b"B" * (declared + self._rng.randrange(64, 512))
        return (
            b"POST /upload HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % declared + body
        )

    def is_malicious(self) -> bool:
        return True


def build_population(
    n_benign: int,
    n_malicious: int,
    workload_factory,
    rng_factory,
    kind: str = "memcached",
    attack_fraction: float = 0.2,
) -> list:
    """Construct a mixed client population for E4.

    ``workload_factory(client_id, rng)`` builds the benign workload object
    (ignored for HTTP clients); ``rng_factory.stream(label)`` supplies
    per-client deterministic randomness.
    """
    clients: list = []
    for i in range(n_benign):
        cid = f"benign-{i}"
        rng = rng_factory.stream(f"client/{cid}")
        if kind == "memcached":
            clients.append(MemcachedClient(cid, workload_factory(cid, rng), rng))
        else:
            clients.append(HttpClient(cid, rng))
    for i in range(n_malicious):
        cid = f"mallory-{i}"
        rng = rng_factory.stream(f"client/{cid}")
        if kind == "memcached":
            clients.append(
                MaliciousMemcachedClient(
                    cid, workload_factory(cid, rng), rng, attack_fraction
                )
            )
        else:
            clients.append(MaliciousHttpClient(cid, rng, attack_fraction))
    return clients
