#!/usr/bin/env python3
"""Heartbleed, twice: once against shared memory, once against SDRaD domains.

The toy TLS stack carries the exact CVE-2014-0160 anatomy — a heartbeat
responder that echoes a *client-declared* number of bytes from a buffer
holding only the *actual* payload. What the over-read can reach depends
entirely on where session secrets live:

* unisolated build: all sessions' secrets sit in one heap → leaked;
* SDRaD build: each session's state lives behind its own protection key →
  the read stops at the domain boundary (MPK) and the domain is rewound.

Run:  python examples/heartbleed_demo.py
"""

from repro.apps.memcached_server import IsolationMode
from repro.apps.openssl_service import TlsServer
from repro.apps.tls import decode_record, make_client_hello, make_heartbeat_request
from repro.sdrad.runtime import SdradRuntime


def attack(isolation: IsolationMode, declared: int = 8000) -> None:
    label = "UNISOLATED" if isolation is IsolationMode.NONE else "SDRaD-ISOLATED"
    print(f"--- {label} server ---")
    runtime = SdradRuntime()
    server = TlsServer(
        runtime,
        isolation=isolation,
        domain_heap_size=16 * 1024,
        domain_stack_size=16 * 1024,
    )
    for client in ("victim-0", "victim-1", "attacker"):
        server.connect(client)
        server.handle_record(client, make_client_hello())
        secret = server.secret(client)
        print(f"  {client:9s} session secret: {secret[:8].hex()}…")

    print(f"  attacker sends heartbeat: 1-byte payload, declares {declared}")
    response = server.handle_record(
        "attacker", make_heartbeat_request(b"!", declared=declared)
    )
    record = decode_record(response)
    if record.content_type == 21:
        print("  server answered with an ALERT — the over-read crossed the")
        print(f"  domain boundary, MPK trapped it, SDRaD rewound the domain")
        print(f"  (rewinds={server.metrics.rewinds})")
    else:
        print(f"  server echoed {len(record.payload)} bytes")
    victims = server.leaked_secrets(response, exclude="attacker")
    if victims:
        print(f"  *** LEAKED the session secrets of: {', '.join(victims)} ***")
    else:
        print("  no other session's secret appears in the response")
    print()


def main() -> None:
    attack(IsolationMode.NONE)
    attack(IsolationMode.PER_CONNECTION, declared=8000)
    attack(IsolationMode.PER_CONNECTION, declared=60000)
    print("This is §II's claim made concrete: isolation limits the impact of")
    print("malicious clients on other clients, without disrupting service.")


if __name__ == "__main__":
    main()
