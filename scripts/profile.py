#!/usr/bin/env python
"""cProfile the end-to-end hot paths and print the top hotspots.

Profiles the same loops ``scripts/bench.py`` measures — the Memcached
retrofit end-to-end (a set/get mix through the unsafe parser, with one
domain per connection or a fresh domain per request) and the bare domain
enter/exit cycle — and prints the top-N functions by *cumulative* time. This is where every perf PR should
start: the wall-clock bottleneck moves as fast paths land (PR 1 moved it
from permission checks into domain entry/exit and the parsers), and the
profile is the evidence of where it sits now.

Usage::

    PYTHONPATH=src python scripts/profile.py [--requests 20000] [--top 20]
        [--bench kvstore_e2e|domain_reentry|both] [--batched]
        [--isolation per-connection|per-request]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# This file is named profile.py, which would shadow the stdlib ``profile``
# module cProfile imports — drop the scripts/ dir from the import path
# before importing cProfile.
_HERE = Path(__file__).resolve().parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parent / "src"))

import cProfile  # noqa: E402
import pstats  # noqa: E402

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime


def _memcached_requests() -> list[bytes]:
    requests = []
    for i in range(16):
        value = b"v" * 64
        requests.append(b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value))
        requests.append(b"get key%d\r\n" % i)
    return requests


def profile_kvstore_e2e(
    n_requests: int, batched: bool, isolation: IsolationMode
) -> cProfile.Profile:
    runtime = SdradRuntime()
    server = MemcachedServer(runtime, isolation=isolation)
    server.connect("profile-client")
    requests = _memcached_requests()

    profiler = cProfile.Profile()
    if batched:
        n_batches = n_requests // len(requests)
        profiler.enable()
        for _ in range(n_batches):
            server.handle_batch("profile-client", requests)
        profiler.disable()
    else:
        profiler.enable()
        for i in range(n_requests):
            server.handle("profile-client", requests[i % len(requests)])
        profiler.disable()
    return profiler


def profile_domain_reentry(n_entries: int) -> cProfile.Profile:
    runtime = SdradRuntime()
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

    def body(handle):
        return None

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(n_entries):
        runtime.execute(domain.udi, body)
    profiler.disable()
    return profiler


def report(profiler: cProfile.Profile, title: str, top: int) -> None:
    print(f"\n=== {title}: top {top} by cumulative time ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument(
        "--bench",
        choices=("kvstore_e2e", "domain_reentry", "both"),
        default="both",
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="profile the pipelined (handle_batch) request path",
    )
    parser.add_argument(
        "--isolation",
        choices=("per-connection", "per-request"),
        default="per-connection",
        help="memcached isolation: one domain per connection, or a fresh "
        "domain per request (domain init/destroy on the request path)",
    )
    args = parser.parse_args()

    if args.bench in ("kvstore_e2e", "both"):
        isolation = IsolationMode(args.isolation)
        label = f"memcached/kvstore e2e, {isolation.value}" + (
            " (batched)" if args.batched else ""
        )
        report(
            profile_kvstore_e2e(args.requests, args.batched, isolation),
            label,
            args.top,
        )
    if args.bench in ("domain_reentry", "both"):
        report(
            profile_domain_reentry(args.requests),
            "domain enter/exit cycle",
            args.top,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
