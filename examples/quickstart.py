#!/usr/bin/env python3
"""Quickstart: domains, faults and rewind-and-discard in ten minutes.

Run:  python examples/quickstart.py
"""

from repro.sdrad import DomainFlags, SdradRuntime, telemetry
from repro.sustainability.report import format_seconds


def main() -> None:
    # The runtime owns a simulated address space with MPK-style protection
    # keys, a virtual clock, and the SDRaD recovery machinery.
    runtime = SdradRuntime()

    # Create an isolated domain: its heap and stack live behind a dedicated
    # protection key, and faults inside it rewind instead of crashing.
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    print(f"created {domain!r}")

    # --- 1. normal execution -------------------------------------------
    def work(handle):
        addr = handle.malloc(64)
        handle.store(addr, b"hello, isolated world")
        return handle.load(addr, 21)

    result = runtime.execute(domain.udi, work)
    print(f"clean call  -> ok={result.ok} value={result.value!r}")

    # --- 2. a buffer overflow, caught by the stack canary ---------------
    def smash(handle):
        frame = handle.push_frame("vulnerable_function")
        buffer = frame.alloca(16)
        frame.write_buffer(buffer, b"A" * 32)  # 16 bytes too many
        handle.pop_frame(frame)

    result = runtime.execute(domain.udi, smash)
    print(f"stack smash -> ok={result.ok}")
    print(f"  detected by : {result.fault.mechanism.value}")
    print(f"  recovery    : {format_seconds(result.recovery_time)} "
          "(the paper's 3.5 µs rewind)")

    # --- 3. a wild write into another compartment, caught by MPK --------
    def wild_write(handle):
        handle.store(runtime.root.heap_base, b"corruption attempt")

    result = runtime.execute(domain.udi, wild_write)
    print(f"wild write  -> ok={result.ok}")
    print(f"  detected by : {result.fault.mechanism.value}")

    # --- 4. the domain is pristine again ---------------------------------
    result = runtime.execute(domain.udi, work)
    print(f"after rewind-> ok={result.ok} (domain discarded and reusable)")

    # --- 5. what each domain went through -------------------------------
    print("\nper-domain telemetry:")
    for row in telemetry.snapshot(runtime)["domains"]:
        print(
            f"  udi={row['udi']} state={row['state']} entries={row['entries']} "
            f"clean_exits={row['clean_exits']} faults={row['faults']} "
            f"rewinds={row['rewinds']}"
        )
    print(f"\ntotal virtual time: {format_seconds(runtime.clock.now)}")


if __name__ == "__main__":
    main()
