"""Host-time measurement helpers: the reference loop, order statistics, RSS.

Host throughput on a shared machine moves with whatever else the machine
runs: on the 2-vCPU VM the baseline was recorded on, neighbours slow the
CPU itself by up to 2.5x for minutes at a time. Each timed window is
therefore followed by a fixed reference loop, and host metrics are
reported in *reference units*: a window's rate is scaled by
``REFERENCE_SPEED / speed``, where ``speed`` is the reference loop's rate
measured right after the window. A machine-wide slowdown slows both and
cancels; a change to the simulator moves only the window.

The loop stays inside a few cache lines, so it measures the core's speed
and not what the preceding window left in the caches. A variant that
probed a 64k-entry dict and a 4 MiB arena read the windows' footprints
instead: over ten seeds its normalised rates spread 2-7%, this loop's
0.5-1.5%. In the deepest slow phases this loop slows about 10% more than
the simulator, whose memory stalls do not stretch with the core, so
normalised rates read that much high there.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import resource
import statistics
import struct
import time

#: Reference-loop rate (loops per second) of the machine the committed
#: baseline was recorded on: a 2-vCPU x86-64 VM running CPython 3.11.
#: Normalised host metrics are expressed in that machine's units.
REFERENCE_SPEED = 1000.0

_PAIR = struct.Struct("<II")
_ITERATIONS = 1200


class _Tally:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


def reference_speed() -> float:
    """Run a fixed mix of interpreter work (~1 ms); return loops per second.

    The mix is the simulator's own diet -- bytes formatting and splitting,
    dict probes, a method call on a slotted object, struct packing -- over
    a working set small enough to stay in the first-level caches.
    """
    table: dict = {}
    tally = _Tally()
    acc = 0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        key = b"key-%05d" % (i & 511)
        parts = (b"get " + key + b"\r\n").split(b" ")
        table[parts[1]] = table.get(parts[1], 0) + 1
        acc ^= _PAIR.unpack(_PAIR.pack(i, tally.add(i) & 0xFFFF))[1]
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the work observable; never true
        raise AssertionError
    return 1.0 / elapsed


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def settled_rss_bytes() -> int:
    """Resident bytes after freeing garbage and trimming the C heap.

    Without the trim, free heap pages left over from input generation
    were resident at the baseline in some processes and not in others,
    which moved ``peak_rss_mb`` by 1.4 MiB from run to run.
    """
    gc.collect()
    libc = ctypes.util.find_library("c")
    if libc:
        trim = getattr(ctypes.CDLL(libc), "malloc_trim", None)
        if trim is not None:
            trim(0)
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * resource.getpagesize()


def peak_rss_bytes() -> int:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
