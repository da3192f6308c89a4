#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per end-to-end metric and workload.

Usage::

    python3 bench/compare.py A.json B.json

``A.json`` holds the parent's runs and ``B.json`` the change's, both
written by ``run.py --out``; runs pair up by position, so record them
alternately (A, B, A, B, ...). Bounds and directions come from
``BENCHMARK.json``. Each metric gets one verdict:

* ``changed``    -- a virtual metric differs between runs of equal seed;
                    virtual time depends on the seed alone, so any
                    difference is a change of modelled behaviour;
* ``gain``       -- over at least ten pairs, B wins at least 9/10 of them
                    (ties count for neither) and the medians differ, in
                    B's favour, by more than A's interquartile spread;
* ``unresolved`` -- either side's spread (interquartile range over median)
                    exceeds the bound, and not every run of B beats every
                    run of A;
* ``regression`` -- B's median is worse than A's by more than the bound;
* ``same``       -- none of the above.

Exits 1 on any ``regression`` or ``changed`` verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from timing import quartiles

ROOT = Path(__file__).resolve().parent.parent
#: Fewer pairs cannot support a gain: five identical builds won 5/5 pairs
#: of one metric by chance.
MIN_PAIRS = 10


def load_runs(path: str) -> list:
    return json.loads(Path(path).read_text())["runs"]


def series(runs: list, workload: str, metric: str) -> list:
    """``(seed, value)`` per run that measured ``metric`` on ``workload``."""
    out = []
    for run in runs:
        entry = run["workloads"].get(workload)
        if entry and metric in entry["metrics"]:
            out.append((run["seed"], entry["metrics"][metric]["value"]))
    return out


def verdict(name: str, spec: dict, a: list, b: list) -> tuple:
    """Return ``(verdict, detail)`` for one metric on one workload."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    pairs = list(zip(a, b))
    if name.startswith("virtual_") and any(
        sa == sb and va != vb for (sa, va), (sb, vb) in pairs
    ):
        return "changed", "differs at an equal seed"
    a_values = [value for _, value in a]
    b_values = [value for _, value in b]
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    wins = sum(better(vb, va) for (_, va), (_, vb) in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and better(b_med, a_med) and (
        abs(b_med - a_med) > a_q3 - a_q1
    ):
        return "gain", f"{wins}/{len(pairs)} pairs won"
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = all(better(vb, va) for vb in b_values for va in a_values)
    if spread > bound and not all_better:
        return "unresolved", f"spread {spread:.3f} > bound {bound}"
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    if worse > bound:
        return "regression", f"worse by {worse:.3f} > bound {bound}"
    return "same", f"{wins}/{len(pairs)} pairs won"


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = {
        spec["name"]: spec
        for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    workloads = sorted({name for run in a_runs for name in run["workloads"]})
    print(f"A: {len(a_runs)} runs of {argv[0]}   B: {len(b_runs)} runs of {argv[1]}")
    print(f"{'workload':<15} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7}  verdict")
    failed = False
    for workload in workloads:
        for name, spec in specs.items():
            a = series(a_runs, workload, name)
            b = series(b_runs, workload, name)
            if not a or not b:
                continue
            result, detail = verdict(name, spec, a, b)
            failed |= result in ("regression", "changed")
            a_med = quartiles([v for _, v in a])[1]
            b_med = quartiles([v for _, v in b])[1]
            print(f"{workload:<15} {name:<20} {a_med:>12.4f} {b_med:>12.4f} "
                  f"{b_med / a_med:>7.4f}  {result} ({detail})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
