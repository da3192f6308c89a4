#!/usr/bin/env python3
"""The repository benchmark: four serving workloads, end to end and per layer.

Usage::

    python3 bench/run.py --seed 2023                # the suite: every workload,
                                                    # untraced then traced, each
                                                    # in a fresh child interpreter
    python3 bench/run.py --seed 2023 --quick        # same workloads, ~1/20 size
    python3 bench/run.py --only mc_pipeline --repeat 5 --out runs.json
    python3 bench/run.py --workload fleet_zipf --seed 7 --seconds 10 --trace 0

``--workload`` runs one workload in this process and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is ``{"info": ...}``:
informational fields outside the metric set. Any wrong response or
uncontained crash makes the exit code 1.

One run: generate the inputs from the seed; build the system under test
once as a warm-up and five more times to time set-up; then serve timed
windows of about 10 ms, each followed by the reference loop (see
``timing.py``) and, outside the timed region, the oracle check. Windows
continue until ``--seconds`` have passed and the workload's fixed prefix
has been served. The prefix alone feeds the virtual metrics, the response
digest and the RSS reading, so those depend on the seed and not on how
fast the host is.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SECONDS = 10.0
QUICK_SCALE = 1 / 20
#: Builds per untraced run; the first is a discarded warm-up.
SETUP_BUILDS = 6
QUICK_SETUP_BUILDS = 2
CHILD_TIMEOUT = 900

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "virtual_us_per_req": "us",
    "virtual_latency_us": "us",
    "virtual_tail_us": "us",
}
RATIO_UNITS = {
    "sdrad.reentry_hit_rate": "fraction",
    "sdrad.rewinds_per_req": "count",
    "memory.tlb_hit_rate": "fraction",
    "memory.plan_hits_per_req": "count",
    "memory.gate_writes_per_req": "count",
    "kvstore.hit_rate": "fraction",
    "kvstore.evictions_per_req": "count",
    "apps.batch_fallback_frac": "fraction",
    "fleet.scatter_batches_per_multiget": "count",
    "fleet.failovers": "count",
    "fleet.client_retries": "count",
    "bookkeeping.trace_events_resident": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_one(args) -> int:
    import timing
    from layers import LayerTrace
    from systems import WORKLOADS

    from repro.sdrad.policy import ProcessCrashed

    wall = perf_counter()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, QUICK_SCALE if args.quick else 1.0)
    baseline_rss = timing.settled_rss_bytes()

    builds = 1 if args.trace else (QUICK_SETUP_BUILDS if args.quick else SETUP_BUILDS)
    setup = []
    system = None
    for index in range(builds):
        system = None
        gc.collect()
        started = perf_counter()
        system = workload.build()
        elapsed = perf_counter() - started
        if index:
            setup.append(elapsed * timing.reference_speed() / timing.REFERENCE_SPEED)
    if args.plant == "wrong":
        workload.tamper(system)
    elif args.plant == "crash":
        workload.plant_crash(system)

    tracer = None
    if args.trace:
        tracer = LayerTrace(system.virtual_now)
        tracer.install(system.servers)
    gc.collect()
    before = workload.counters(system)

    rates, speeds, timed, requests_total = [], [], 0.0, 0
    prefix_left = workload.prefix_ops
    prefix = None
    crashed = False
    started = perf_counter()
    while prefix_left > 0 or perf_counter() - started < args.seconds:
        n = workload.window_ops if prefix_left <= 0 else min(workload.window_ops, prefix_left)
        ops = workload.next_ops(n)
        if args.plant == "crash" and not rates:
            ops.insert(0, workload.smash_op())
        requests = workload.requests(ops)
        window_start = perf_counter()
        try:
            record = workload.serve(system, ops)
        except ProcessCrashed as crash:
            crashed = True
            workload.attempted += requests
            workload.fail(f"uncontained crash: {crash}")
            break
        elapsed = perf_counter() - window_start
        speeds.append(timing.reference_speed())
        rates.append(requests / elapsed)
        timed += elapsed
        requests_total += requests
        workload.check(system, ops, record, prefix_left > 0)
        if prefix_left > 0:
            prefix_left -= n
            if prefix_left <= 0:
                prefix = {
                    "peak_rss": timing.peak_rss_bytes(),
                    "digest": workload.digest.hexdigest(),
                    "clocks": [clock.now for clock in system.clocks],
                    "counters": workload.counters(system),
                    "requests": workload.prefix_requests,
                    "retries": workload.retries,
                    "trace": tracer.counts() if tracer else None,
                }
                workload.release_prefix()
    if tracer is not None:
        tracer.uninstall()

    correct = workload.failed == 0 and prefix is not None and not crashed
    calib = statistics.median(speeds) if speeds else 0.0
    normalised = [rate * timing.REFERENCE_SPEED / speed for rate, speed in zip(rates, speeds)]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "windows": len(rates),
        "timed_s": timed,
        "requests": requests_total,
        "machine.calib_per_s": calib,
        "throughput_raw_rps": statistics.median(rates) if rates else 0.0,
        "throughput_rps": statistics.median(normalised) if rates else 0.0,
        "error_frac": _ratio(workload.failed, workload.attempted),
        "client_retries": workload.retries,
        "repo.src_lines": src_lines(),
    }
    metrics = {}
    if prefix is not None:
        info.update(
            digest=prefix["digest"],
            virtual_clocks=prefix["clocks"],
            prefix_requests=prefix["requests"],
        )
        if args.trace:
            metrics = layer_metrics(tracer, prefix, before, timed, requests_total, calib)
            spans = BENCH_DIR / "out" / f"{args.workload}-{args.seed}.spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans)
        else:
            latencies = workload.latencies()
            tail = latencies[-max(1, len(latencies) // 100) :]
            info.update(
                latency_samples=len(latencies),
                virtual_p50_us=float(timing.percentile(latencies, 0.50)) * 1e6,
                virtual_p99_us=float(timing.percentile(latencies, 0.99)) * 1e6,
            )
            values = {
                "throughput_rps": info["throughput_rps"],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": (prefix["peak_rss"] - baseline_rss) / 2**20,
                "virtual_us_per_req": workload.service / prefix["requests"] * 1e6,
                "virtual_latency_us": float(latencies.mean()) * 1e6,
                "virtual_tail_us": float(tail.mean()) * 1e6,
            }
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    info["wall_s"] = perf_counter() - wall

    for failure in workload.failures:
        print(f"WRONG: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:>15} {name:<42} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def layer_metrics(tracer, prefix, before, timed, requests_total, calib):
    """Per-layer metrics of a traced run.

    Counts and virtual time come from the prefix, so they repeat exactly
    for a seed; host self time comes from every traced window.
    """
    from layers import BACKENDS, LAYERS
    from timing import REFERENCE_SPEED

    counts = prefix["trace"]
    per_req = prefix["requests"]
    scale = calib / REFERENCE_SPEED * 1e6 / requests_total
    values = {}
    for layer in LAYERS:
        host = tracer.host[layer]
        values[f"{layer}.calls_per_req"] = counts["calls"][layer] / per_req
        values[f"{layer}.self_frac"] = host / timed
        values[f"{layer}.self_us_per_req"] = host * scale
        values[f"{layer}.virtual_us_per_req"] = counts["virtual"][layer] / per_req * 1e6
    other = timed - sum(tracer.host.values())
    values["other.self_frac"] = other / timed
    values["other.self_us_per_req"] = other * scale
    for layer in ("sdrad.gate", "sdrad.rewind"):
        for backend in BACKENDS:
            values[f"{layer}.virtual_us_per_req.{backend}"] = (
                counts["backend_virtual"][(layer, backend)] / per_req * 1e6
            )
    after = prefix["counters"]
    delta = {name: after[name] - before[name] for name in before}
    values.update(
        {
            "sdrad.reentry_hit_rate": _ratio(
                delta["reentry_hits"], delta["reentry_hits"] + delta["reentry_misses"]
            ),
            "sdrad.rewinds_per_req": delta["rewinds"] / per_req,
            "memory.tlb_hit_rate": _ratio(
                delta["tlb_hits"], delta["tlb_hits"] + delta["tlb_misses"]
            ),
            "memory.plan_hits_per_req": delta["plan_hits"] / per_req,
            "memory.gate_writes_per_req": delta["gate_writes"] / per_req,
            "kvstore.hit_rate": _ratio(delta["hits"], delta["gets"]),
            "kvstore.evictions_per_req": delta["evictions"] / per_req,
            "apps.batch_fallback_frac": _ratio(counts["fallback_batches"], counts["batches"]),
            "fleet.scatter_batches_per_multiget": _ratio(
                delta["scatter_batches"], delta["multigets"]
            ),
            "fleet.failovers": delta["failovers"],
            "fleet.client_retries": prefix["retries"],
            "bookkeeping.trace_events_resident": after["trace_events"],
        }
    )
    return {
        name: {"value": value, "unit": per_layer_unit(name)}
        for name, value in values.items()
    }


def per_layer_unit(name: str) -> str:
    if name in RATIO_UNITS:
        return RATIO_UNITS[name]
    if ".self_frac" in name:
        return "fraction"
    if ".calls_per_req" in name:
        return "count"
    return "us"


# ----------------------------------------------------------------------
# The suite: one child interpreter per run
# ----------------------------------------------------------------------


def hash_seed_env(seed: int) -> dict:
    """The environment with str/bytes hashing seeded from the run's seed.

    With randomised hashing the same run's peak RSS jumped between two
    values 1.4 MiB apart from one process to the next; with the hash seed
    fixed it repeats to within 0.2 MiB.
    """
    return {**os.environ, "PYTHONHASHSEED": str(seed % 2**32)}


def child(args, workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        env=hash_seed_env(args.seed),
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        print(f"{workload} (trace {trace}) exited {done.returncode} without a result",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}, "info": {}}
    result["info"] = info
    return result


def run_suite(args) -> int:
    from systems import WORKLOADS

    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    runs = []
    for _ in range(args.repeat):
        wall = perf_counter()
        run = {"seed": args.seed, "quick": args.quick, "workloads": {}}
        for name in names:
            plain = child(args, name, 0)
            traced = child(args, name, 1)
            info = plain["info"]
            traced_rps = traced["info"].get("throughput_rps", 0.0)
            plain_rps = plain["metrics"].get("throughput_rps", {}).get("value", 0.0)
            info["trace.overhead_ratio"] = _ratio(traced_rps, plain_rps)
            info["trace.digest"] = traced["info"].get("digest")
            info["trace.virtual_clocks"] = traced["info"].get("virtual_clocks")
            run["workloads"][name] = {
                "correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": plain["metrics"],
                "layers": traced["metrics"],
                "info": info,
            }
        run["wall_s"] = perf_counter() - wall
        runs.append(run)
        print_run(run)
    if args.out:
        save_runs(Path(args.out), runs)
    last = runs[-1]["workloads"]
    correct = all(w["correct"] for run in runs for w in run["workloads"].values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(w["attempted"] for w in last.values()),
                "failed": sum(w["failed"] for w in last.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, entry in last.items()
                    for metric, value in entry["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


def print_run(run: dict) -> None:
    print(f"seed {run['seed']}, wall {run['wall_s']:.1f} s")
    for name, entry in run["workloads"].items():
        info = entry["info"]
        state = "ok" if entry["correct"] else "WRONG"
        print(
            f"\n{name}  [{state}]  attempted {entry['attempted']}, failed {entry['failed']}, "
            f"error_frac {info.get('error_frac', 0.0):.6f}, "
            f"client retries {info.get('client_retries', 0)}"
        )
        for metric, value in entry["metrics"].items():
            print(f"  {metric:<44} {value['value']:>14.4f} {value['unit']}")
        for field in ("throughput_raw_rps", "machine.calib_per_s", "trace.overhead_ratio",
                      "repo.src_lines", "windows", "timed_s", "latency_samples"):
            if field in info:
                print(f"  {field:<44} {info[field]:>14.6g} (info)")
        top = sorted(
            (value["value"], metric)
            for metric, value in entry["layers"].items()
            if metric.endswith(".self_frac")
        )[::-1]
        print("  self_frac: " + ", ".join(f"{m[:-10]} {v:.3f}" for v, m in top[:6]))


def save_runs(path: Path, runs: list) -> None:
    """Append ``runs`` to the file and refresh its per-metric quartiles."""
    import timing

    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"] += runs
    summary: dict = {}
    for run in data["runs"]:
        for name, entry in run["workloads"].items():
            for group in ("metrics", "layers"):
                for metric, value in entry[group].items():
                    summary.setdefault(name, {}).setdefault(
                        metric, {"unit": value["unit"], "values": []}
                    )["values"].append(value["value"])
    for metrics in summary.values():
        for stats in metrics.values():
            stats["q1"], stats["median"], stats["q3"] = timing.quartiles(stats.pop("values"))
    data["summary"] = summary
    path.write_text(json.dumps(data, indent=1) + "\n")


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, help="timed phase per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="same workloads at ~1/20 size")
    parser.add_argument("--only", help="comma-separated workloads for the suite")
    parser.add_argument("--repeat", type=int, default=1, help="suite runs to make")
    parser.add_argument("--out", help="append the suite's runs to this JSON file")
    parser.add_argument("--plant", choices=("wrong", "crash"),
                        help="self-check: plant a wrong value or an uncontained crash")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = SECONDS * (QUICK_SCALE if args.quick else 1.0)
    return args


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload:
        env = hash_seed_env(args.seed)
        if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"]:
            os.execve(sys.executable, [sys.executable, *sys.argv], env)
        sys.path.insert(0, str(SRC))
        return run_one(args)
    sys.path.insert(0, str(SRC))
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
