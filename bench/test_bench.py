"""Self-checks of the benchmark, at ``--quick`` size.

Run with ``python3 -m pytest bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ("mc_pipeline", "mc_per_request", "mc_attack", "fleet_zipf")
VIRTUAL = ("virtual_us_per_req", "virtual_latency_us", "virtual_tail_us")

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, cwd=cwd,
        timeout=300,
    )


def result(done: subprocess.CompletedProcess) -> tuple:
    """``(info, result)`` from the last two lines of a single-workload run."""
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    """One quick suite run (untraced + traced per workload), seed 5."""
    out = tmp_path_factory.mktemp("suite") / "runs.json"
    done = run("--quick", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def again() -> dict:
    """A second untraced quick run of every workload with the same seed."""
    runs = {}
    for name in WORKLOADS:
        done = run("--workload", name, "--quick", "--seed", "5", "--trace", "0")
        assert done.returncode == 0, done.stderr
        runs[name] = result(done)
    return runs


def test_same_seed_gives_identical_virtual_metrics_and_digests(suite, again):
    for name in WORKLOADS:
        first = suite["runs"][0]["workloads"][name]
        info, second = again[name]
        assert info["digest"] == first["info"]["digest"]
        for metric in VIRTUAL:
            assert second["metrics"][metric] == first["metrics"][metric]


def test_traced_run_serves_identically(suite):
    for name, entry in suite["runs"][0]["workloads"].items():
        assert entry["correct"]
        assert entry["info"]["trace.digest"] == entry["info"]["digest"]
        assert entry["info"]["trace.virtual_clocks"] == entry["info"]["virtual_clocks"]


def test_self_frac_sums_to_one(suite):
    for entry in suite["runs"][0]["workloads"].values():
        fracs = {k: v["value"] for k, v in entry["layers"].items() if k.endswith(".self_frac")}
        assert abs(sum(fracs.values()) - 1.0) < 1e-6
        assert fracs["other.self_frac"] >= 0.0


def test_every_layer_is_exercised_by_some_workload(suite):
    from layers import LAYERS

    workloads = suite["runs"][0]["workloads"].values()
    for layer in LAYERS:
        assert max(w["layers"][f"{layer}.calls_per_req"]["value"] for w in workloads) > 0


def test_metric_names_and_units_match_benchmark_json(suite):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in suite["runs"][0]["workloads"].values():
        assert {k: v["unit"] for k, v in entry["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["end_to_end"]
        }
        assert {k: v["unit"] for k, v in entry["layers"].items()} == {
            m["name"]: m["unit"] for m in spec["per_layer"]
        }


@pytest.mark.parametrize("plant", ["wrong", "crash"])
def test_planted_fault_fails_the_run(plant):
    done = run("--workload", "mc_pipeline", "--quick", "--seed", "5", "--plant", plant)
    assert done.returncode == 1
    _, line = result(done)
    assert line["correct"] is False and line["failed"] >= 1


def test_another_seed_gives_another_op_stream():
    from systems import WORKLOADS as CLASSES

    for name in WORKLOADS:
        first = CLASSES[name](1, 1 / 20).next_ops(8)
        second = CLASSES[name](2, 1 / 20).next_ops(8)
        assert first != second


def test_compare_finds_a_run_set_agrees_with_itself(suite, tmp_path):
    path = tmp_path / "runs.json"
    path.write_text(json.dumps(suite))
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(path), str(path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "regression" not in done.stdout and "changed" not in done.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
