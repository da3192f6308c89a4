"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["availability"])
        assert args.dataset_gib == 10.0
        assert args.faults == 3


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "rewound in" in out
        assert "alive" in out

    def test_recovery(self, capsys):
        assert main(["recovery", "--dataset-gib", "10"]) == 0
        out = capsys.readouterr().out
        assert "sdrad-rewind" in out
        assert "3.5 µs" in out
        assert "process-restart" in out

    def test_availability(self, capsys):
        assert main(["availability", "--faults", "3"]) == 0
        out = capsys.readouterr().out
        assert "NO" in out  # restart violates five nines at 3 faults
        assert "sdrad-rewind" in out

    def test_availability_low_faults_all_pass(self, capsys):
        assert main(["availability", "--faults", "1"]) == 0
        out = capsys.readouterr().out
        assert "NO" not in out

    def test_lca(self, capsys):
        assert main(["lca", "--faults", "3", "--rebound", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "kWh/yr" in out
        assert "net saving" in out
        assert "rebound 30%" in out

    def test_crossover(self, capsys):
        assert main(["crossover", "--dataset-gib", "10"]) == 0
        out = capsys.readouterr().out
        assert "five-nines" in out
        assert "rewind" in out

    def test_fleet_live_run(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--shards", "2",
                    "--keyspace", "5000",
                    "--rate", "1000",
                    "--horizon", "0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet run: 2 shard(s)" in out
        assert "availability" in out
        assert "latency p50/p99/p999" in out
        assert "ledger[sdrad-rewind]" in out
        assert "ledger[process-restart]" in out

    def test_fleet_failover_run(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--shards", "2",
                    "--keyspace", "5000",
                    "--rate", "2000",
                    "--horizon", "0.4",
                    "--kill-at", "0.1",
                    "--outage", "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failovers/rejoins    1/1" in out

    def test_fleet_scenarios_table(self, capsys):
        assert main(["fleet", "--scenarios"]) == 0
        out = capsys.readouterr().out
        assert "telecom-edge" in out
        assert "smart-grid" in out

    def test_inject_single_kind(self, capsys):
        assert main(["inject", "--kind", "stack-smash", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "injected 4 fault(s)" in out
        assert "stack-canary" in out
        assert "containment 100%" in out

    def test_inject_all_kinds(self, capsys):
        assert main(["inject", "--kind", "all", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "injected 9 fault(s)" in out

    def test_inject_backend(self, capsys):
        assert main(
            ["inject", "--kind", "cross-domain-read", "--backend", "cheri"]
        ) == 0
        out = capsys.readouterr().out
        assert "containment 100%" in out
        assert "CapabilityViolation" in out

    def test_obs(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert main(
            [
                "obs",
                "--requests", "60",
                "--clients", "2",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sdrad-rewind" in out and "process-restart" in out
        assert "J/req" in out and "mgCO2e/req" in out
        assert "consistency check: ok" in out
        assert trace.read_text().count("\n") > 0
        assert "app_requests_total" in metrics.read_text()

    def test_obs_sampled(self, capsys):
        assert main(["obs", "--requests", "40", "--sampling", "0.25"]) == 0
        assert "sampling=0.25" in capsys.readouterr().out

    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "mpk" in out and "cheri" in out and "sfi" in out
        assert "unbounded" in out  # cheri/sfi have no domain ceiling
        assert "15" in out  # mpk does

    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    def test_backends_demo_contains(self, capsys, backend):
        assert main(["backends", "--demo", backend]) == 0
        out = capsys.readouterr().out
        assert f"containment demo on backend {backend!r}" in out
        assert "ok=False" in out
        assert "b'victim secret'" in out
        assert "alive" in out

    def test_backends_demo_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["backends", "--demo", "segments"])

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        # The child interpreter must find the package the way this one did,
        # whether through PYTHONPATH or pytest's ``pythonpath`` setting.
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "recovery"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 0
        assert "sdrad-rewind" in completed.stdout


class TestCampaignCommand:
    """The campaign subcommand end to end (small smoke-sized factor space)."""

    SMOKE = (
        "kinds=stack-smash,heap-overflow;domains=1;"
        "phases=entry;backends=mpk,cheri"
    )

    def test_campaign_json(self, capsys):
        import json

        code = main(
            [
                "campaign",
                "--strata",
                self.SMOKE,
                "--max-rounds",
                "8",
                "--no-validate",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["validation"] is None
        assert report["assignment"]["policies"] == {"shard-0": "rewind"}
        assert len(report["strata"]) == 4

    def test_campaign_human_output(self, capsys):
        code = main(
            ["campaign", "--strata", self.SMOKE, "--max-rounds", "8",
             "--no-validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommendation" in out
        assert "*rewind" in out
        assert "result: ok" in out

    def test_campaign_strata_parsing(self):
        args = build_parser().parse_args(
            ["campaign", "--strata", "domains=3;backends=sfi"]
        )
        assert args.strata == {
            "domains": ("shard-0", "shard-1", "shard-2"),
            "backends": ("sfi",),
        }

    @pytest.mark.parametrize(
        "spec", ["bogus", "colors=red", "kinds=flux-capacitor"]
    )
    def test_campaign_bad_strata_rejected_at_parse_time(self, spec):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--strata", spec])
