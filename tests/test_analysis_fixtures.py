"""sdradlint self-tests over the planted fixture modules.

Every ``*_violations.py`` fixture carries ``# expect[Rn]`` trailing
comments on the lines where a finding must be reported; the harness
extracts those markers and demands an *exact* match on (rule, line).
Every ``*_ok.py`` fixture mirrors a legitimate repo idiom and must lint
completely clean — those near-misses are what keep the rules honest.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from repro.analysis import RULES
from repro.analysis import baseline as baseline_mod
from repro.analysis.__main__ import main as lint_main
from repro.analysis.runner import lint_paths, lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "sdradlint"
REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_EXPECT_RE = re.compile(r"#\s*expect\[([A-Za-z0-9,\s]+)\]")

VIOLATION_FILES = sorted(p.name for p in FIXTURES.glob("*_violations.py"))
OK_FILES = sorted(p.name for p in FIXTURES.glob("*_ok.py"))


def _expected_markers(source: str) -> set[tuple[str, int]]:
    """Collect (rule, line) pairs from ``# expect[...]`` comments."""
    expected: set[tuple[str, int]] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        match = _EXPECT_RE.search(tok.string)
        if match:
            for rule in match.group(1).split(","):
                expected.add((rule.strip().upper(), tok.start[0]))
    return expected


def _lint_fixture(name: str):
    path = FIXTURES / name
    return path, lint_source(str(path), path.read_text(encoding="utf-8"))


class TestPlantedViolations:
    @pytest.mark.parametrize("name", VIOLATION_FILES)
    def test_markers_match_exactly(self, name):
        path, result = _lint_fixture(name)
        assert not result.errors
        expected = _expected_markers(path.read_text(encoding="utf-8"))
        assert expected, f"{name} has no # expect[...] markers"
        actual = {(f.rule, f.line) for f in result.findings}
        assert actual == expected
        for finding in result.findings:
            assert finding.path == str(path)
            assert finding.qualname and finding.qualname != "<module>"

    def test_every_rule_has_a_planted_violation(self):
        seen = set()
        for name in VIOLATION_FILES:
            _, result = _lint_fixture(name)
            seen.update(f.rule for f in result.findings)
        assert seen == set(RULES)


class TestNearMisses:
    @pytest.mark.parametrize("name", OK_FILES)
    def test_clean_under_all_rules(self, name):
        _, result = _lint_fixture(name)
        assert not result.errors
        assert [f.render() for f in result.findings] == []
        assert result.suppressed == []


class TestSuppressions:
    def test_ignore_comments_hush_but_are_counted(self):
        _, result = _lint_fixture("suppressions.py")
        assert result.findings == []
        assert {f.rule for f in result.suppressed} == {"R1", "R3"}
        assert len(result.suppressed) == 2


class TestClosureResolution:
    def test_foreign_closure_name_does_not_resolve(self):
        # ``HEADER.unpack_plan_header(data)`` in a sandbox entry shares its
        # bare name with a raw-path closure in another module; the call
        # must not resolve to it, or R7 reports a crossing the entry never
        # makes.
        result = lint_paths([str(FIXTURES / "closure_pair")])
        assert not result.errors
        assert result.files == 2
        assert [f.render() for f in result.findings] == []


class TestRepoIsClean:
    def test_no_findings_in_src_repro(self):
        result = lint_paths([str(REPO_SRC)])
        assert not result.errors
        assert [f.render() for f in result.findings] == []
        assert result.files > 50


class TestWitnesses:
    """Interprocedural findings carry the ``f -> g -> h`` call path."""

    def test_r5_findings_have_two_hop_witnesses(self):
        _, result = _lint_fixture("r5_violations.py")
        r5 = [f for f in result.findings if f.rule == "R5"]
        assert r5
        for finding in r5:
            assert len(finding.call_path) >= 2, finding.render()
            # The chain starts at the reporting domain body.
            assert finding.call_path[0].function == finding.qualname
            for hop in finding.call_path:
                assert hop.path.endswith("r5_violations.py")
                assert hop.line > 0

    def test_deep_chain_has_three_hops(self):
        _, result = _lint_fixture("r5_violations.py")
        deep = [
            f
            for f in result.findings
            if f.qualname == "leak_deep_helper_return"
        ]
        assert len(deep) == 1
        functions = [hop.function for hop in deep[0].call_path]
        assert functions == [
            "leak_deep_helper_return", "fetch_view_indirect", "fetch_view",
        ]

    def test_witness_rendered_in_human_output(self):
        _, result = _lint_fixture("r5_violations.py")
        rendered = [f.render() for f in result.findings if f.call_path]
        assert rendered
        for text in rendered:
            assert "[witness: " in text
            assert " -> " in text

    def test_witness_in_json_output(self, capsys):
        code = lint_main(
            [
                str(FIXTURES / "r5_violations.py"),
                "--no-baseline", "--no-cache", "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        witnessed = [f for f in payload["findings"] if f["call_path"]]
        assert witnessed
        for record in witnessed:
            assert len(record["call_path"]) >= 2
            for hop in record["call_path"]:
                assert set(hop) == {"function", "path", "line"}

    def test_r6_unguarded_path_witness(self):
        _, result = _lint_fixture("r6_violations.py")
        poked = [f for f in result.findings if f.qualname == "poke_gate"]
        assert len(poked) == 1
        functions = [hop.function for hop in poked[0].call_path]
        assert functions == ["unguarded_root", "poke_gate"]

    def test_r7_raw_helper_witness(self):
        _, result = _lint_fixture("r7_violations.py")
        routed = [
            f for f in result.findings if f.qualname == "raw_through_helper"
        ]
        assert len(routed) == 1
        functions = [hop.function for hop in routed[0].call_path]
        assert functions == ["raw_through_helper", "_push_raw"]


class TestSarif:
    GOLDEN = FIXTURES / "golden_sarif.json"

    def _render(self) -> str:
        from repro.analysis import sarif as sarif_mod

        path = "tests/fixtures/sdradlint/r5_violations.py"
        source = (FIXTURES / "r5_violations.py").read_text(encoding="utf-8")
        result = lint_source(path, source)
        return sarif_mod.render(result.sorted_findings()) + "\n"

    def test_matches_golden_file(self):
        assert self._render() == self.GOLDEN.read_text(encoding="utf-8")

    def test_shape_and_witness_locations(self):
        log = json.loads(self._render())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "sdradlint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)
        assert run["results"]
        for res in run["results"]:
            assert res["ruleId"] == "R5"
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith(
                "r5_violations.py"
            )
            assert loc["region"]["startLine"] > 0
            assert len(res["relatedLocations"]) >= 2

    def test_cli_format_sarif(self, capsys):
        code = lint_main(
            [
                str(FIXTURES / "r5_violations.py"),
                "--no-baseline", "--no-cache", "--format", "sarif",
            ]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]


class TestFingerprints:
    SOURCE = (
        "def leaky(handle: DomainHandle, raw):\n"
        "    return handle.load_view(0, 8)\n"
    )

    def test_line_shift_does_not_change_fingerprint(self):
        before = lint_source("m.py", self.SOURCE).findings
        after = lint_source("m.py", "\n\n\n" + self.SOURCE).findings
        assert len(before) == len(after) == 1
        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint


class TestCli:
    def test_violations_exit_1(self, capsys):
        code = lint_main(
            [str(FIXTURES / "r1_violations.py"), "--no-baseline"]
        )
        assert code == 1
        assert "R1" in capsys.readouterr().out

    def test_clean_file_exits_0(self, capsys):
        code = lint_main([str(FIXTURES / "r1_ok.py"), "--no-baseline"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_rules_filter(self, capsys):
        code = lint_main(
            [str(FIXTURES / "r1_violations.py"), "--no-baseline", "--rules", "R4"]
        )
        assert code == 0
        capsys.readouterr()

    def test_unknown_rule_exits_2(self, capsys):
        code = lint_main([str(FIXTURES), "--rules", "R9"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_json_output_shape(self, capsys):
        code = lint_main(
            [str(FIXTURES / "r4_violations.py"), "--no-baseline", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert payload["baselined"] == []
        assert payload["findings"]
        record = payload["findings"][0]
        assert set(record) == {
            "rule", "severity", "path", "line", "col",
            "function", "message", "fingerprint", "call_path",
        }
        assert record["rule"] == "R4"

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        assert lint_main([str(bad), "--no-baseline"]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        target = str(FIXTURES / "r2_violations.py")
        blfile = str(tmp_path / "bl.json")
        assert lint_main([target, "--write-baseline", "--baseline", blfile]) == 0
        capsys.readouterr()
        # Same findings are now all baselined: gate passes.
        assert lint_main([target, "--baseline", blfile]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "0 baselined" not in out
        entries = baseline_mod.load(blfile)
        assert entries and all(len(k) == 16 for k in entries)
