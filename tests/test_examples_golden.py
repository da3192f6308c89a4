"""Every example script prints exactly its recorded output.

The examples drive the whole stack end to end (domains, servers, the
fleet, key virtualisation, FFI, the sustainability ledger) and print
virtual time, counters and responses that are exact functions of their
seeds. Each script's stdout is recorded under ``examples/golden/``; a
change that moves one printed line fails here, and re-recording is an
explicit step (``make examples-golden``), never a side effect of a test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
GOLDEN = EXAMPLES / "golden"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))


def test_every_example_has_exactly_one_golden():
    assert SCRIPTS
    assert {p.stem for p in SCRIPTS} == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_example_output_matches_golden(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    golden = (GOLDEN / f"{script.stem}.txt").read_text()
    assert run.stdout == golden
