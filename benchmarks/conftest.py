"""Shared helpers for the experiment benchmarks.

Every benchmark prints the table/series it reproduces (run with ``-s`` to
see them); ``pytest-benchmark`` additionally times the representative
operation so regressions in the simulator itself are visible.

The printed tables are virtual-time results, exact functions of the code
and its seeds, so each experiment's tables are recorded in
``benchmarks/golden/<module>.txt``, one ``### <test>`` section per test.
:func:`experiment_printer` compares what a test printed with its section
when the test finishes; a moved line fails that test. Re-recording is an
explicit step, ``make tables-golden``, which runs the whole suite with
``REPRO_RECORD_TABLES=1`` and rewrites the files from what it printed.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SECTION = re.compile(r"^### (test_\S+)\n", re.MULTILINE)


def print_experiment(title: str, body: str) -> None:
    """Uniform experiment output block (quoted in EXPERIMENTS.md)."""
    print(_block(title, body), end="")


def _block(title: str, body: str) -> str:
    bar = "=" * max(len(title), 40)
    return f"\n{bar}\n{title}\n{bar}\n{body}\n\n"


def _golden_path(module: str) -> Path:
    return GOLDEN_DIR / f"{module.rpartition('.')[2]}.txt"


def _read_sections(path: Path) -> "dict[str, str]":
    if not path.exists():
        return {}
    parts = _SECTION.split(path.read_text(encoding="utf-8"))
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.fixture(scope="session")
def _table_goldens():
    """Per-module sections: read once to compare, or collected to record."""
    recording = os.environ.get("REPRO_RECORD_TABLES") == "1"
    goldens: "dict[str, dict[str, str]]" = {}
    yield recording, goldens
    if recording:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for module, sections in goldens.items():
            _golden_path(module).write_text(
                "".join(f"### {name}\n{text}" for name, text in sections.items()),
                encoding="utf-8",
            )


@pytest.fixture
def experiment_printer(request, _table_goldens):
    recording, goldens = _table_goldens
    blocks: "list[str]" = []

    def printer(title: str, body: str) -> None:
        print_experiment(title, body)
        blocks.append(_block(title, body))

    yield printer
    module = request.module.__name__
    name = request.node.name
    printed = "".join(blocks)
    if recording:
        goldens.setdefault(module, {})[name] = printed
        return
    if module not in goldens:
        goldens[module] = _read_sections(_golden_path(module))
    recorded = goldens[module].get(name)
    assert recorded is not None, (
        f"no recorded tables for {name} in {_golden_path(module).name}; "
        "run `make tables-golden`"
    )
    assert printed == recorded, (
        f"{name} printed tables that differ from "
        f"{_golden_path(module).name}; re-record with `make tables-golden` "
        "and name the moved lines in CHANGES.md"
    )
