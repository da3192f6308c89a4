"""E7 — retrofit effort: how much code compartmentalisation costs.

Paper claim (§II): "we changed two source files in Memcached and added 484
new lines of wrapper code" — and §III's motivation: SDRaD-FFI's annotations
should shrink that to almost nothing.

Reproduced as: static accounting over our own replicas. For each use case we
measure (a) the lines of the *core application logic* (which a retrofit does
not touch) and (b) the lines of the *integration layer* (server wrapper that
creates domains, routes requests through them and maps faults to protocol
errors) — the analogue of the paper's 484-line patch. All three use cases
share one serving core (``repro.apps.serving``), counted once in its own
row, so each use-case row is the glue specific to that app. For the FFI
path we count the lines a `@sandboxed` annotation costs per function.
Expected shape: integration layers of tens to a few hundred lines per use
case (same order as the paper's patch), and ~1 line per function for the
FFI route.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.apps import (
    http,
    kvstore,
    memcached_server,
    nginx_server,
    openssl_service,
    serving,
    tls,
)
from repro.sustainability.report import format_table


def code_lines(module) -> int:
    """Non-blank, non-comment source lines outside docstrings."""
    source = inspect.getsource(module)
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in docstring_lines
        and line.strip()
        and not line.strip().startswith("#")
    )


USE_CASES = [
    ("memcached", kvstore, memcached_server),
    ("nginx", http, nginx_server),
    ("openssl", tls, openssl_service),
]


def test_e7_retrofit_effort_table(experiment_printer):
    rows = []
    for name, core, integration in USE_CASES:
        core_lines = code_lines(core)
        glue_lines = code_lines(integration)
        rows.append(
            (
                name,
                core_lines,
                glue_lines,
                f"{glue_lines / (core_lines + glue_lines) * 100:.0f} %",
            )
        )
    # The request/rewind/quarantine/batch protocol the three use cases
    # share, counted once: each use-case row is the glue specific to it.
    rows.append(("shared serving core", "-", code_lines(serving), "-"))
    experiment_printer(
        "E7 — retrofit effort per use case "
        "(paper: Memcached patch = 2 files, 484 added lines)",
        format_table(
            ("use case", "core app lines", "integration lines", "glue share"), rows
        ),
    )


def test_e7_integration_same_order_as_paper():
    """Each integration layer is within ~2x of the paper's 484-line patch."""
    for name, _core, integration in USE_CASES:
        glue = code_lines(integration)
        assert 50 < glue < 2 * 484, f"{name}: {glue} lines"


def test_e7_ffi_annotation_is_one_line():
    """The SDRaD-FFI route: sandboxing a function costs one decorator line
    (plus sandbox setup shared across all functions)."""
    from repro.ffi.sandbox import Sandbox
    from repro.sdrad.runtime import SdradRuntime

    sandbox = Sandbox(SdradRuntime())

    # the entire retrofit of this "legacy function":
    @sandbox.sandboxed  # <- one line
    def legacy_parse(data):
        return len(data)

    assert legacy_parse(b"abc") == 3


def test_e7_api_vocabulary_matches_c_library():
    """The facade exposes the call vocabulary the paper's patch uses, so
    line counts are comparable like-for-like."""
    from repro.sdrad.api import SdradApi

    expected = {"sdrad_init", "sdrad_deinit", "sdrad_enter", "sdrad_malloc",
                "sdrad_free", "sdrad_dprotect"}
    assert expected <= {name for name in dir(SdradApi) if name.startswith("sdrad_")}


@pytest.mark.benchmark(group="e7-effort")
def test_e7_bench_line_accounting(benchmark):
    benchmark(lambda: [code_lines(m) for _n, c, i in USE_CASES for m in (c, i)])
