"""Every module under ``repro`` imports cleanly.

Some modules (``repro.__main__``, the isolation backends, CLI helpers) have
no test that imports them directly, so a dangling import left behind by a
deleted module would otherwise surface only when that code path runs.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def test_walk_finds_the_package_tree():
    assert "repro.__main__" in MODULES
    assert "repro.memory.backends" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
