"""Unit tests for the whole-program layer: call graph, SCCs, summaries.

These exercise the machinery directly (not through fixtures): name
resolution policy, Tarjan ordering, fixpoint termination on recursion
and mutual recursion, and the unknown-call conservatism that keeps the
analysis sound when resolution fails.
"""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.model import ModuleModel
from repro.analysis.runner import analyze_sources
from repro.analysis.summaries import compute_summaries, extract_file_facts


def _facts(sources: dict) -> dict:
    return {
        path: extract_file_facts(ModuleModel.parse(path, src))
        for path, src in sources.items()
    }


def _graph(sources: dict) -> CallGraph:
    return CallGraph(_facts(sources))


class TestNameResolution:
    def test_same_module_beats_global(self):
        graph = _graph(
            {
                "a.py": "def helper():\n    pass\n",
                "b.py": "def helper():\n    pass\ndef caller():\n    helper()\n",
            }
        )
        assert graph.resolve("b.py", "helper") == "b.py::helper"
        assert graph.edges["b.py::caller"] == ("b.py::helper",)

    def test_last_definition_wins_within_module(self):
        graph = _graph(
            {
                "a.py": (
                    "def helper():\n    pass\n"
                    "def helper():\n    return 1\n"
                )
            }
        )
        # Both definitions share a qualname; the index points at one key.
        assert graph.resolve("a.py", "helper") == "a.py::helper"

    def test_globally_unique_resolves_across_modules(self):
        graph = _graph(
            {
                "a.py": "def unique_helper():\n    pass\n",
                "b.py": "def caller():\n    unique_helper()\n",
            }
        )
        assert graph.resolve("b.py", "unique_helper") == "a.py::unique_helper"
        assert graph.edges["b.py::caller"] == ("a.py::unique_helper",)

    def test_ambiguous_global_is_unresolved(self):
        graph = _graph(
            {
                "a.py": "def dup():\n    pass\n",
                "b.py": "def dup():\n    pass\n",
                "c.py": "def caller():\n    dup()\n",
            }
        )
        assert graph.resolve("c.py", "dup") is None
        assert graph.edges["c.py::caller"] == ()

    def test_closure_resolves_only_in_its_own_module(self):
        graph = _graph(
            {
                "a.py": (
                    "def factory():\n"
                    "    def inner_only():\n        pass\n"
                    "    inner_only()\n"
                    "    return inner_only\n"
                ),
                "b.py": "def caller():\n    inner_only()\n",
                "c.py": "class C:\n    def unique_method(self):\n        pass\n",
                "d.py": "def factory():\n    def shared():\n        pass\n",
                "e.py": "def shared():\n    pass\n",
            }
        )
        assert graph.resolve("a.py", "inner_only") == "a.py::factory.inner_only"
        assert graph.resolve("b.py", "inner_only") is None
        assert graph.edges["b.py::caller"] == ()
        # Methods are not closures: they still resolve across modules.
        assert graph.resolve("b.py", "unique_method") == "c.py::C.unique_method"
        # A closure still makes a shared name ambiguous.
        assert graph.resolve("b.py", "shared") is None

    def test_undefined_name_is_unresolved(self):
        graph = _graph({"a.py": "def caller():\n    mystery()\n"})
        assert graph.resolve("a.py", "mystery") is None


class TestSccs:
    def test_chain_emits_callees_before_callers(self):
        graph = _graph(
            {
                "a.py": (
                    "def c():\n    pass\n"
                    "def b():\n    c()\n"
                    "def a():\n    b()\n"
                )
            }
        )
        order = [scc for scc in graph.sccs()]
        assert ["a.py::c"] in order and ["a.py::a"] in order
        assert order.index(["a.py::c"]) < order.index(["a.py::b"])
        assert order.index(["a.py::b"]) < order.index(["a.py::a"])

    def test_self_recursion_is_a_singleton_scc_with_self_edge(self):
        graph = _graph({"a.py": "def f(n):\n    return f(n - 1)\n"})
        assert graph.edges["a.py::f"] == ("a.py::f",)
        assert ["a.py::f"] in list(graph.sccs())

    def test_mutual_recursion_shares_an_scc(self):
        graph = _graph(
            {
                "a.py": (
                    "def even(n):\n    return odd(n - 1)\n"
                    "def odd(n):\n    return even(n - 1)\n"
                    "def caller():\n    return even(4)\n"
                )
            }
        )
        sccs = list(graph.sccs())
        cycle = [s for s in sccs if len(s) > 1]
        assert cycle == [["a.py::even", "a.py::odd"]]
        # The cycle is emitted before the function that calls into it.
        assert sccs.index(cycle[0]) < sccs.index(["a.py::caller"])


class TestSummaryFixpoint:
    def test_recursion_terminates_and_propagates_taint(self):
        result = analyze_sources(
            {
                "m.py": (
                    "def fetch(handle, n):\n"
                    "    if n:\n"
                    "        return fetch(handle, n - 1)\n"
                    "    return handle.load_view(0, 8)\n"
                    "\n"
                    "def body(handle: DomainHandle, raw):\n"
                    "    return fetch(handle, 3)\n"
                )
            }
        )
        assert [f.rule for f in result.findings] == ["R5"]
        finding = result.findings[0]
        assert finding.qualname == "body"
        assert [h.function for h in finding.call_path] == ["body", "fetch"]

    def test_mutual_recursion_terminates_and_propagates_taint(self):
        result = analyze_sources(
            {
                "m.py": (
                    "def ping(handle, n):\n"
                    "    if n:\n"
                    "        return pong(handle, n - 1)\n"
                    "    return handle.load_view(0, 8)\n"
                    "\n"
                    "def pong(handle, n):\n"
                    "    return ping(handle, n)\n"
                    "\n"
                    "def body(handle: DomainHandle, raw):\n"
                    "    return pong(handle, 2)\n"
                )
            }
        )
        assert [f.rule for f in result.findings] == ["R5"]
        functions = [h.function for h in result.findings[0].call_path]
        assert functions[0] == "body"
        assert "ping" in functions or "pong" in functions

    def test_cross_module_witness_spans_both_files(self):
        result = analyze_sources(
            {
                "helpers.py": (
                    "def grab_view(handle):\n"
                    "    return handle.load_view(0, 8)\n"
                ),
                "entry.py": (
                    "def body(handle: DomainHandle, raw):\n"
                    "    return grab_view(handle)\n"
                ),
            }
        )
        assert [f.rule for f in result.findings] == ["R5"]
        hops = result.findings[0].call_path
        assert [h.path for h in hops] == ["entry.py", "helpers.py"]

    def test_pure_recursion_stays_clean(self):
        result = analyze_sources(
            {
                "m.py": (
                    "def depth(handle, n):\n"
                    "    if n:\n"
                    "        return depth(handle, n - 1) + 1\n"
                    "    return 0\n"
                    "\n"
                    "def body(handle: DomainHandle, raw):\n"
                    "    return depth(handle, 3)\n"
                )
            }
        )
        assert result.findings == []


class TestUnknownCallConservatism:
    def test_unresolved_call_propagates_argument_taint(self):
        result = analyze_sources(
            {
                "m.py": (
                    "def body(handle: DomainHandle, raw):\n"
                    "    return mystery(handle.load_view(0, 8))\n"
                )
            }
        )
        assert [f.rule for f in result.findings] == ["R2"]

    def test_sanitizer_still_clears_through_unknown_arg(self):
        result = analyze_sources(
            {
                "m.py": (
                    "def body(handle: DomainHandle, raw):\n"
                    "    return bytes(handle.load_view(0, 8))\n"
                )
            }
        )
        assert result.findings == []

    @pytest.mark.parametrize("n_helpers", [1, 2])
    def test_resolved_sanitizing_helper_is_trusted(self, n_helpers):
        # A *resolved* helper whose summary shows no taint return is
        # trusted — resolution is what buys back precision.
        helper = (
            "def materialise(handle):\n"
            "    return bytes(handle.load_view(0, 8))\n"
        )
        body = (
            "def body(handle: DomainHandle, raw):\n"
            "    return materialise(handle)\n"
        )
        result = analyze_sources({"m.py": helper * n_helpers + body})
        assert result.findings == []
