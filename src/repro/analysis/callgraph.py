"""Project-wide call graph over extracted :class:`~.summaries.FileFacts`.

The graph is deliberately modest — Python's dynamism makes a sound call
graph impossible, and the rules are designed to degrade *conservatively*
when resolution fails (an unresolved call propagates its argument taint,
PR 3 style, instead of being trusted).  Resolution of a call-site name:

1. a function defined in the **same module** with that bare name
   (last definition wins, matching :class:`~.model.ModuleModel`);
2. otherwise a **globally unique** bare name across the project —
   never a closure: a function nested in another function resolves only
   inside its own module, though its name still makes a global name
   ambiguous;
3. otherwise unresolved (``None``).

Method calls resolve by bare attribute name under the same policy — the
``self`` parameter offset is handled at argument-mapping time
(:meth:`~.summaries.FunctionFacts.arg_param_index`).

:meth:`CallGraph.sccs` yields Tarjan strongly-connected components in
**reverse topological order** (callees before callers) — exactly the
order the bottom-up summary fixpoint wants.  The implementation is
iterative: analyzer recursion limits must not depend on analyzed-code
call depth.
"""

from __future__ import annotations

from typing import Iterator, Optional


class CallGraph:
    """Nodes are function keys ``path::qualname``; edges follow calls."""

    def __init__(self, facts_by_path: dict) -> None:
        #: key -> FunctionFacts
        self.nodes: dict = {}
        #: module path -> {bare name -> key} (last definition wins)
        self._module_index: dict[str, dict[str, str]] = {}
        #: bare name -> key if globally unique, else None (ambiguous)
        self._global_index: dict[str, Optional[str]] = {}
        for path in sorted(facts_by_path):
            facts = facts_by_path[path]
            module_names = self._module_index.setdefault(path, {})
            for fn in facts.functions:
                key = f"{path}::{fn.qualname}"
                self.nodes[key] = fn
                module_names[fn.name] = key
                parent = fn.qualname.rpartition(".")[0]
                closure = parent.rpartition(".")[2] not in ("", fn.class_name)
                if closure or fn.name in self._global_index:
                    self._global_index[fn.name] = None  # ambiguous
                else:
                    self._global_index[fn.name] = key
        #: key -> sorted tuple of callee keys
        self.edges: dict[str, tuple] = {}
        #: key -> set of caller keys
        self.callers: dict[str, set] = {key: set() for key in self.nodes}
        for key, fn in self.nodes.items():
            seen: dict = {}
            for name, _line, _col in fn.calls:
                callee = self.resolve(fn.path, name)
                if callee is not None:
                    seen.setdefault(callee, None)
            self.edges[key] = tuple(seen)
            for callee in seen:
                self.callers[callee].add(key)

    # ------------------------------------------------------------------

    def resolve(self, path: str, name: str) -> Optional[str]:
        """Resolve a call-site bare name to a function key, or ``None``."""
        local = self._module_index.get(path, {}).get(name)
        if local is not None:
            return local
        return self._global_index.get(name)

    # ------------------------------------------------------------------

    def sccs(self) -> Iterator[list]:
        """Tarjan SCCs, callees-before-callers, deterministic order."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set = set()
        stack: list = []
        counter = [0]
        out: list[list] = []

        for root in sorted(self.nodes):
            if root in index:
                continue
            # Iterative Tarjan: (node, iterator position) work stack.
            work = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = self.edges[node]
                for i in range(pos, len(succs)):
                    succ = succs[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        yield from out
