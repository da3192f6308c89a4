"""Per-layer tracing by wrapping public functions from outside.

The traced run (``--trace 1``) replaces a fixed set of public methods with
timing wrappers before the timed phase starts. Each wrapper measures host
time (``perf_counter``) and virtual time (the system's clock) around the
call; a layer's *self* time is its wrappers' durations minus the part
covered by wrapped calls nested inside them. Calls that reach no wrapper
land in ``other``. Nothing inside ``src/`` is edited: a method the current
tree no longer has is simply not wrapped, and its layer reads zero.

``SdradRuntime.execute`` is split by outcome: calls that return ok are
``sdrad.gate``, calls that return a fault (or raise) are ``sdrad.rewind``.
The body function it is given is wrapped as ``parse``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

#: layer -> [(module, class, method names)], in reporting order.
LAYER_TARGETS = {
    "fleet": [("repro.fleet.balancer", "Fleet", ("get", "set", "multiget"))],
    "fleet.health": [("repro.fleet.health", "HealthMonitor", ("tick",))],
    "apps": [
        ("repro.apps.memcached_server", "MemcachedServer", ("handle", "handle_batch"))
    ],
    "parse": [],
    "sdrad.gate": [],
    "sdrad.rewind": [],
    "sdrad.lifecycle": [
        ("repro.sdrad.runtime", "SdradRuntime", ("domain_init", "domain_destroy"))
    ],
    "memory.stack": [
        ("repro.sdrad.runtime", "DomainHandle", ("push_frame", "pop_frame")),
        ("repro.memory.stack", "StackFrame", ("alloca", "write_buffer")),
    ],
    "memory.alloc": [("repro.sdrad.runtime", "DomainHandle", ("malloc", "free"))],
    "memory.access": [
        (
            "repro.sdrad.runtime",
            "DomainHandle",
            ("load", "store", "load_view", "load_many", "store_many"),
        )
    ],
    "kvstore": [("repro.apps.kvstore", "KVStore", ("get", "get_many", "set", "delete"))],
    "bookkeeping": [("repro.sim.trace", "Tracer", ("record",))],
    "obs": [
        (
            "repro.obs.hub",
            "Observability",
            (
                "start_span",
                "end_span",
                "event",
                "record_request",
                "record_requests",
                "record_request_batch",
                "record_batch",
                "record_pipeline",
            ),
        )
    ],
}
LAYERS = tuple(LAYER_TARGETS)
BACKENDS = ("mpk", "cheri", "sfi")
#: Root calls (requests, or pipelines) whose spans are kept.
SPAN_REQUESTS = 2000


class LayerTrace:
    """Wraps the layer boundaries and accumulates per-layer totals."""

    def __init__(self, virtual_now) -> None:
        self.virtual_now = virtual_now
        self.calls = dict.fromkeys(LAYERS, 0)
        self.host = dict.fromkeys(LAYERS, 0.0)
        self.virtual = dict.fromkeys(LAYERS, 0.0)
        #: ``(layer, backend) -> virtual seconds`` for the gate and rewind.
        self.backend_virtual = {
            (layer, backend): 0.0
            for layer in ("sdrad.gate", "sdrad.rewind")
            for backend in BACKENDS
        }
        self.batches = 0
        self.fallback_batches = 0
        self.spans: list = []
        self._roots = 0
        self._origin = perf_counter()
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, servers=()) -> None:
        """Wrap every target that exists, plus ``servers``' bound entry points.

        ``MemcachedServer.__init__`` binds ``handle``/``handle_batch`` on the
        instance when obs is off, which bypasses the class attribute.
        """
        for layer, targets in LAYER_TARGETS.items():
            for module_name, class_name, methods in targets:
                try:
                    owner = getattr(importlib.import_module(module_name), class_name)
                except (ImportError, AttributeError):
                    continue
                for method in methods:
                    if method in vars(owner):
                        self._patch(owner, method, self._wrap(getattr(owner, method), layer))
        try:
            runtime_cls = importlib.import_module("repro.sdrad.runtime").SdradRuntime
        except (ImportError, AttributeError):
            runtime_cls = None
        if runtime_cls is not None and "execute" in vars(runtime_cls):
            self._patch(runtime_cls, "execute", self._wrap_execute(runtime_cls.execute))
        for server in servers:
            for method in ("handle", "handle_batch"):
                if method in vars(server):
                    self._patch(server, method, self._wrap(getattr(server, method), "apps"))

    def uninstall(self) -> None:
        for owner, name, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _patch(self, owner, name, replacement) -> None:
        had_own = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        if not stack:
            self._roots += 1
        # [child host, child virtual, host start, virtual start, span index]
        frame = [0.0, 0.0, perf_counter(), self.virtual_now(), None]
        if self._roots <= SPAN_REQUESTS:
            frame[4] = len(self.spans)
            parent = stack[-1][4] if stack else None
            self.spans.append([name, frame[2], None, parent, self._roots])
        stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, backend=None) -> None:
        end = perf_counter()
        virtual_end = self.virtual_now()
        stack = self._stack
        stack.pop()
        host = end - frame[2]
        virtual = virtual_end - frame[3]
        if stack:
            parent = stack[-1]
            parent[0] += host
            parent[1] += virtual
        self.calls[layer] += 1
        self.host[layer] += host - frame[0]
        self.virtual[layer] += virtual - frame[1]
        if backend is not None:
            key = (layer, backend)
            if key in self.backend_virtual:
                self.backend_virtual[key] += virtual - frame[1]
        if frame[4] is not None:
            span = self.spans[frame[4]]
            span[2] = end
            if span[0] is None:
                span[0] = f"{layer}/SdradRuntime.execute"

    def _wrap(self, fn, layer: str):
        name = f"{layer}/{getattr(fn, '__qualname__', fn)}"
        batch = getattr(fn, "__name__", "") in ("handle_batch", "_handle_batch")

        def traced(*args, **kwargs):
            frame = self._open(name)
            rewinds = self.calls["sdrad.rewind"]
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, layer)
                if batch:
                    self.batches += 1
                    if self.calls["sdrad.rewind"] != rewinds:
                        self.fallback_batches += 1

        return traced

    def _wrap_execute(self, execute):
        bodies: dict = {}

        def traced(runtime, udi, fn, *args, **kwargs):
            body = bodies.get(fn)
            if body is None:
                if len(bodies) >= 64:  # bodies built per call would grow it
                    bodies.clear()
                body = bodies[fn] = self._wrap(fn, "parse")
            # The span's name is filled in at close, once the outcome is known.
            frame = self._open(None)
            layer = "sdrad.rewind"
            try:
                result = execute(runtime, udi, body, *args, **kwargs)
                if result.ok:
                    layer = "sdrad.gate"
                return result
            finally:
                self._close(frame, layer, getattr(runtime.backend, "name", None))

        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def counts(self) -> dict:
        """The count-like totals (calls, virtual time), for a prefix snapshot."""
        return {
            "calls": dict(self.calls),
            "virtual": dict(self.virtual),
            "backend_virtual": dict(self.backend_virtual),
            "batches": self.batches,
            "fallback_batches": self.fallback_batches,
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as JSONL: id, name, start, end, parent, request."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - self._origin,
                            "end": None if end is None else end - self._origin,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
