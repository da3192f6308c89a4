"""Unified observability: tracing spans, metrics, exporters, ledger.

The subsystem the serving stack reports itself through:

* :mod:`~repro.obs.spans` — parent-linked spans over virtual time;
* :mod:`~repro.obs.metrics` — counters/gauges/fixed-bucket histograms in
  one :class:`ObsRegistry` (an exact ``repro.sim.metrics.Histogram`` can
  be adopted into it);
* :mod:`~repro.obs.hub` — the :class:`Observability` hub handed to
  ``SdradRuntime(obs=...)`` and the app servers; deterministic sampling,
  strict no-op when absent;
* :mod:`~repro.obs.exporters` — JSONL traces, Prometheus-text metrics;
* :mod:`~repro.obs.ledger` — live joules/gCO₂e per request per recovery
  strategy, folded from the sustainability models over live metrics.

``repro.obs.report`` (imported on demand by the CLI) runs the demo
workload behind ``python -m repro obs``.
"""

from .exporters import (
    parse_jsonl,
    parse_prometheus_samples,
    prometheus_text,
    spans_to_jsonl,
    write_jsonl,
    write_prometheus,
)
from .hub import DROPPED, UNSAMPLED, Observability
from .metrics import (
    BATCH_SIZE_BUCKETS,
    REQUEST_LATENCY_BUCKETS,
    REWIND_LATENCY_BUCKETS,
    BucketHistogram,
    Counter,
    Gauge,
    ObsRegistry,
)
from .spans import ObsError, Span, SpanBuffer

# The ledger pulls in the sim/resilience/sustainability packages, and
# repro.sim.metrics imports repro.obs.metrics — importing the ledger
# eagerly here would close that loop. PEP 562 lazy attributes keep
# ``from repro.obs import SustainabilityLedger`` working without the
# cycle.
_LAZY = {
    "DEFAULT_DATASET_BYTES": "ledger",
    "LedgerEntry": "ledger",
    "SustainabilityLedger": "ledger",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "BATCH_SIZE_BUCKETS",
    "BucketHistogram",
    "Counter",
    "DEFAULT_DATASET_BYTES",
    "DROPPED",
    "Gauge",
    "LedgerEntry",
    "ObsError",
    "ObsRegistry",
    "Observability",
    "REQUEST_LATENCY_BUCKETS",
    "REWIND_LATENCY_BUCKETS",
    "Span",
    "SpanBuffer",
    "SustainabilityLedger",
    "UNSAMPLED",
    "parse_jsonl",
    "parse_prometheus_samples",
    "prometheus_text",
    "spans_to_jsonl",
    "write_jsonl",
    "write_prometheus",
]
