"""Workload generation: key popularity, clients, traces."""

from .clients import (
    HttpClient,
    MaliciousHttpClient,
    MaliciousMemcachedClient,
    MemcachedClient,
    build_population,
)
from .traces import TraceEntry, WorkloadTrace, generate_trace
from .zipf import Keyspace, KeyValueWorkload, ValueSizer

__all__ = [
    "HttpClient",
    "MaliciousHttpClient",
    "MaliciousMemcachedClient",
    "MemcachedClient",
    "build_population",
    "TraceEntry",
    "WorkloadTrace",
    "generate_trace",
    "Keyspace",
    "KeyValueWorkload",
    "ValueSizer",
]
