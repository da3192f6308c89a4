"""Argument/return marshalling across the domain boundary.

SDRaD-FFI's data flow for one sandboxed call (§III of the paper):

1. serialize the arguments on the trusted side;
2. copy the bytes into the sandbox domain's heap (the only memory the
   foreign function can touch);
3. run the foreign function inside the domain, giving it the *domain-local*
   deserialized arguments;
4. serialize the result inside the domain, copy it out;
5. deserialize on the trusted side — with full validation, because the
   bytes come from a possibly-compromised domain.

Step 5's validation is the security linchpin: a compromised sandbox can
return arbitrary bytes, so the trusted-side decode must treat them as
attacker-controlled input. All our serializers raise
:class:`~repro.errors.SerializationError` on malformed input rather than
crashing, and :func:`unmarshal_result` converts that into a domain fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import SerializationError
from ..sdrad.runtime import SdradRuntime
from .serialization import Serializer


@dataclass
class MarshalledCall:
    """Arguments staged inside a domain, ready for the foreign function."""

    domain_addr: int
    encoded_size: int
    args: tuple
    kwargs: dict[str, Any]


@dataclass
class MarshalStats:
    """Byte/time accounting for one sandboxed call (E6's measurements)."""

    serializer: str
    args_bytes: int = 0
    result_bytes: int = 0
    serialize_time: float = 0.0
    copy_time: float = 0.0


def marshal_args(
    runtime: SdradRuntime,
    udi: int,
    serializer: Serializer,
    args: tuple,
    kwargs: dict[str, Any],
    stats: Optional[MarshalStats] = None,
) -> MarshalledCall:
    """Serialize ``args``/``kwargs`` and copy them into domain ``udi``."""
    payload = {"args": list(args), "kwargs": kwargs}
    encoded = serializer.encode(payload)
    serialize_cost = runtime.cost.serialize_time(serializer.name, len(encoded))
    runtime.charge(serialize_cost)
    addr = runtime.copy_into(udi, encoded)
    # Deserialize "inside" the domain: the foreign function sees its own
    # private copies, never references into trusted memory.
    decode_cost = runtime.cost.serialize_time(serializer.name, len(encoded))
    runtime.charge(decode_cost)
    decoded = serializer.decode(encoded)
    # The transport buffer has served its purpose; the wrapper frees it so
    # long-lived sandbox domains don't leak one block per call.
    runtime.domain(udi).heap.free(addr)
    if stats is not None:
        stats.args_bytes += len(encoded)
        stats.serialize_time += serialize_cost + decode_cost
        stats.copy_time += runtime.cost.copy_time(len(encoded))
    return MarshalledCall(
        domain_addr=addr,
        encoded_size=len(encoded),
        args=tuple(decoded["args"]),
        kwargs=dict(decoded["kwargs"]),
    )


def marshal_result(
    runtime: SdradRuntime,
    udi: int,
    serializer: Serializer,
    value: Any,
    stats: Optional[MarshalStats] = None,
) -> bytes:
    """Serialize a foreign function's result inside the domain, copy it out."""
    encoded = serializer.encode(value)
    runtime.charge(runtime.cost.serialize_time(serializer.name, len(encoded)))
    heap = runtime.domain(udi).heap
    addr = heap.malloc(max(len(encoded), 1))
    runtime.space.raw_store(addr, encoded)
    out = runtime.copy_out(udi, addr, len(encoded))
    heap.free(addr)
    if stats is not None:
        stats.result_bytes += len(encoded)
        stats.serialize_time += runtime.cost.serialize_time(
            serializer.name, len(encoded)
        )
        stats.copy_time += runtime.cost.copy_time(len(encoded))
    return out


def unmarshal_result(
    runtime: SdradRuntime, serializer: Serializer, encoded: bytes
) -> Any:
    """Trusted-side decode of bytes received from the sandbox.

    Raises :class:`SerializationError` (treated as a sandbox violation by
    the caller) when the bytes are malformed — attacker-controlled output
    must not crash the trusted side.
    """
    runtime.charge(runtime.cost.serialize_time(serializer.name, len(encoded)))
    return serializer.decode(encoded)


def roundtrip_check(serializer: Serializer, value: Any) -> bool:
    """Does ``value`` survive an encode/decode cycle? (property-test hook)"""
    try:
        return serializer.decode(serializer.encode(value)) == value
    except SerializationError:
        return False
