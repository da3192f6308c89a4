"""Serializers for cross-domain argument passing (SDRaD-FFI §III).

The paper: "SDRaD-FFI can support arbitrary argument passing between domains
using different Rust serialization crates. We plan to evaluate different
serialization crates ..." — experiment E6 performs that evaluation. Each
serializer here is a stand-in for one crate family:

* :class:`BincodeSerializer` — compact, schema-less binary (bincode);
* :class:`MsgpackSerializer` — self-describing binary (rmp-serde); our own
  minimal msgpack-style encoder, no external dependency;
* :class:`JsonSerializer`   — human-readable text (serde_json);
* :class:`PickleSerializer` — the host language's native serializer, the
  "maximally convenient, maximally trusting" end of the spectrum.

Two costs matter and are tracked separately: *encoded size* (drives the
cross-domain copy) and *encode/decode time* (charged from the cost model's
per-serializer bandwidth calibration, E6's independent variable).

Supported value domain: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, and lists/tuples/dicts thereof — the same closed data model a
``serde``-serializable FFI surface has. Arbitrary objects are rejected with
:class:`~repro.errors.SerializationError`, mirroring how a Rust FFI boundary
cannot pass arbitrary ``dyn Any``.
"""

from __future__ import annotations

import json
import pickle
import struct
from typing import Any

from ..errors import SerializationError

_SCALARS = (type(None), bool, int, float, str, bytes)


def check_serializable(value: Any, _depth: int = 0) -> None:
    """Reject values outside the FFI data model (recursively)."""
    if _depth > 64:
        raise SerializationError("value nesting exceeds FFI depth limit (64)")
    if isinstance(value, _SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            check_serializable(item, _depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"FFI dict keys must be str, got {type(key).__name__}"
                )
            check_serializable(item, _depth + 1)
        return
    raise SerializationError(
        f"type {type(value).__name__} cannot cross the FFI boundary"
    )


class Serializer:
    """Interface all serializers implement."""

    name = "abstract"

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class BincodeSerializer(Serializer):
    """Compact tag-prefixed binary encoding (bincode stand-in).

    Format: one tag byte, then a fixed or length-prefixed payload.
    Integers use zig-zag-free signed 64-bit (with a big-int escape),
    lengths are u32 little-endian.
    """

    name = "bincode"

    _T_NONE, _T_FALSE, _T_TRUE = 0x00, 0x01, 0x02
    _T_I64, _T_BIGINT, _T_F64 = 0x03, 0x04, 0x05
    _T_STR, _T_BYTES, _T_LIST, _T_DICT = 0x06, 0x07, 0x08, 0x09

    def encode(self, value: Any) -> bytes:
        check_serializable(value)
        out = bytearray()
        self._enc(value, out)
        return bytes(out)

    def _enc(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(self._T_NONE)
        elif value is True:
            out.append(self._T_TRUE)
        elif value is False:
            out.append(self._T_FALSE)
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                out.append(self._T_I64)
                out += struct.pack("<q", value)
            else:
                raw = value.to_bytes(
                    (value.bit_length() + 8) // 8, "little", signed=True
                )
                out.append(self._T_BIGINT)
                out += struct.pack("<I", len(raw))
                out += raw
        elif isinstance(value, float):
            out.append(self._T_F64)
            out += struct.pack("<d", value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(self._T_STR)
            out += struct.pack("<I", len(raw))
            out += raw
        elif isinstance(value, bytes):
            out.append(self._T_BYTES)
            out += struct.pack("<I", len(value))
            out += value
        elif isinstance(value, (list, tuple)):
            out.append(self._T_LIST)
            out += struct.pack("<I", len(value))
            for item in value:
                self._enc(item, out)
        elif isinstance(value, dict):
            out.append(self._T_DICT)
            out += struct.pack("<I", len(value))
            for key, item in value.items():
                raw = key.encode("utf-8")
                out += struct.pack("<I", len(raw))
                out += raw
                self._enc(item, out)
        else:  # pragma: no cover - check_serializable guards this
            raise SerializationError(f"unsupported type {type(value).__name__}")

    def decode(self, data: bytes) -> Any:
        value, offset = self._dec(data, 0)
        if offset != len(data):
            raise SerializationError(
                f"trailing garbage after bincode value ({len(data) - offset} bytes)"
            )
        return value

    def _dec(self, data: bytes, offset: int) -> tuple[Any, int]:
        try:
            tag = data[offset]
        except IndexError:
            raise SerializationError("truncated bincode data") from None
        offset += 1
        try:
            if tag == self._T_NONE:
                return None, offset
            if tag == self._T_TRUE:
                return True, offset
            if tag == self._T_FALSE:
                return False, offset
            if tag == self._T_I64:
                return struct.unpack_from("<q", data, offset)[0], offset + 8
            if tag == self._T_BIGINT:
                (length,) = struct.unpack_from("<I", data, offset)
                offset += 4
                raw = data[offset : offset + length]
                if len(raw) != length:
                    raise SerializationError("truncated bigint")
                return int.from_bytes(raw, "little", signed=True), offset + length
            if tag == self._T_F64:
                return struct.unpack_from("<d", data, offset)[0], offset + 8
            if tag in (self._T_STR, self._T_BYTES):
                (length,) = struct.unpack_from("<I", data, offset)
                offset += 4
                raw = data[offset : offset + length]
                if len(raw) != length:
                    raise SerializationError("truncated string/bytes")
                offset += length
                return (raw.decode("utf-8") if tag == self._T_STR else bytes(raw)), offset
            if tag == self._T_LIST:
                (count,) = struct.unpack_from("<I", data, offset)
                offset += 4
                items = []
                for _ in range(count):
                    item, offset = self._dec(data, offset)
                    items.append(item)
                return items, offset
            if tag == self._T_DICT:
                (count,) = struct.unpack_from("<I", data, offset)
                offset += 4
                result: dict[str, Any] = {}
                for _ in range(count):
                    (klen,) = struct.unpack_from("<I", data, offset)
                    offset += 4
                    key = data[offset : offset + klen].decode("utf-8")
                    offset += klen
                    item, offset = self._dec(data, offset)
                    result[key] = item
                return result, offset
        except struct.error as exc:
            raise SerializationError(f"truncated bincode data: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid UTF-8 in bincode data: {exc}") from exc
        raise SerializationError(f"unknown bincode tag {tag:#x}")


class MsgpackSerializer(Serializer):
    """Minimal msgpack-compatible subset encoder (rmp-serde stand-in)."""

    name = "msgpack"

    def encode(self, value: Any) -> bytes:
        check_serializable(value)
        out = bytearray()
        self._enc(value, out)
        return bytes(out)

    def _enc(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(0xC0)
        elif value is False:
            out.append(0xC2)
        elif value is True:
            out.append(0xC3)
        elif isinstance(value, int):
            if 0 <= value < 128:
                out.append(value)
            elif -32 <= value < 0:
                out.append(value & 0xFF)
            elif -(2**63) <= value < 2**63:
                out.append(0xD3)
                out += struct.pack(">q", value)
            else:
                raise SerializationError("msgpack cannot encode >64-bit integers")
        elif isinstance(value, float):
            out.append(0xCB)
            out += struct.pack(">d", value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(0xDB)
            out += struct.pack(">I", len(raw))
            out += raw
        elif isinstance(value, bytes):
            out.append(0xC6)
            out += struct.pack(">I", len(value))
            out += value
        elif isinstance(value, (list, tuple)):
            out.append(0xDD)
            out += struct.pack(">I", len(value))
            for item in value:
                self._enc(item, out)
        elif isinstance(value, dict):
            out.append(0xDF)
            out += struct.pack(">I", len(value))
            for key, item in value.items():
                self._enc(key, out)
                self._enc(item, out)
        else:  # pragma: no cover
            raise SerializationError(f"unsupported type {type(value).__name__}")

    def decode(self, data: bytes) -> Any:
        value, offset = self._dec(data, 0)
        if offset != len(data):
            raise SerializationError("trailing garbage after msgpack value")
        return value

    def _dec(self, data: bytes, offset: int) -> tuple[Any, int]:
        try:
            tag = data[offset]
        except IndexError:
            raise SerializationError("truncated msgpack data") from None
        offset += 1
        try:
            if tag < 0x80:
                return tag, offset
            if tag >= 0xE0:
                return tag - 0x100, offset
            if tag == 0xC0:
                return None, offset
            if tag == 0xC2:
                return False, offset
            if tag == 0xC3:
                return True, offset
            if tag == 0xD3:
                return struct.unpack_from(">q", data, offset)[0], offset + 8
            if tag == 0xCB:
                return struct.unpack_from(">d", data, offset)[0], offset + 8
            if tag in (0xDB, 0xC6):
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                raw = data[offset : offset + length]
                if len(raw) != length:
                    raise SerializationError("truncated msgpack payload")
                offset += length
                return (raw.decode("utf-8") if tag == 0xDB else bytes(raw)), offset
            if tag == 0xDD:
                (count,) = struct.unpack_from(">I", data, offset)
                offset += 4
                items = []
                for _ in range(count):
                    item, offset = self._dec(data, offset)
                    items.append(item)
                return items, offset
            if tag == 0xDF:
                (count,) = struct.unpack_from(">I", data, offset)
                offset += 4
                result = {}
                for _ in range(count):
                    key, offset = self._dec(data, offset)
                    if not isinstance(key, str):
                        raise SerializationError("msgpack map key must be str")
                    item, offset = self._dec(data, offset)
                    result[key] = item
                return result, offset
        except struct.error as exc:
            raise SerializationError(f"truncated msgpack data: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid UTF-8 in msgpack data: {exc}") from exc
        raise SerializationError(f"unsupported msgpack tag {tag:#x}")


class JsonSerializer(Serializer):
    """serde_json stand-in. ``bytes`` ride as latin-1 strings under a marker.

    A user dict whose only key is a marker is escaped under
    ``_ESCAPE_MARKER`` so it cannot decode as something else.
    """

    name = "json"
    _BYTES_MARKER = "__ffi_bytes__"
    _ESCAPE_MARKER = "__ffi_dict__"

    def encode(self, value: Any) -> bytes:
        check_serializable(value)
        return json.dumps(self._wrap(value), separators=(",", ":")).encode("utf-8")

    def decode(self, data: bytes) -> Any:
        try:
            return self._unwrap(json.loads(data.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SerializationError(f"invalid JSON payload: {exc}") from exc

    def _wrap(self, value: Any) -> Any:
        if isinstance(value, bytes):
            return {self._BYTES_MARKER: value.decode("latin-1")}
        if isinstance(value, (list, tuple)):
            return [self._wrap(v) for v in value]
        if isinstance(value, dict):
            wrapped = {k: self._wrap(v) for k, v in value.items()}
            if len(value) == 1 and (
                self._BYTES_MARKER in value or self._ESCAPE_MARKER in value
            ):
                return {self._ESCAPE_MARKER: wrapped}
            return wrapped
        return value

    def _unwrap(self, value: Any) -> Any:
        if isinstance(value, list):
            return [self._unwrap(v) for v in value]
        if isinstance(value, dict):
            if len(value) == 1 and self._BYTES_MARKER in value:
                text = value[self._BYTES_MARKER]
                if not isinstance(text, str):
                    raise SerializationError("JSON bytes marker must hold a string")
                # A non-latin-1 code point raises UnicodeEncodeError, a
                # ValueError that decode() reports as SerializationError.
                return text.encode("latin-1")
            if len(value) == 1 and self._ESCAPE_MARKER in value:
                value = value[self._ESCAPE_MARKER]
                if not isinstance(value, dict):
                    raise SerializationError("JSON dict escape must hold an object")
            return {k: self._unwrap(v) for k, v in value.items()}
        return value


class PickleSerializer(Serializer):
    """Host-native serializer; still restricted to the FFI data model.

    The restriction matters: the point of the sandbox is that a compromised
    domain's *output* is data, not live objects. Unpickling arbitrary
    classes would hand the attacker a constructor gadget.
    """

    name = "pickle"

    def encode(self, value: Any) -> bytes:
        check_serializable(value)
        return pickle.dumps(_listify(value), protocol=4)

    def decode(self, data: bytes) -> Any:
        try:
            value = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - pickle raises broadly
            raise SerializationError(f"invalid pickle payload: {exc}") from exc
        check_serializable(value)
        return value


def _listify(value: Any) -> Any:
    """Normalise tuples to lists so every serializer agrees on the data
    model (a Rust FFI boundary has no tuple/list distinction either)."""
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


_REGISTRY: dict[str, Serializer] = {
    s.name: s
    for s in (
        BincodeSerializer(),
        MsgpackSerializer(),
        JsonSerializer(),
        PickleSerializer(),
    )
}


def get_serializer(name: str) -> Serializer:
    """Look up a built-in serializer by crate-style name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SerializationError(
            f"unknown serializer {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_serializers() -> list[str]:
    return sorted(_REGISTRY)
