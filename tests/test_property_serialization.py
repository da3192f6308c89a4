"""Property-based tests: serializers must round-trip the whole FFI data model."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ffi.serialization import (
    BincodeSerializer,
    JsonSerializer,
    MsgpackSerializer,
    PickleSerializer,
)

# The FFI data model: scalars + lists + string-keyed dicts, bounded depth.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)

ffi_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=16), children, max_size=6),
    ),
    max_leaves=25,
)

SERIALIZERS = [
    BincodeSerializer(),
    MsgpackSerializer(),
    JsonSerializer(),
    PickleSerializer(),
]


@settings(max_examples=150, deadline=None)
@given(value=ffi_values)
def test_bincode_roundtrip(value):
    s = BincodeSerializer()
    assert s.decode(s.encode(value)) == value


@settings(max_examples=150, deadline=None)
@given(value=ffi_values)
def test_msgpack_roundtrip(value):
    s = MsgpackSerializer()
    assert s.decode(s.encode(value)) == value


@settings(max_examples=150, deadline=None)
@given(value=ffi_values)
@example(value={"__ffi_bytes__": ""})
@example(value={"__ffi_bytes__": b"x"})
@example(value={"__ffi_dict__": {"__ffi_bytes__": None}})
@example(value=[{"__ffi_bytes__": 1}, {"__ffi_bytes__": "s", "k": b""}])
def test_json_roundtrip(value):
    s = JsonSerializer()
    assert s.decode(s.encode(value)) == value


@settings(max_examples=150, deadline=None)
@given(value=ffi_values)
def test_pickle_roundtrip(value):
    s = PickleSerializer()
    assert s.decode(s.encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(value=ffi_values)
def test_serializers_agree_on_values(value):
    """All serializers must decode to the *same* value (shared data model)."""
    decoded = [s.decode(s.encode(value)) for s in SERIALIZERS]
    assert all(d == decoded[0] for d in decoded)


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(max_size=128))
def test_bincode_never_crashes_on_garbage(garbage):
    """Attacker-controlled bytes must raise SerializationError, never crash."""
    from repro.errors import SerializationError

    s = BincodeSerializer()
    try:
        s.decode(garbage)
    except SerializationError:
        pass


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(max_size=128))
def test_msgpack_never_crashes_on_garbage(garbage):
    from repro.errors import SerializationError

    s = MsgpackSerializer()
    try:
        s.decode(garbage)
    except SerializationError:
        pass


@settings(max_examples=100, deadline=None)
@given(garbage=st.binary(max_size=128))
@example(garbage=b'{"__ffi_bytes__": ""}')
@example(garbage=b'{"__ffi_bytes__": null}')
@example(garbage=b'{"__ffi_bytes__": 1}')
@example(garbage=b'{"__ffi_bytes__": "\\u0100"}')
@example(garbage=b'{"__ffi_dict__": 1}')
def test_json_never_crashes_on_garbage(garbage):
    from repro.errors import SerializationError

    s = JsonSerializer()
    try:
        s.decode(garbage)
    except SerializationError:
        pass
