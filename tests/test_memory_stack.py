"""Tests for canaried call stacks."""

from __future__ import annotations

import pytest

from repro.errors import SdradError, StackCanaryViolation
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.stack import CallStack, stack_seed

STACK_SIZE = 4 * PAGE_SIZE


@pytest.fixture
def space() -> AddressSpace:
    s = AddressSpace(size=16 * PAGE_SIZE)
    s.page_table.map_range(0, 16 * PAGE_SIZE, pkey=0)
    return s


@pytest.fixture
def stack(space: AddressSpace) -> CallStack:
    return CallStack(space, 0, STACK_SIZE, seed=1)


def _canaries(space: AddressSpace, seed: int, count: int = 64) -> list[int]:
    """The canary words of ``count`` successive frames of a fresh stack."""
    stack = CallStack(space, 0, STACK_SIZE, seed=seed)
    out = []
    for i in range(count):
        frame = stack.push_frame(f"f{i}")
        out.append(int.from_bytes(space.raw_load(frame.canary_slot, 8), "little"))
        stack.pop_frame(frame)
    return out


class TestFrames:
    def test_push_pop_clean(self, stack: CallStack):
        frame = stack.push_frame("fn", return_address=0x1234)
        assert stack.pop_frame(frame) == 0x1234
        assert stack.depth == 0

    def test_nested_frames(self, stack: CallStack):
        outer = stack.push_frame("outer")
        inner = stack.push_frame("inner")
        assert stack.depth == 2
        stack.pop_frame(inner)
        stack.pop_frame(outer)
        assert stack.depth == 0

    def test_out_of_order_pop_rejected(self, stack: CallStack):
        outer = stack.push_frame("outer")
        stack.push_frame("inner")
        with pytest.raises(SdradError):
            stack.pop_frame(outer)

    def test_frames_grow_downward(self, stack: CallStack):
        outer = stack.push_frame("outer")
        inner = stack.push_frame("inner")
        assert inner.canary_slot < outer.canary_slot

    def test_stack_overflow_detected_on_push(self, space):
        tiny = CallStack(space, 0, 64, seed=2)
        frames = []
        with pytest.raises(SdradError, match="stack overflow"):
            for i in range(100):
                frames.append(tiny.push_frame(f"f{i}"))


class TestLocals:
    def test_alloca_within_frame(self, stack: CallStack):
        frame = stack.push_frame("fn")
        buf = frame.alloca(64)
        frame.write_buffer(buf, b"x" * 64)
        assert frame.read_buffer(buf, 64) == b"x" * 64
        stack.pop_frame(frame)

    def test_locals_stack_downward(self, stack: CallStack):
        frame = stack.push_frame("fn")
        a = frame.alloca(16)
        b = frame.alloca(16)
        assert b < a
        assert a + 16 <= frame.canary_slot

    def test_alloca_aligned(self, stack: CallStack):
        frame = stack.push_frame("fn")
        addr = frame.alloca(5)
        assert addr % 8 == 0

    def test_alloca_rejects_nonpositive(self, stack: CallStack):
        frame = stack.push_frame("fn")
        with pytest.raises(SdradError):
            frame.alloca(0)

    def test_alloca_on_popped_frame_rejected(self, stack: CallStack):
        frame = stack.push_frame("fn")
        stack.pop_frame(frame)
        with pytest.raises(SdradError):
            frame.alloca(8)

    def test_alloca_exhausting_stack_rejected(self, stack: CallStack):
        frame = stack.push_frame("fn")
        with pytest.raises(SdradError, match="stack overflow"):
            frame.alloca(STACK_SIZE + 64)


class TestCanaries:
    def test_overflow_into_canary_detected_on_pop(self, stack: CallStack):
        frame = stack.push_frame("vuln")
        buf = frame.alloca(16)
        frame.write_buffer(buf, b"A" * 24)  # 8 bytes past the buffer
        with pytest.raises(StackCanaryViolation) as excinfo:
            stack.pop_frame(frame)
        assert excinfo.value.frame == "vuln"

    def test_exact_fill_does_not_trip(self, stack: CallStack):
        frame = stack.push_frame("fn")
        buf = frame.alloca(16)
        frame.write_buffer(buf, b"A" * 16)
        stack.pop_frame(frame)

    def test_overflow_across_intermediate_local(self, stack: CallStack):
        frame = stack.push_frame("fn")
        frame.alloca(16)  # upper local, sits between buf and canary
        buf = frame.alloca(16)
        frame.write_buffer(buf, b"B" * 40)  # crosses both locals + canary
        with pytest.raises(StackCanaryViolation):
            stack.pop_frame(frame)

    def test_check_canaries_without_unwinding(self, stack: CallStack):
        frame = stack.push_frame("fn")
        buf = frame.alloca(16)
        stack.check_canaries()  # clean
        frame.write_buffer(buf, b"C" * 24)
        with pytest.raises(StackCanaryViolation):
            stack.check_canaries()

    def test_canary_has_nul_byte(self, stack: CallStack):
        frame = stack.push_frame("fn")
        canary = stack.space.raw_load(frame.canary_slot, 8)
        assert canary[0] == 0  # little-endian: low byte is the NUL

    def test_canaries_differ_between_frames(self, stack: CallStack):
        a = stack.push_frame("a")
        b = stack.push_frame("b")
        ca = stack.space.raw_load(a.canary_slot, 8)
        cb = stack.space.raw_load(b.canary_slot, 8)
        assert ca != cb

    def test_canaries_are_reproducible_from_the_seed(self, space):
        # Counter-mode splitmix64: the same seed gives the same stream, a
        # different seed a disjoint one.
        assert _canaries(space, seed=7) == _canaries(space, seed=7)
        assert not set(_canaries(space, seed=7)) & set(_canaries(space, seed=8))

    def test_domain_seeds_are_distinct_per_udi_and_root_seed(self):
        seeds = {stack_seed(root, udi) for root in range(4) for udi in range(64)}
        assert len(seeds) == 4 * 64

    def test_unwind_all_skips_canary_checks(self, stack: CallStack):
        frame = stack.push_frame("fn")
        buf = frame.alloca(16)
        frame.write_buffer(buf, b"D" * 24)  # smashed
        stack.unwind_all()  # rewind path: no exception
        assert stack.depth == 0

    def test_inner_smash_does_not_trip_outer(self, stack: CallStack):
        outer = stack.push_frame("outer")
        inner = stack.push_frame("inner")
        buf = inner.alloca(16)
        inner.write_buffer(buf, b"E" * 24)
        with pytest.raises(StackCanaryViolation):
            stack.pop_frame(inner)
        stack.pop_frame(outer)  # outer canary intact


class TestConstruction:
    def test_too_small_rejected(self, space):
        with pytest.raises(SdradError):
            CallStack(space, 0, 16, seed=0)

    def test_used_bytes(self, stack: CallStack):
        assert stack.used_bytes == 0
        frame = stack.push_frame("fn")
        frame.alloca(64)
        assert stack.used_bytes >= 64 + 16

