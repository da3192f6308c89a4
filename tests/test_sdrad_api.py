"""Tests for the C-shaped SdradApi facade."""

from __future__ import annotations

import pytest

from repro.errors import SegmentationFault
from repro.sdrad.api import SdradApi
from repro.sdrad.constants import DomainFlags, ReturnCode


@pytest.fixture
def api() -> SdradApi:
    return SdradApi()


class TestDomainLifecycle:
    def test_init_success(self, api: SdradApi):
        assert api.sdrad_init(1) is ReturnCode.SUCCESS

    def test_duplicate_init_illegal_state(self, api: SdradApi):
        api.sdrad_init(1)
        assert api.sdrad_init(1) is ReturnCode.ILLEGAL_STATE
        assert api.last_error is not None

    def test_out_of_pkeys(self, api: SdradApi):
        for udi in range(1, 16):
            assert api.sdrad_init(udi) is ReturnCode.SUCCESS
        assert api.sdrad_init(16) is ReturnCode.OUT_OF_PKEYS

    def test_deinit_success(self, api: SdradApi):
        api.sdrad_init(1)
        assert api.sdrad_deinit(1) is ReturnCode.SUCCESS

    def test_stale_pointer_after_deinit_is_a_segmentation_fault(self, api: SdradApi):
        """Deinit unmaps at once, as the C library does: it parks nothing
        for a later init to adopt."""
        api.sdrad_init(1)
        code, addr = api.sdrad_malloc(1, 32)
        assert code is ReturnCode.SUCCESS
        assert api.sdrad_deinit(1) is ReturnCode.SUCCESS
        assert api.runtime._parked is None
        with pytest.raises(SegmentationFault):
            api.runtime.space.load(addr, 8)

    def test_deinit_unknown(self, api: SdradApi):
        assert api.sdrad_deinit(5) is ReturnCode.NO_SUCH_DOMAIN

    def test_custom_sizes(self, api: SdradApi):
        code = api.sdrad_init(2, heap_size=64 * 1024, stack_size=16 * 1024)
        assert code is ReturnCode.SUCCESS
        domain = api.runtime.domain(2)
        assert domain.heap_size == 64 * 1024


class TestEnter:
    def test_clean_call(self, api: SdradApi):
        api.sdrad_init(1)
        code, result = api.sdrad_enter(1, lambda h: "value")
        assert code is ReturnCode.SUCCESS
        assert result.value == "value"

    def test_fault_returns_domain_faulted(self, api: SdradApi):
        api.sdrad_init(1)
        code, result = api.sdrad_enter(1, lambda h: h.store(0, b"x"))
        assert code is ReturnCode.DOMAIN_FAULTED
        assert result is not None and not result.ok

    def test_unknown_domain(self, api: SdradApi):
        code, result = api.sdrad_enter(9, lambda h: None)
        assert code is ReturnCode.NO_SUCH_DOMAIN
        assert result is None

    def test_reentry_is_illegal_state(self, api: SdradApi):
        api.sdrad_init(1)

        def reenter(handle):
            return api.sdrad_enter(1, lambda h: None)

        code, result = api.sdrad_enter(1, reenter)
        assert code is ReturnCode.SUCCESS  # outer call fine
        inner_code, inner_result = result.value
        assert inner_code is ReturnCode.ILLEGAL_STATE
        assert inner_result is None


class TestHeapApi:
    def test_malloc_free(self, api: SdradApi):
        api.sdrad_init(1)
        code, addr = api.sdrad_malloc(1, 64)
        assert code is ReturnCode.SUCCESS and addr > 0
        assert api.sdrad_free(1, addr) is ReturnCode.SUCCESS

    def test_malloc_unknown_domain(self, api: SdradApi):
        code, addr = api.sdrad_malloc(9, 64)
        assert code is ReturnCode.NO_SUCH_DOMAIN and addr == 0

    def test_malloc_oom(self, api: SdradApi):
        api.sdrad_init(1, heap_size=8 * 1024)
        code, addr = api.sdrad_malloc(1, 10 * 1024 * 1024)
        assert code is ReturnCode.OUT_OF_MEMORY

    def test_double_free_invalid_argument(self, api: SdradApi):
        api.sdrad_init(1)
        _, addr = api.sdrad_malloc(1, 64)
        api.sdrad_free(1, addr)
        assert api.sdrad_free(1, addr) is ReturnCode.INVALID_ARGUMENT

    def test_dprotect_stages_data(self, api: SdradApi):
        api.sdrad_init(1)
        code, addr = api.sdrad_dprotect(1, b"sensitive")
        assert code is ReturnCode.SUCCESS
        assert api.runtime.copy_out(1, addr, 9) == b"sensitive"

    def test_flags_forwarded(self, api: SdradApi):
        api.sdrad_init(3, flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD)
        domain = api.runtime.domain(3)
        assert domain.flags & DomainFlags.SCRUB_ON_DISCARD
