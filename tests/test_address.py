"""Unit tests for page arithmetic and address-space regions."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.address import (
    AddressSpace,
    page_of,
    page_shift_for_size,
    rescale_page,
)


class TestPageShift:
    def test_common_sizes(self):
        assert page_shift_for_size(4096) == 12
        assert page_shift_for_size(8192) == 13
        assert page_shift_for_size(65536) == 16

    @pytest.mark.parametrize("bad", [0, -4096, 3000, 4097])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ConfigurationError):
            page_shift_for_size(bad)


class TestPageOf:
    def test_first_page(self):
        assert page_of(0) == 0
        assert page_of(4095) == 0

    def test_boundary(self):
        assert page_of(4096) == 1

    def test_other_page_size(self):
        assert page_of(8192, page_size=8192) == 1
        assert page_of(8191, page_size=8192) == 0


class TestRescalePage:
    def test_identity_at_4k(self):
        assert rescale_page(37, 4096) == 37

    def test_8k_halves(self):
        assert rescale_page(10, 8192) == 5
        assert rescale_page(11, 8192) == 5

    def test_64k_groups_sixteen(self):
        assert rescale_page(15, 65536) == 0
        assert rescale_page(16, 65536) == 1

    def test_rejects_sub_4k(self):
        with pytest.raises(ConfigurationError):
            rescale_page(1, 2048)


class TestAddressSpace:
    def test_basic_properties(self):
        region = AddressSpace(base_page=100, num_pages=50)
        assert region.end_page == 150
        assert region.page(0) == 100
        assert region.page(-1) == 149

    def test_page_out_of_range(self):
        region = AddressSpace(0, 10)
        with pytest.raises(IndexError):
            region.page(10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AddressSpace(-1, 10)
        with pytest.raises(ConfigurationError):
            AddressSpace(0, 0)

    def test_split_consecutive_and_covering(self):
        region = AddressSpace(0, 100)
        parts = region.split(0.25, 0.25)
        assert parts[0].base_page == 0
        assert parts[1].base_page == parts[0].end_page
        # Remainder appended as final region.
        assert parts[-1].end_page == 100
        assert sum(p.num_pages for p in parts) == 100

    def test_split_validation(self):
        with pytest.raises(ConfigurationError):
            AddressSpace(0, 10).split(0.8, 0.5)
        with pytest.raises(ConfigurationError):
            AddressSpace(0, 10).split(-0.1)
