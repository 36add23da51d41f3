"""Virtual-address and page arithmetic.

The paper simulates a 4096-byte page by default and studies larger page
sizes as a sensitivity axis (Section 3.3 / TR [19]).  All traces in this
reproduction are generated at 4 KiB-page granularity; larger ("super")
page sizes are derived by right-shifting the 4 KiB page number, which is
exact for translation purposes because every 2^k-aligned group of 4 KiB
pages maps to one larger page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

DEFAULT_PAGE_SIZE = 4096
DEFAULT_PAGE_SHIFT = 12


def page_shift_for_size(page_size: int) -> int:
    """Return ``log2(page_size)``, validating that it is a power of two.

    >>> page_shift_for_size(4096)
    12
    """
    if page_size <= 0 or page_size & (page_size - 1):
        raise ConfigurationError(f"page size must be a power of two, got {page_size}")
    return page_size.bit_length() - 1


def page_of(address: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Return the virtual page number containing byte ``address``."""
    return address >> page_shift_for_size(page_size)


def rescale_page(page4k: int, page_size: int) -> int:
    """Map a 4 KiB page number onto the page number for ``page_size``.

    ``page_size`` must be >= 4 KiB; traces are generated at 4 KiB
    granularity, so smaller pages cannot be derived.
    """
    shift = page_shift_for_size(page_size)
    if shift < DEFAULT_PAGE_SHIFT:
        raise ConfigurationError(
            f"page size {page_size} is below the 4 KiB trace granularity"
        )
    return page4k >> (shift - DEFAULT_PAGE_SHIFT)


@dataclass(frozen=True, slots=True)
class AddressSpace:
    """A named, contiguous region of virtual pages used by workload models.

    Workload generators carve an application's footprint into regions
    (heap arrays, stacks, code constants...) so that different pattern
    phases touch disjoint pages, the way distinct data structures do in
    the original benchmarks.

    Attributes:
        base_page: first 4 KiB virtual page number of the region.
        num_pages: number of 4 KiB pages in the region.
    """

    base_page: int
    num_pages: int

    def __post_init__(self) -> None:
        if self.base_page < 0:
            raise ConfigurationError(f"base_page must be >= 0, got {self.base_page}")
        if self.num_pages <= 0:
            raise ConfigurationError(f"num_pages must be > 0, got {self.num_pages}")

    @property
    def end_page(self) -> int:
        """One past the last page of the region."""
        return self.base_page + self.num_pages

    def page(self, index: int) -> int:
        """Return the ``index``-th page of the region (supports negatives)."""
        if index < 0:
            index += self.num_pages
        if not 0 <= index < self.num_pages:
            raise IndexError(f"page index {index} outside region of {self.num_pages}")
        return self.base_page + index

    def split(self, *fractions: float) -> list["AddressSpace"]:
        """Split the region into consecutive sub-regions by fractions.

        The fractions must sum to <= 1.0; any remainder is appended as a
        final region. Useful for carving an app footprint into per-array
        regions.
        """
        if any(f <= 0 for f in fractions):
            raise ConfigurationError("fractions must be positive")
        if sum(fractions) > 1.0 + 1e-9:
            raise ConfigurationError("fractions must sum to at most 1.0")
        regions: list[AddressSpace] = []
        cursor = self.base_page
        for fraction in fractions:
            size = max(1, int(self.num_pages * fraction))
            size = min(size, self.end_page - cursor)
            regions.append(AddressSpace(cursor, size))
            cursor += size
        if cursor < self.end_page:
            regions.append(AddressSpace(cursor, self.end_page - cursor))
        return regions
