"""Page table substrate, including Recency Prefetching's stack fields.

Recency Prefetching (Saulsbury et al. [26], paper Section 2.4) stores
its prediction state *in the page table itself*: every PTE carries two
extra fields, ``next`` and ``prev``, that thread evicted TLB entries
into a doubly-linked LRU ("recency") stack. On a TLB miss the missed
entry is unlinked from the stack, the newly evicted TLB entry is pushed
on top, and the pages the missed entry pointed at are prefetched.

Because these pointers live in memory, every manipulation is a memory
system operation; :class:`RecencyStack` counts them so the cycle model
can charge RP the 4 pointer operations per miss the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class PageTableEntry:
    """A PTE with the recency-stack linkage RP adds.

    Attributes:
        page: virtual page number this PTE translates.
        next: page linked below this one on the recency stack (evicted
            just before it), or ``None``.
        prev: page linked above this one (evicted just after it), or
            ``None``.
        on_stack: whether the PTE is currently threaded on the stack.
    """

    page: int
    next: int | None = None
    prev: int | None = None
    on_stack: bool = False


class PageTable:
    """A demand-populated page table: one PTE per referenced page.

    Real systems index a multi-level radix tree; a dict is sufficient
    here because only the RP linkage fields influence any studied
    mechanism. The population count stands in for RP's storage overhead
    (two pointers per PTE), reported by :meth:`rp_storage_entries`.
    """

    def __init__(self) -> None:
        self._entries: dict[int, PageTableEntry] = {}

    def entry(self, page: int) -> PageTableEntry:
        """Return the PTE for ``page``, creating it on first touch."""
        pte = self._entries.get(page)
        if pte is None:
            pte = PageTableEntry(page)
            self._entries[page] = pte
        return pte

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def rp_storage_entries(self) -> int:
        """PTEs carrying RP pointer fields (RP's memory-side footprint)."""
        return len(self._entries)


class RecencyStack:
    """RP's doubly-linked LRU stack threaded through the page table.

    Operations mirror the paper's description; RP charges the memory
    writes each would perform to its ``overhead_ops``:

    - :meth:`remove` — unlink an entry from the middle of the stack
      (2 pointer writes).
    - :meth:`push_top` — push an evicted TLB entry on top
      (2 pointer writes).
    - :meth:`neighbors` — the prev/next pages of an entry, i.e. the
      pages RP prefetches on a miss (reads, counted separately as
      prefetch fetches by the prefetcher).
    """

    def __init__(self, page_table: PageTable) -> None:
        self._table = page_table
        self._top: int | None = None

    @property
    def top(self) -> int | None:
        """Page currently on top of the stack (most recently evicted)."""
        return self._top

    def neighbors(self, page: int) -> tuple[int | None, int | None]:
        """Return ``(prev, next)`` stack neighbours of ``page``.

        Returns ``(None, None)`` if the page is not on the stack (e.g.
        its first-ever miss).
        """
        pte = self._table.entry(page)
        if not pte.on_stack:
            return (None, None)
        return (pte.prev, pte.next)

    def remove(self, page: int) -> bool:
        """Unlink ``page`` from the stack; True if it was threaded.

        Costs 2 pointer writes when the entry was on the stack (the
        paper's "taking 2 references").
        """
        pte = self._table.entry(page)
        if not pte.on_stack:
            return False
        if pte.prev is not None:
            self._table.entry(pte.prev).next = pte.next
        else:
            self._top = pte.next
        if pte.next is not None:
            self._table.entry(pte.next).prev = pte.prev
        pte.prev = None
        pte.next = None
        pte.on_stack = False
        return True

    def push_top(self, page: int) -> None:
        """Push ``page`` (a just-evicted TLB entry) onto the stack top.

        Costs 2 pointer writes (the paper's "taking 2 references"). If
        the page is already threaded it is first unlinked, matching the
        behaviour of re-evicting a page that was prefetched but never
        referenced.
        """
        pte = self._table.entry(page)
        if pte.on_stack:
            self.remove(page)
        pte.next = self._top
        pte.prev = None
        pte.on_stack = True
        if self._top is not None:
            self._table.entry(self._top).prev = page
        self._top = page

    def __contains__(self, page: int) -> bool:
        return page in self._table and self._table.entry(page).on_stack

    def walk(self, limit: int | None = None) -> list[int]:
        """Pages from top downward (for tests/debugging); optional limit."""
        pages: list[int] = []
        cursor = self._top
        while cursor is not None and (limit is None or len(pages) < limit):
            pages.append(cursor)
            cursor = self._table.entry(cursor).next
        return pages

    def __len__(self) -> int:
        return len(self.walk())
