"""Unit and property tests for the page table and RP's recency stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch.recency import RecencyPrefetcher
from repro.tlb.page_table import PageTable, RecencyStack


class TestPageTable:
    def test_entry_created_on_first_touch(self):
        table = PageTable()
        assert 5 not in table
        pte = table.entry(5)
        assert pte.page == 5
        assert 5 in table
        assert table.entry(5) is pte
        assert len(table) == 1


class TestRecencyStack:
    def test_push_and_walk(self):
        stack = RecencyStack(PageTable())
        for page in (1, 2, 3):
            stack.push_top(page)
        assert stack.top == 3
        assert stack.walk() == [3, 2, 1]
        assert len(stack) == 3

    def test_push_costs_two_writes(self):
        rp = RecencyPrefetcher()
        rp.on_miss(0, 10, 1, False)  # nothing to unlink; push evicted 1
        assert rp.stack.walk() == [1]
        assert rp.overhead_ops_total == 2

    def test_remove_middle_relinks(self):
        stack = RecencyStack(PageTable())
        for page in (1, 2, 3):
            stack.push_top(page)
        assert stack.remove(2)
        assert stack.walk() == [3, 1]

    def test_remove_top_updates_top(self):
        stack = RecencyStack(PageTable())
        stack.push_top(1)
        stack.push_top(2)
        assert stack.remove(2)
        assert stack.top == 1
        assert stack.walk() == [1]

    def test_remove_absent_is_noop(self):
        stack = RecencyStack(PageTable())
        stack.push_top(1)
        assert not stack.remove(99)
        assert 99 not in stack
        assert stack.walk() == [1]

    def test_neighbors(self):
        stack = RecencyStack(PageTable())
        for page in (1, 2, 3):
            stack.push_top(page)
        prev_page, next_page = stack.neighbors(2)
        assert prev_page == 3  # pushed after 2 (above on the stack)
        assert next_page == 1  # pushed before 2 (below on the stack)
        assert stack.neighbors(42) == (None, None)

    def test_repush_relocates_to_top(self):
        stack = RecencyStack(PageTable())
        for page in (1, 2, 3):
            stack.push_top(page)
        stack.push_top(1)
        assert stack.walk() == [1, 3, 2]

    def test_contains(self):
        table = PageTable()
        stack = RecencyStack(table)
        stack.push_top(7)
        assert 7 in stack
        stack.remove(7)
        assert 7 not in stack


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=12)),
        min_size=1,
        max_size=200,
    )
)
def test_stack_matches_list_model(ops):
    """Property: the linked stack behaves like a plain list model."""
    stack = RecencyStack(PageTable())
    model: list[int] = []  # top first
    for is_push, page in ops:
        if is_push:
            stack.push_top(page)
            if page in model:
                model.remove(page)
            model.insert(0, page)
        else:
            removed = stack.remove(page)
            assert removed == (page in model)
            if removed:
                model.remove(page)
        assert stack.walk() == model
        assert stack.top == (model[0] if model else None)
