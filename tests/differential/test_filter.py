"""The phase-1 filter is the LRU TLB, miss for miss.

:func:`filter_tlb` computes the miss stream from reuse positions
instead of running a TLB. The oracle here is the plain per-run loop
over :class:`repro.tlb.TLB`: probe each run's page, fill on a miss and
record the PC, page, evicted page and reference index. Hypothesis draws
TLB shapes (1-32 entries, direct-mapped to fully associative), traces
over small, large and negative page alphabets and cyclic sweeps around
the set size, run counts of 1-4 and any warm-up fraction; every
:class:`MissTrace` field must match the oracle's, dtypes included.

Budget: ``DIFF_FUZZ_EXAMPLES`` when set (the CI budget), else a small
tier-1 default.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.trace import NO_EVICTION, MissTrace, ReferenceTrace
from repro.sim.config import TLBConfig
from repro.sim.two_phase import filter_tlb
from repro.workloads.registry import all_app_names, get_trace

EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "60"))

FIELDS = ("pcs", "pages", "evicted", "ref_index")


def reference_filter(
    trace: ReferenceTrace, tlb_config: TLBConfig, warmup_fraction: float = 0.0
) -> MissTrace:
    """Run the trace through a live TLB, one RLE run at a time."""
    tlb = tlb_config.build()
    misses: list[tuple[int, int, int, int]] = []
    references_seen = 0
    for pc, page, count in zip(*trace.as_lists()):
        if not tlb.probe(page):
            evicted = tlb.fill(page)
            misses.append(
                (pc, page, NO_EVICTION if evicted is None else evicted, references_seen)
            )
        references_seen += count
    pcs, pages, evicted, ref_index = np.array(misses, dtype=np.int64).reshape(-1, 4).T
    warmup_limit = int(trace.total_references * warmup_fraction)
    return MissTrace(
        pcs=pcs,
        pages=pages,
        evicted=evicted,
        ref_index=ref_index,
        total_references=trace.total_references,
        warmup_misses=int(np.searchsorted(ref_index, warmup_limit)),
        name=trace.name,
        tlb_label=tlb.label,
    )


def assert_same_misses(actual: MissTrace, expected: MissTrace) -> None:
    for name in FIELDS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert actual.warmup_misses == expected.warmup_misses
    assert actual.total_references == expected.total_references
    assert actual.name == expected.name
    assert actual.tlb_label == expected.tlb_label


@st.composite
def tlb_shapes(draw) -> TLBConfig:
    entries = draw(st.integers(1, 32))
    ways = draw(
        st.sampled_from(
            [w for w in (0, 1, 2, 4, entries) if w == 0 or entries % w == 0]
        )
    )
    return TLBConfig(entries=entries, ways=ways)


@st.composite
def page_lists(draw, size: int) -> list[int]:
    """Random pages from one alphabet, or a cyclic sweep (LRU's worst case)."""
    kind = draw(st.sampled_from(["small", "large", "negative", "huge", "cyclic"]))
    if kind == "cyclic":
        period = draw(st.integers(1, 40))
        stride = draw(st.sampled_from([1, 2, 3, 7, 16]))
        base = draw(st.integers(-1000, 1000))
        return [base + stride * (i % period) for i in range(size)]
    low, high = {
        "small": (0, 4),
        "large": (0, 100),
        "negative": (-40, 40),
        "huge": (-(2**40), 2**40),
    }[kind]
    return draw(st.lists(st.integers(low, high), min_size=size, max_size=size))


@st.composite
def traces(draw) -> ReferenceTrace:
    size = draw(st.integers(0, 300))
    pages = draw(page_lists(size))
    pcs = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return ReferenceTrace(pcs, pages, counts, name="prop")


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    trace=traces(),
    tlb=tlb_shapes(),
    warmup=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
)
@example(trace=ReferenceTrace([], [], [], name="empty"), tlb=TLBConfig(), warmup=0.0)
@example(
    trace=ReferenceTrace([3], [42], [2], name="one page"),
    tlb=TLBConfig(entries=1, ways=1),
    warmup=0.5,
)
@example(
    trace=ReferenceTrace([1] * 5, [7] * 5, [1, 2, 3, 4, 1], name="one page"),
    tlb=TLBConfig(entries=4, ways=2),
    warmup=0.0,
)
def test_filter_matches_the_lru_tlb(trace, tlb, warmup):
    assert_same_misses(
        filter_tlb(trace, tlb, warmup), reference_filter(trace, tlb, warmup)
    )


@pytest.mark.parametrize(
    "tlb",
    [TLBConfig(128), TLBConfig(128, 2), TLBConfig(16, 1)],
    ids=lambda tlb: tlb.label,
)
def test_registry_apps_match_the_lru_tlb(tlb):
    for app in all_app_names():
        trace = get_trace(app, 0.05)
        assert_same_misses(
            filter_tlb(trace, tlb, 0.1), reference_filter(trace, tlb, 0.1)
        )
