"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.mem.trace import ReferenceTrace
from repro.prefetch.base import NO_EVICTION, Prefetcher


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)


def make_trace(
    pages: list[int],
    pcs: list[int] | None = None,
    counts: list[int] | None = None,
    name: str = "test",
) -> ReferenceTrace:
    """Build a small reference trace from plain lists."""
    n = len(pages)
    return ReferenceTrace(
        pcs if pcs is not None else [0x1000] * n,
        pages,
        counts if counts is not None else [1] * n,
        name=name,
    )


def drive_misses(
    prefetcher: Prefetcher,
    pages: list[int],
    pcs: list[int] | None = None,
    evicted: list[int] | None = None,
) -> list[list[int]]:
    """Feed a raw miss sequence to a mechanism; return its prefetches.

    A low-level harness for unit-testing mechanism logic without a TLB
    or prefetch buffer in the way (``pb_hit`` is always False).
    """
    n = len(pages)
    pcs = pcs if pcs is not None else [0x1000] * n
    evicted = evicted if evicted is not None else [NO_EVICTION] * n
    return [
        prefetcher.on_miss(pcs[i], pages[i], evicted[i], False) for i in range(n)
    ]


#: ``--hypothesis-profile=ci`` gives the stateful suites (store crash
#: points, the job-queue state machine) a larger example budget; the
#: default profile is untouched.
settings.register_profile("ci", max_examples=200, deadline=None)


def hypothesis_budget(tier1: int) -> int:
    """Example budget: ``tier1`` by default, the ``ci`` profile's when loaded."""
    if settings.default is settings.get_profile("ci"):
        return settings.default.max_examples
    return tier1
