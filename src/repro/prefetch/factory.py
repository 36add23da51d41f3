"""Factory for building prefetchers by name with uniform parameters.

Benchmarks, sweeps and the CLI all construct mechanisms through
:func:`create_prefetcher`, so a configuration is expressible as plain
data (``("DP", dict(rows=256, ways=1, slots=2))``). Table/slot
parameters that a mechanism does not have (e.g. ``rows`` for SP) are
accepted and ignored, which keeps sweep code free of per-mechanism
special cases — exactly how the paper sweeps ``r`` "uniformly" across
ASP, MP and DP.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher
from repro.core.pc_distance import PCDistancePrefetcher
from repro.core.prediction_table import SlotTablePrefetcher
from repro.errors import UnknownPrefetcherError
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher

_BuilderT = Callable[..., Prefetcher]


def _build_none(**_: object) -> Prefetcher:
    return NullPrefetcher()


def _build_sp(degree: int = 1, **_: object) -> Prefetcher:
    return SequentialPrefetcher(degree=degree)


def _build_adaptive_sp(max_degree: int = 8, window: int = 64, **_: object) -> Prefetcher:
    return AdaptiveSequentialPrefetcher(max_degree=max_degree, window=window)


def _build_asp(rows: int = 256, ways: int = 1, **_: object) -> Prefetcher:
    return ArbitraryStridePrefetcher(rows=rows, ways=ways)


def _build_rp(variant_three: bool = False, **_: object) -> Prefetcher:
    return RecencyPrefetcher(variant_three=variant_three)


def _build_slot_table(cls: type[SlotTablePrefetcher]) -> _BuilderT:
    def build(rows: int = 256, ways: int = 1, slots: int = 2, **_: object) -> Prefetcher:
        return cls(rows=rows, ways=ways, slots=slots)

    return build


_REGISTRY: dict[str, _BuilderT] = {
    "none": _build_none,
    "SP": _build_sp,
    "SP-adaptive": _build_adaptive_sp,
    "ASP": _build_asp,
    "MP": _build_slot_table(MarkovPrefetcher),
    "RP": _build_rp,
    "DP": _build_slot_table(DistancePrefetcher),
    "DP-PC": _build_slot_table(PCDistancePrefetcher),
    "DP-2": _build_slot_table(DistancePairPrefetcher),
}

#: Names accepted by :func:`create_prefetcher`.
PREFETCHER_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def create_prefetcher(name: str, **params: object) -> Prefetcher:
    """Build the mechanism called ``name`` with ``params``.

    Unknown parameter keys for that mechanism are ignored (see module
    docstring); an unknown *name* raises
    :class:`~repro.errors.UnknownPrefetcherError`.
    """
    builder = _REGISTRY.get(name)
    if builder is None:
        raise UnknownPrefetcherError(name, list(_REGISTRY))
    return builder(**params)


def default_prefetcher_suite(
    rows: int = 256, slots: int = 2
) -> list[Prefetcher]:
    """The four mechanisms the paper compares head-to-head (Table 2).

    Returns RP, MP, DP and ASP at the paper's representative
    configuration (``s = 2`` and ``r = 256``, direct mapped).
    """
    return [
        RecencyPrefetcher(),
        MarkovPrefetcher(rows=rows, ways=1, slots=slots),
        DistancePrefetcher(rows=rows, ways=1, slots=slots),
        ArbitraryStridePrefetcher(rows=rows, ways=1),
    ]
