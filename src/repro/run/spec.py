"""Declarative run specifications: what to simulate, as plain data.

A :class:`RunSpec` names everything one simulation needs — workload,
scale, TLB shape, mechanism configuration, prefetch-buffer and warm-up
knobs, page size — as a frozen, hashable, pickleable record. Because a
spec is pure data:

- it has a stable content-addressed identity (:meth:`RunSpec.key`) that
  survives process boundaries, so result sets from different runs can
  be joined and compared;
- the specs sharing a TLB miss stream are discoverable *before* any
  simulation happens (:meth:`RunSpec.stream_key`), which is what lets
  :class:`~repro.run.runner.Runner` filter each (workload, scale, TLB,
  page size) exactly once and fan replays out to worker processes.

Mechanisms are described by :class:`MechanismSpec` — a factory name
plus canonicalized parameters — rather than by live
:class:`~repro.prefetch.base.Prefetcher` instances, so that every
worker can build its own fresh, untrained instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError, UnknownPrefetcherError
from repro.mem.address import DEFAULT_PAGE_SIZE, page_shift_for_size
from repro.prefetch.base import Prefetcher
from repro.prefetch.factory import PREFETCHER_NAMES, create_prefetcher
from repro.sim.config import SimulationConfig, TLBConfig
from repro.sim.engine import validate_engine


@dataclass(frozen=True)
class MechanismSpec:
    """A prefetch mechanism as data: factory name + parameters.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so
    two specs built with the same keywords in any order compare (and
    hash, and pickle) identically. Use :meth:`of` rather than the raw
    constructor.
    """

    name: str
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in PREFETCHER_NAMES:
            raise UnknownPrefetcherError(self.name, list(PREFETCHER_NAMES))

    @classmethod
    def of(cls, name: str, **params: int) -> "MechanismSpec":
        """Build a spec from keyword parameters (canonical order)."""
        return cls(name, tuple(sorted(params.items())))

    def build(self) -> Prefetcher:
        """Instantiate a fresh, untrained mechanism."""
        return create_prefetcher(self.name, **dict(self.params))

    @property
    def label(self) -> str:
        """Compact human-readable form, e.g. ``DP(rows=256,slots=2)``."""
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully described.

    Attributes:
        workload: registry application name (see ``repro.list-apps``).
        mechanism: the prefetch mechanism to evaluate.
        scale: workload volume multiplier (1.0 = full trace).
        tlb: TLB shape for the filtering phase.
        buffer_entries: prefetch buffer capacity ``b``.
        warmup_fraction: leading reference fraction excluded from
            accuracy accounting (mechanisms still train there).
        max_prefetches_per_miss: engine-level prefetch clamp, 0 = none.
        page_size: page size in bytes; traces are generated at 4 KiB and
            exactly re-aggregated for larger pages (superpage studies).
        engine: replay engine — ``"auto"`` (the compiled engine when
            the mechanism has a compiled loop, the default),
            ``"reference"`` (the oracle), or ``"fast"``/``"batch"``
            (aliases forcing the compiled engine; see
            :mod:`repro.sim.engine`). Engines are bit-identical by
            contract, so the engine is *execution metadata*: it is
            excluded from :meth:`canonical`/:meth:`key` and result
            rows from different engines join and compare freely.
    """

    workload: str
    mechanism: MechanismSpec
    scale: float = 1.0
    tlb: TLBConfig = field(default_factory=TLBConfig)
    buffer_entries: int = 16
    warmup_fraction: float = 0.0
    max_prefetches_per_miss: int = 0
    page_size: int = DEFAULT_PAGE_SIZE
    engine: str = "auto"

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        # SimulationConfig owns the knob invariants; building one
        # validates buffer/warmup/clamp with the library's own errors.
        self.config()
        shift = page_shift_for_size(self.page_size)
        if shift < page_shift_for_size(DEFAULT_PAGE_SIZE):
            raise ConfigurationError(
                f"page_size {self.page_size} is below the 4 KiB trace granularity"
            )
        if not self.scale > 0:
            raise ConfigurationError(f"scale must be > 0, got {self.scale}")

    @classmethod
    def of(
        cls,
        workload: str,
        mechanism: str = "DP",
        *,
        scale: float = 1.0,
        tlb: TLBConfig | None = None,
        buffer_entries: int = 16,
        warmup_fraction: float = 0.0,
        max_prefetches_per_miss: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
        engine: str = "auto",
        **mechanism_params: int,
    ) -> "RunSpec":
        """Ergonomic constructor: ``RunSpec.of("galgel", "DP", rows=256)``."""
        return cls(
            workload=workload,
            mechanism=MechanismSpec.of(mechanism, **mechanism_params),
            scale=scale,
            tlb=tlb if tlb is not None else TLBConfig(),
            buffer_entries=buffer_entries,
            warmup_fraction=warmup_fraction,
            max_prefetches_per_miss=max_prefetches_per_miss,
            page_size=page_size,
            engine=engine,
        )

    def derive(self, **changes: object) -> "RunSpec":
        """Copy of this spec with some fields replaced."""
        return replace(self, **changes)

    def config(self) -> SimulationConfig:
        """The equivalent :class:`SimulationConfig` (validates knobs)."""
        return SimulationConfig(
            tlb=self.tlb,
            buffer_entries=self.buffer_entries,
            warmup_fraction=self.warmup_fraction,
            max_prefetches_per_miss=self.max_prefetches_per_miss,
        )

    def build_prefetcher(self) -> Prefetcher:
        """Fresh mechanism instance for this spec."""
        return self.mechanism.build()

    def stream_key(self) -> tuple:
        """Identity of the TLB miss stream this run replays over.

        Every field that affects phase 1 (TLB filtering) and nothing
        else: specs that differ only in mechanism, buffer size or
        prefetch clamp share a stream and therefore a cache entry.
        """
        return (
            self.workload,
            self.scale,
            self.tlb.entries,
            self.tlb.ways,
            self.warmup_fraction,
            self.page_size,
        )

    def to_dict(self) -> dict:
        """Flat JSON-friendly form (the service/store interchange shape).

        Round-trips through :meth:`from_dict`; mechanism parameters are
        flattened into a ``params`` mapping.
        """
        return {
            "workload": self.workload,
            "mechanism": self.mechanism.name,
            "params": dict(self.mechanism.params),
            "scale": self.scale,
            "tlb_entries": self.tlb.entries,
            "tlb_ways": self.tlb.ways,
            "buffer_entries": self.buffer_entries,
            "warmup_fraction": self.warmup_fraction,
            "max_prefetches_per_miss": self.max_prefetches_per_miss,
            "page_size": self.page_size,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "RunSpec":
        """Parse :meth:`to_dict` output (e.g. a service request body).

        Unknown keys raise :class:`ConfigurationError` — a misspelled
        knob must not silently run the default configuration.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"RunSpec payload must be an object, got {type(payload).__name__}"
            )
        data = dict(payload)
        if "workload" not in data:
            raise ConfigurationError("RunSpec payload is missing 'workload'")
        known = {
            "workload", "mechanism", "params", "scale", "tlb_entries",
            "tlb_ways", "buffer_entries", "warmup_fraction",
            "max_prefetches_per_miss", "page_size", "engine",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"'params' must be a mapping, got {type(params).__name__}"
            )
        # Only forward the keys that are present: absent knobs fall
        # through to the dataclass defaults, so there is exactly one
        # place those defaults are defined.
        kwargs = {
            name: data[name]
            for name in (
                "scale", "buffer_entries", "warmup_fraction",
                "max_prefetches_per_miss", "page_size", "engine",
            )
            if name in data
        }
        tlb_kwargs = {}
        if "tlb_entries" in data:
            tlb_kwargs["entries"] = data["tlb_entries"]
        if "tlb_ways" in data:
            tlb_kwargs["ways"] = data["tlb_ways"]
        return cls(
            workload=data["workload"],
            mechanism=MechanismSpec.of(data.get("mechanism", "DP"), **params),
            tlb=TLBConfig(**tlb_kwargs),
            **kwargs,
        )

    def canonical(self) -> str:
        """Canonical one-line text form (the input to :meth:`key`).

        Deliberately excludes :attr:`engine`: engines are bit-identical
        (differential-tested), so two runs of the same spec on
        different engines share one identity.
        """
        mech = f"{self.mechanism.name}[" + ",".join(
            f"{k}={v}" for k, v in self.mechanism.params
        ) + "]"
        return (
            f"workload={self.workload};scale={self.scale!r};"
            f"tlb={self.tlb.entries},{self.tlb.ways};mech={mech};"
            f"buffer={self.buffer_entries};warmup={self.warmup_fraction!r};"
            f"clamp={self.max_prefetches_per_miss};page={self.page_size}"
        )

    def key(self) -> str:
        """Stable content-addressed identity (hex digest).

        Equal specs have equal keys in every process and on every
        platform (no dependence on ``PYTHONHASHSEED`` or object
        identity), so keys are safe to persist alongside saved results.
        """
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Short display form for progress lines and result tables."""
        return f"{self.workload}/{self.mechanism.label}@{self.tlb.label}"
