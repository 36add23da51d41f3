"""Configuration records for simulations.

Defaults follow the paper's representative setup (Section 3.1): a
128-entry fully-associative data TLB, a 16-entry prefetch buffer, and a
4096-byte page. Sweeps construct variations of these frozen records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tlb.tlb import FULLY_ASSOCIATIVE, TLB, check_shape


@dataclass(frozen=True)
class TLBConfig:
    """Shape of the simulated data TLB.

    Attributes:
        entries: total entries (the paper studies 64, 128, 256).
        ways: associativity; 0 (:data:`FULLY_ASSOCIATIVE`) for fully
            associative, otherwise 2 or 4 in the paper.
    """

    entries: int = 128
    ways: int = FULLY_ASSOCIATIVE

    def __post_init__(self) -> None:
        check_shape(self.entries, self.ways)

    def build(self) -> TLB:
        """Instantiate a fresh TLB of this shape."""
        return TLB(entries=self.entries, ways=self.ways)

    @property
    def label(self) -> str:
        assoc = "FA" if self.ways in (0, self.entries) else f"{self.ways}w"
        return f"{self.entries}e-{assoc}"


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a functional prefetching simulation needs besides the
    workload and the mechanism.

    Attributes:
        tlb: TLB shape.
        buffer_entries: prefetch buffer capacity ``b`` (16/32/64).
        warmup_fraction: leading fraction of *references* treated as
            warm-up — misses there still train the mechanism and the
            TLB but are excluded from accuracy accounting. The paper
            fast-forwards two billion instructions for SPEC; synthetic
            workloads are generated in steady state, so the default is
            no warm-up.
        max_prefetches_per_miss: engine-level clamp on prefetches
            accepted per miss, or 0 for the mechanism's natural bound.
    """

    tlb: TLBConfig = TLBConfig()
    buffer_entries: int = 16
    warmup_fraction: float = 0.0
    max_prefetches_per_miss: int = 0

    def __post_init__(self) -> None:
        if self.buffer_entries <= 0:
            raise ConfigurationError(
                f"buffer_entries must be > 0, got {self.buffer_entries}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.max_prefetches_per_miss < 0:
            raise ConfigurationError(
                "max_prefetches_per_miss must be >= 0, got "
                f"{self.max_prefetches_per_miss}"
            )


#: The paper's representative configuration (Section 3.1).
PAPER_DEFAULT = SimulationConfig()
