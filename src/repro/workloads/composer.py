"""Application specifications and trace building.

An :class:`AppSpec` ties a benchmark name to the reference-behaviour
class the paper reports for it, a deterministic seed, and a builder
that assembles the pattern composition at a given ``scale``. The scale
knob multiplies trace *volume* (sweeps/steps) without changing the
footprint or behaviour class — the equivalent of simulating more or
fewer instructions of the same program.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.trace import ReferenceTrace
from repro.workloads.patterns import Pattern


class BehaviorClass(enum.Enum):
    """The paper's Section 1 taxonomy of reference behaviour."""

    STRIDED_ONE_TOUCH = "a: strided, touched once"
    STRIDED_REPEATED = "b: strided, touched repeatedly"
    CHANGING_STRIDE = "c: stride changes over time"
    IRREGULAR_REPEATING = "d: irregular but repeating"
    IRREGULAR = "e: no regularity"
    MIXED = "mixed phases"
    LOW_MISS = "working set fits: few TLB misses"


@dataclass(frozen=True)
class AppSpec:
    """A named synthetic application model.

    Attributes:
        name: benchmark name as it appears in the paper's figures.
        suite: ``spec2000`` / ``mediabench`` / ``etch`` / ``ptrdist``.
        behavior: dominant behaviour class (paper Section 1 taxonomy).
        paper_note: what the paper observes about this app — the claim
            the synthetic model is built to reproduce.
        builder: ``builder(scale) -> Pattern`` assembling the model.
        seed: RNG seed; traces are fully deterministic in (name, scale).
        tags: free-form markers used by the experiment harness (e.g.
            ``high-miss`` for the Figure 9 / Table 3 selection).
    """

    name: str
    suite: str
    behavior: BehaviorClass
    paper_note: str
    builder: Callable[[float], Pattern]
    seed: int
    tags: frozenset[str] = field(default_factory=frozenset)


def suite_app(suite: str) -> Callable[..., AppSpec]:
    """An :class:`AppSpec` constructor with ``suite`` filled in.

    Each suite module builds its apps with one:
    ``_spec = suite_app("spec2000")``, then
    ``_spec(name, behavior, paper_note, builder, seed, tags=...)``.
    """

    def app(
        name: str,
        behavior: BehaviorClass,
        paper_note: str,
        builder: Callable[[float], Pattern],
        seed: int,
        tags: frozenset[str] = frozenset(),
    ) -> AppSpec:
        return AppSpec(name, suite, behavior, paper_note, builder, seed, tags)

    return app


def scaled(value: float, scale: float, minimum: int = 1) -> int:
    """Scale a volume parameter, keeping it a positive integer."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    return max(minimum, round(value * scale))


def build_trace(spec: AppSpec, scale: float = 1.0) -> ReferenceTrace:
    """Generate the deterministic reference trace for ``spec``.

    The same (spec, scale) always yields the identical trace: the RNG
    is seeded from the spec and consumed in a fixed order by the
    pattern composition.
    """
    rng = np.random.default_rng(spec.seed)
    pattern = spec.builder(scale)
    pcs, pages, counts = pattern.emit(rng)
    return ReferenceTrace(pcs, pages, counts, name=spec.name)
