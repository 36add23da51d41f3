"""Curated differential grid: canonical specs, both engines, no drift.

Spans every mechanism family × one representative workload per trace
suite × the superpage sizes, plus associativity, slot, buffer, clamp,
warm-up and TLB-shape variants — the configuration axes the paper's
tables and figures actually sweep. Every spec must produce
bit-identical statistics on the reference and compiled engines.
"""

from __future__ import annotations

import pytest

from repro.run import RunSpec
from repro.sim.config import TLBConfig

from tests.differential.harness import DifferentialRunner

#: One representative application per workload family (see SUITES).
FAMILY_APPS = {
    "spec2000": "galgel",
    "mediabench": "epic",
    "etch": "perl4",
    "ptrdist": "anagram",
}

SCALE = 0.05

#: Mechanism configurations covering every family the engine replays.
MECHANISMS: list[tuple[str, dict]] = [
    ("none", {}),
    ("SP", {}),
    ("SP-adaptive", {}),
    ("ASP", {"rows": 256}),
    ("MP", {"rows": 256}),
    ("DP", {"rows": 256}),
    ("DP-PC", {"rows": 256}),
    ("DP-2", {"rows": 256}),
    ("RP", {}),
]


def _grid() -> list[RunSpec]:
    specs: list[RunSpec] = []
    # Every mechanism family × every workload family at paper defaults.
    for app in FAMILY_APPS.values():
        for mechanism, params in MECHANISMS:
            specs.append(RunSpec.of(app, mechanism, scale=SCALE, **params))
    # Superpages: the paper's page-size axis for the head-to-head four.
    for page_size in (8192, 16384):
        for mechanism in ("DP", "MP", "ASP", "RP"):
            specs.append(
                RunSpec.of("galgel", mechanism, scale=SCALE, page_size=page_size)
            )
    # Table associativity and slot variants (incl. fully associative).
    specs += [
        RunSpec.of("epic", "MP", scale=SCALE, rows=256, ways=2),
        RunSpec.of("epic", "MP", scale=SCALE, rows=256, ways=4),
        RunSpec.of("epic", "MP", scale=SCALE, rows=64, ways=0),
        RunSpec.of("epic", "ASP", scale=SCALE, rows=64, ways=4),
        RunSpec.of("epic", "DP", scale=SCALE, rows=64, ways=4, slots=3),
        RunSpec.of("epic", "DP", scale=SCALE, rows=64, ways=0),
        RunSpec.of("epic", "DP-2", scale=SCALE, rows=64, ways=2),
        RunSpec.of("epic", "SP", scale=SCALE, degree=4),
        RunSpec.of("epic", "RP", scale=SCALE, variant_three=1),
    ]
    # Buffer, clamp, warm-up and TLB-shape axes.
    specs += [
        RunSpec.of("galgel", "DP", scale=SCALE, buffer_entries=4),
        RunSpec.of("galgel", "DP", scale=SCALE, buffer_entries=64),
        RunSpec.of("galgel", "DP", scale=SCALE, max_prefetches_per_miss=1),
        RunSpec.of("galgel", "RP", scale=SCALE, max_prefetches_per_miss=1),
        RunSpec.of("galgel", "DP", scale=SCALE, warmup_fraction=0.3),
        RunSpec.of("galgel", "DP", scale=SCALE, tlb=TLBConfig(entries=64, ways=4)),
    ]
    # Direct-mapped slot-table layouts (two-slot rows as flat arrays,
    # other slot counts as slot lists), on streams whose tables overflow
    # so a batch keeps the layout too (galgel's DP tables collapse to
    # one dict), and where the clamp binds: DP on mcf, MP on parser (at
    # this scale MP issues no prefetch on galgel or mcf).
    specs += [
        RunSpec.of("mcf", "DP-PC", scale=SCALE, rows=256, ways=1),
        RunSpec.of("mcf", "DP-2", scale=SCALE, rows=256, ways=1),
        RunSpec.of("mcf", "DP", scale=SCALE, max_prefetches_per_miss=1),
        RunSpec.of(
            "mcf", "DP", scale=SCALE, max_prefetches_per_miss=1, warmup_fraction=0.3
        ),
        RunSpec.of("mcf", "DP", scale=SCALE, slots=1),
        RunSpec.of("parser", "MP", scale=SCALE, slots=1),
        RunSpec.of("parser", "MP", scale=SCALE, slots=3),
        RunSpec.of("parser", "MP", scale=SCALE, max_prefetches_per_miss=1),
    ]
    return specs


GRID = _grid()


@pytest.fixture(scope="module")
def differential() -> DifferentialRunner:
    return DifferentialRunner()


@pytest.mark.parametrize("spec", GRID, ids=[spec.label + "/" + spec.key()[:6] for spec in GRID])
def test_engines_bit_identical(differential, spec):
    differential.check_spec(spec)


def test_grid_covers_every_mechanism_family():
    """The grid must not silently lose a mechanism family."""
    from repro.prefetch.factory import PREFETCHER_NAMES

    covered = {spec.mechanism.name for spec in GRID}
    assert covered == set(PREFETCHER_NAMES)


def test_grid_is_reasonably_sized():
    assert len(GRID) >= 50


def test_whole_batch_result_sets_identical(differential):
    """Batch execution (the Runner path) agrees wholesale, too."""
    specs = [
        RunSpec.of("galgel", mechanism, scale=SCALE)
        for mechanism in ("DP", "RP", "ASP", "MP")
    ]
    differential.check_batch(specs)


def test_wide_batch_with_double_digit_slot_indices(differential):
    """A batch with 12+ distinct classes stays bit-identical.

    The full Figure-7 legend on mesa plans 12+ classes (Markov tables,
    direct-mapped and associative, RP, DP and a stride class past index
    10), and mesa's miss stream drives every one of their paths. Fused
    loops once named per-class locals ``<prefix><k>`` and could collide
    at double-digit class indices; each class now runs its own loop with
    unindexed names, so that collision can no longer occur.
    """
    from repro.analysis.figures import figure7_configs

    specs = [
        RunSpec.of("mesa", config.mechanism, scale=SCALE,
                   **config.factory_params())
        for config in figure7_configs()
    ]
    assert len(specs) >= 12
    differential.check_batch(specs)
