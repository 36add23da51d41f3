"""SPEC CPU2000 application models (26 apps).

Each model reproduces the behaviour class the paper's Section 3.2
narrative assigns to the application, with miss rates steered so the
paper's "8 highest TLB miss rate" selection (galgel 0.228, adpcm 0.192,
mcf 0.090, apsi 0.018, vpr 0.016, lucas 0.016, twolf 0.013, ammp
0.0113 for a 128-entry fully-associative TLB) comes out on top in the
same order, and every other application stays below that band.

The ``paper_note`` on each spec quotes/summarizes the observation from
the paper the model is designed to reproduce; EXPERIMENTS.md checks the
measured outcome against it.
"""

from __future__ import annotations

from repro.workloads.composer import AppSpec, BehaviorClass, suite_app
from repro.workloads import recipes

_HIGH = frozenset({"high-miss"})


_spec = suite_app("spec2000")


SPEC2000_APPS: tuple[AppSpec, ...] = (
    _spec(
        "gzip",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "ASP captures first-time strided references; DP matches it; "
        "history schemes (RP/MP) have nothing to learn from.",
        recipes.one_touch_strided(
            segment_pages=1500, strides=[1, 2, 1], refs_per_page=2.0,
            repeats=3, hot=(24, 300.0),
        ),
        seed=1001,
    ),
    _spec(
        "vpr",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.016); RP's accuracy slightly exceeds DP's, "
        "yet DP wins execution cycles (Table 3).",
        recipes.history_walk(
            walk_pages=420, refs_per_page=1.3, sweeps=40,
            strided_pages=250, strided_sweeps=12, strided_refs_per_page=1.5,
            hot=(24, 60.0),
        ),
        seed=1002,
        tags=_HIGH,
    ),
    _spec(
        "gcc",
        BehaviorClass.IRREGULAR_REPEATING,
        "RP best or close to best; DP comes very close (good history "
        "repetition over a modest working set).",
        recipes.history_walk(
            walk_pages=180, refs_per_page=1.4, sweeps=60,
            strided_pages=200, strided_sweeps=20, strided_refs_per_page=2.0,
            hot=(24, 360.0),
        ),
        seed=1003,
    ),
    _spec(
        "mcf",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.090); RP accuracy beats DP, but RP's pointer "
        "traffic makes it *slower* than no prefetching (Table 3: 1.09).",
        recipes.history_walk(
            walk_pages=1000, refs_per_page=1.2, sweeps=30,
            strided_pages=600, strided_sweeps=33, strided_refs_per_page=1.2,
            hot=(24, 10.0),
        ),
        seed=1004,
        tags=_HIGH,
    ),
    _spec(
        "crafty",
        BehaviorClass.IRREGULAR_REPEATING,
        "Accesses not strided enough for ASP; historical indication "
        "(RP, and MP when it fits) does much better.",
        recipes.history_walk(
            walk_pages=220, refs_per_page=1.5, sweeps=50, hot=(24, 330.0),
        ),
        seed=1005,
    ),
    _spec(
        "parser",
        BehaviorClass.IRREGULAR_REPEATING,
        "Alternation in history lets MP (s=2) beat even RP; ASP does "
        "not do well; DP comes close to MP.",
        recipes.alternation_app(
            core_pages=80, batches=2, rounds=300, refs_per_page=1.8,
            hot=(24, 300.0),
        ),
        seed=1006,
    ),
    _spec(
        "perlbmk",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "First-time references captured by ASP; DP delivers accuracies "
        "as good as ASP.",
        recipes.one_touch_strided(
            segment_pages=1200, strides=[1], refs_per_page=2.2,
            repeats=4, hot=(24, 360.0),
        ),
        seed=1007,
    ),
    _spec(
        "eon",
        BehaviorClass.LOW_MISS,
        "So few TLB misses that no significant history or stride "
        "pattern builds up; prefetching unimportant here.",
        recipes.low_miss_app(
            hot_pages=56, laps=4000, refs_per_page=6.0,
            cold_pages=600, cold_steps=400,
        ),
        seed=1008,
    ),
    _spec(
        "gap",
        BehaviorClass.STRIDED_REPEATED,
        "Regular strided accesses repeatedly over the same items: "
        "nearly all mechanisms give good accuracy.",
        recipes.strided_repeated(
            footprint=230, refs_per_page=2.6, sweeps=90, hot=(24, 270.0),
        ),
        seed=1009,
    ),
    _spec(
        "vortex",
        BehaviorClass.IRREGULAR_REPEATING,
        "Like parser: alternation favours MP over RP; DP close behind.",
        recipes.alternation_app(
            core_pages=100, batches=2, rounds=280, refs_per_page=1.6,
            hot=(24, 330.0),
        ),
        seed=1010,
    ),
    _spec(
        "bzip2",
        BehaviorClass.MIXED,
        "Mixed phases: block-sorting strides plus reuse; stride/distance "
        "schemes do well, history schemes partially.",
        recipes.mixed_app(
            [
                recipes.one_touch_strided(
                    segment_pages=800, strides=[1, 3], refs_per_page=2.0,
                    repeats=3, hot=(24, 300.0),
                ),
                recipes.strided_repeated(
                    footprint=260, refs_per_page=2.5, sweeps=60, hot=(24, 300.0),
                ),
            ],
            burst_runs=24,
        ),
        seed=1011,
    ),
    _spec(
        "twolf",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.013); RP accuracy a touch above DP; execution "
        "cycles tie at 0.98 (Table 3).",
        recipes.history_walk(
            walk_pages=380, refs_per_page=1.3, sweeps=50,
            strided_pages=150, strided_sweeps=10, strided_refs_per_page=1.5,
            hot=(24, 75.0),
        ),
        seed=1012,
        tags=_HIGH,
    ),
    _spec(
        "wupwise",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP does much better than all others: interleaved streams give "
        "a repeating distance cycle no PC-stride or history scheme sees.",
        recipes.interleaved_stream_app(
            num_streams=3, stream_gap=600_000, length=12_000,
            refs_per_page=2.2, sweeps=1, pc_pool=2, hot=(24, 300.0),
            asp_side_pages=1500, asp_side_sweeps=2,
        ),
        seed=1013,
    ),
    _spec(
        "swim",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP much better than the others (multi-array stencil sweeps).",
        recipes.interleaved_stream_app(
            num_streams=4, stream_gap=500_000, length=9_000,
            refs_per_page=2.0, sweeps=1, pc_pool=2, hot=(24, 285.0),
            asp_side_pages=1200, asp_side_sweeps=2,
        ),
        seed=1014,
    ),
    _spec(
        "mgrid",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP much better than the others (grid stencil streams with a "
        "non-unit stride).",
        recipes.interleaved_stream_app(
            num_streams=3, stream_gap=550_000, length=8_000,
            refs_per_page=2.4, sweeps=1, stream_stride=2, pc_pool=2,
            hot=(24, 315.0), asp_side_pages=900, asp_side_sweeps=2,
        ),
        seed=1015,
    ),
    _spec(
        "applu",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP much better than the others (repeating non-constant "
        "distance cycle through the operator splitting sweeps).",
        recipes.distance_cycle_app(
            cycle=[1, 3, 1, 13], steps=30_000, refs_per_page=2.2,
            hot=(24, 300.0),
        ),
        seed=1016,
    ),
    _spec(
        "mesa",
        BehaviorClass.STRIDED_REPEATED,
        "All mechanisms good, but MP performs poorly with small r: the "
        "data set is too large for a small on-chip history table.",
        recipes.strided_repeated(
            footprint=900, refs_per_page=3.0, sweeps=45, hot=(24, 285.0),
        ),
        seed=1017,
    ),
    _spec(
        "galgel",
        BehaviorClass.STRIDED_REPEATED,
        "Highest miss rate of all (0.228); regular strided repeats: "
        "every mechanism except small-table MP is accurate.",
        recipes.strided_repeated(footprint=700, refs_per_page=4.4, sweeps=220),
        seed=1018,
        tags=_HIGH,
    ),
    _spec(
        "art",
        BehaviorClass.STRIDED_REPEATED,
        "All mechanisms good; MP poor at small r (large data set).",
        recipes.strided_repeated(
            footprint=1300, refs_per_page=3.5, sweeps=28, hot=(24, 300.0),
        ),
        seed=1019,
    ),
    _spec(
        "equake",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "First-time strided references: ASP and DP good, history "
        "schemes near zero.",
        recipes.one_touch_strided(
            segment_pages=1600, strides=[1, 2], refs_per_page=2.0,
            repeats=3, hot=(24, 285.0),
        ),
        seed=1020,
    ),
    _spec(
        "facerec",
        BehaviorClass.STRIDED_REPEATED,
        "Nearly all mechanisms give quite good prediction accuracies "
        "(strided repeats within modest footprint).",
        recipes.strided_repeated(
            footprint=220, refs_per_page=3.0, sweeps=110, hot=(24, 300.0),
        ),
        seed=1021,
    ),
    _spec(
        "ammp",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.0113); RP's accuracy is best but DP comes "
        "close — and wins cycles 0.86 vs 0.97 (Table 3).",
        recipes.history_walk(
            walk_pages=200, refs_per_page=1.4, sweeps=55,
            strided_pages=220, strided_sweeps=40, strided_refs_per_page=1.6,
            hot=(24, 86.0, 2),
        ),
        seed=1022,
        tags=_HIGH,
    ),
    _spec(
        "lucas",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.016); RP best, DP slightly behind in accuracy "
        "but ahead in cycles (Table 3: 1.00 vs 0.99).",
        recipes.history_walk(
            walk_pages=330, refs_per_page=1.3, sweeps=50,
            strided_pages=130, strided_sweeps=10, strided_refs_per_page=1.5,
            hot=(24, 60.0),
        ),
        seed=1023,
        tags=_HIGH,
    ),
    _spec(
        "fma3d",
        BehaviorClass.IRREGULAR,
        "Irregularity makes it very difficult for any mechanism to do "
        "well — the negative control.",
        recipes.random_touch(
            footprint=2500, steps=26_000, refs_per_page=2.0, hot=(24, 285.0),
        ),
        seed=1024,
    ),
    _spec(
        "sixtrack",
        BehaviorClass.IRREGULAR_REPEATING,
        "RP gives best or close-to-best accuracy (good history "
        "repetition).",
        recipes.history_walk(
            walk_pages=240, refs_per_page=1.5, sweeps=45,
            strided_pages=60, strided_sweeps=8, strided_refs_per_page=1.5,
            hot=(24, 315.0),
        ),
        seed=1025,
    ),
    _spec(
        "apsi",
        BehaviorClass.IRREGULAR_REPEATING,
        "High-miss app (0.018); RP best or close, DP decent; one of the "
        "apps where ASP's accuracy drops at r=1024 from buffer churn.",
        recipes.history_walk(
            walk_pages=350, refs_per_page=1.4, sweeps=45,
            strided_pages=200, strided_sweeps=14, strided_refs_per_page=1.5,
            hot=(24, 54.0),
        ),
        seed=1026,
        tags=_HIGH,
    ),
)
