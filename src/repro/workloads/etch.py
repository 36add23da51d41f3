"""Etch desktop-trace application models (5 apps).

The Etch traces (bcc, mpegply, msvc, perl4, winword) are
"characteristic of desktop/PC applications": phase-y, library-heavy
executions. Figure 8 of the paper shows DP doing much better than the
other schemes on mpegply, msvc and perl4, with mixed history behaviour
on the remaining two.
"""

from __future__ import annotations

from repro.workloads.composer import AppSpec, BehaviorClass, suite_app
from repro.workloads import recipes


_etch = suite_app("etch")


ETCH_APPS: tuple[AppSpec, ...] = (
    _etch(
        "bcc",
        BehaviorClass.MIXED,
        "Compiler-style mix: cold strided scans over sources plus a "
        "re-walked symbol-table region; stride/distance schemes lead, "
        "history schemes get the revisited share.",
        recipes.mixed_app(
            [
                recipes.one_touch_strided(
                    segment_pages=600, strides=[1, 2], refs_per_page=2.0,
                    repeats=2, hot=(24, 285.0),
                ),
                recipes.history_walk(
                    walk_pages=160, refs_per_page=1.5, sweeps=30,
                    hot=(24, 285.0),
                ),
            ],
            burst_runs=20,
        ),
        seed=3001,
    ),
    _etch(
        "mpegply",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP does much better than the others (interleaved frame-buffer "
        "streams form a repeating distance cycle).",
        recipes.interleaved_stream_app(
            num_streams=3, stream_gap=400_000, length=7_000,
            refs_per_page=2.0, sweeps=1, pc_pool=2, hot=(24, 276.0),
        ),
        seed=3002,
    ),
    _etch(
        "msvc",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP is the only mechanism making noticeable predictions, and "
        "also one of the apps where DP does much better than the rest.",
        recipes.dp_only_app(
            random_footprint=1600, random_steps=21_000,
            cycle=[2, 9], cycle_steps=4_400, refs_per_page=2.0,
            hot=(24, 264.0),
        ),
        seed=3003,
    ),
    _etch(
        "perl4",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP does much better than the others (interpreter dispatch "
        "advances memory by a short repeating distance cycle).",
        recipes.distance_cycle_app(
            cycle=[1, 5, 2], steps=26_000, refs_per_page=2.0,
            hot=(24, 285.0),
        ),
        seed=3004,
    ),
    _etch(
        "winword",
        BehaviorClass.MIXED,
        "Desktop mix of alternating document/UI regions and a re-walked "
        "heap: MP/RP moderate, DP close.",
        recipes.mixed_app(
            [
                recipes.alternation_app(
                    core_pages=60, batches=2, rounds=160,
                    refs_per_page=1.8, hot=(24, 285.0),
                ),
                recipes.history_walk(
                    walk_pages=140, refs_per_page=1.5, sweeps=35,
                    hot=(24, 285.0),
                ),
            ],
            burst_runs=18,
        ),
        seed=3005,
    ),
)
