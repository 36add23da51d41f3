"""Pointer-Intensive benchmark suite models (5 apps).

The suite (anagram, bc, ft, ks, yacr2) evaluates "the mechanisms for
non-array based reference behavior, which can be more irregular".
Working sets are small — the paper notes bc and ks have so few TLB
misses that neither history nor strides establish, while DP is still
the only mechanism with any noticeable predictions on them.
"""

from __future__ import annotations

from repro.workloads.composer import AppSpec, BehaviorClass, suite_app
from repro.workloads import recipes


_ptr = suite_app("ptrdist")


PTRDIST_APPS: tuple[AppSpec, ...] = (
    _ptr(
        "anagram",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "Cold misses prominent (small working set); ASP captures the "
        "first-time references, DP keeps pace.",
        recipes.one_touch_strided(
            segment_pages=900, strides=[1, 1, 2], refs_per_page=1.8,
            repeats=3, hot=(24, 270.0),
        ),
        seed=4001,
    ),
    _ptr(
        "bc",
        BehaviorClass.IRREGULAR_REPEATING,
        "Few TLB misses; DP is the only mechanism with noticeable "
        "predictions (and one where DP does much better than others).",
        recipes.dp_only_app(
            random_footprint=400, random_steps=2_600,
            cycle=[1, 3], cycle_steps=700, refs_per_page=3.0,
            burst_runs=14, hot=(40, 480.0),
        ),
        seed=4002,
    ),
    _ptr(
        "ft",
        BehaviorClass.MIXED,
        "Small pointer graph re-walked plus cold edge scans; modest "
        "accuracy everywhere, ASP nonzero (one of the apps where ASP's "
        "r=1024 table over-prefetches).",
        recipes.mixed_app(
            [
                recipes.history_walk(
                    walk_pages=130, refs_per_page=1.5, sweeps=25,
                    hot=(24, 330.0),
                ),
                recipes.one_touch_strided(
                    segment_pages=260, strides=[1], refs_per_page=2.0,
                    repeats=2, hot=(24, 330.0),
                ),
            ],
            burst_runs=14,
        ),
        seed=4003,
    ),
    _ptr(
        "ks",
        BehaviorClass.IRREGULAR_REPEATING,
        "Few TLB misses; only DP makes noticeable predictions (<20%).",
        recipes.dp_only_app(
            random_footprint=350, random_steps=2_400,
            cycle=[2, 2, 5], cycle_steps=650, refs_per_page=3.0,
            burst_runs=14, hot=(36, 450.0),
        ),
        seed=4004,
    ),
    _ptr(
        "yacr2",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "Cold misses prominent; ASP (and DP) capture the first-time "
        "strided references.",
        recipes.one_touch_strided(
            segment_pages=800, strides=[1, 2, 1], refs_per_page=1.8,
            repeats=3, hot=(24, 255.0),
        ),
        seed=4005,
    ),
)
