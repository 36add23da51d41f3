"""MediaBench application models (20 apps).

MediaBench applications are "characteristic of those in embedded and
media processing systems": smaller working sets than SPEC, where cold
misses become prominent — which is why first-touch-capable mechanisms
(ASP, DP) shine on this suite in the paper's Figure 8 while history
schemes often sit near zero.
"""

from __future__ import annotations

from repro.workloads.composer import AppSpec, BehaviorClass, suite_app
from repro.workloads import recipes

_HIGH = frozenset({"high-miss"})


_media = suite_app("mediabench")


MEDIABENCH_APPS: tuple[AppSpec, ...] = (
    _media(
        "adpcm-enc",
        BehaviorClass.STRIDED_REPEATED,
        "Second-highest miss rate (0.192). RP and ASP do very well; MP "
        "performs very poorly — the footprint needs more history rows "
        "than a small table has; DP matches the leaders.",
        recipes.strided_repeated(footprint=2400, refs_per_page=5.2, sweeps=55),
        seed=2001,
        tags=_HIGH,
    ),
    _media(
        "adpcm-dec",
        BehaviorClass.STRIDED_REPEATED,
        "Same shape as adpcm-enc: RP/ASP/DP good, MP very poor — but "
        "the decoder's compressed input keeps its miss rate below the "
        "paper's top-8 band (only adpcm-enc appears in that list).",
        recipes.strided_repeated(
            footprint=2000, refs_per_page=5.0, sweeps=40, hot=(24, 90.0),
        ),
        seed=2002,
    ),
    _media(
        "epic",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "First-time references: ASP captures them, DP keeps pace, "
        "history schemes cannot.",
        recipes.one_touch_strided(
            segment_pages=1400, strides=[1, 2], refs_per_page=2.2,
            repeats=3, hot=(24, 285.0),
        ),
        seed=2003,
    ),
    _media(
        "unepic",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "Like epic (inverse transform): ASP/DP good on cold strided data.",
        recipes.one_touch_strided(
            segment_pages=1100, strides=[2, 1], refs_per_page=2.0,
            repeats=3, hot=(24, 300.0),
        ),
        seed=2004,
    ),
    _media(
        "gsm-enc",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP is the only mechanism with noticeable predictions, though "
        "accuracy stays under ~20%.",
        recipes.dp_only_app(
            random_footprint=1800, random_steps=22_000,
            cycle=[1, 4, 2], cycle_steps=5_000, refs_per_page=2.0,
            hot=(24, 240.0),
        ),
        seed=2005,
    ),
    _media(
        "gsm-dec",
        BehaviorClass.IRREGULAR_REPEATING,
        "Like gsm-enc: only DP makes noticeable predictions (<20%).",
        recipes.dp_only_app(
            random_footprint=1600, random_steps=20_000,
            cycle=[2, 5], cycle_steps=4_200, refs_per_page=2.0,
            hot=(24, 255.0),
        ),
        seed=2006,
    ),
    _media(
        "rasta",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "Moderate accuracy for the stride/distance schemes on cold "
        "filter-bank sweeps.",
        recipes.one_touch_strided(
            segment_pages=700, strides=[1, 3, 1], refs_per_page=2.4,
            repeats=3, hot=(24, 270.0),
        ),
        seed=2007,
    ),
    _media(
        "gs",
        BehaviorClass.IRREGULAR_REPEATING,
        "RP gives best or close-to-best accuracy (history repeats).",
        recipes.history_walk(
            walk_pages=210, refs_per_page=1.5, sweeps=45,
            strided_pages=80, strided_sweeps=10, strided_refs_per_page=1.5,
            hot=(24, 285.0),
        ),
        seed=2008,
    ),
    _media(
        "g721-enc",
        BehaviorClass.LOW_MISS,
        "So few TLB misses that neither history nor strides establish; "
        "prefetching is unimportant.",
        recipes.low_miss_app(
            hot_pages=40, laps=5000, refs_per_page=6.0,
            cold_pages=400, cold_steps=250,
        ),
        seed=2009,
    ),
    _media(
        "g721-dec",
        BehaviorClass.LOW_MISS,
        "Like g721-enc: few misses, no mechanism predicts.",
        recipes.low_miss_app(
            hot_pages=44, laps=4600, refs_per_page=6.0,
            cold_pages=400, cold_steps=230,
        ),
        seed=2010,
    ),
    _media(
        "mipmap-mesa",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "ASP captures the first-time texture sweeps; DP matches.",
        recipes.one_touch_strided(
            segment_pages=2000, strides=[1, 2, 4], refs_per_page=2.0,
            repeats=3, hot=(24, 270.0),
        ),
        seed=2011,
    ),
    _media(
        "jpeg-enc",
        BehaviorClass.IRREGULAR_REPEATING,
        "Only DP makes noticeable predictions (block traversals embed "
        "a distance cycle in otherwise irregular misses).",
        recipes.dp_only_app(
            random_footprint=1500, random_steps=20_000,
            cycle=[1, 7], cycle_steps=4_600, refs_per_page=2.2,
            hot=(24, 255.0),
        ),
        seed=2012,
    ),
    _media(
        "jpeg-dec",
        BehaviorClass.IRREGULAR_REPEATING,
        "Like jpeg-enc: only DP noticeable, under 20%.",
        recipes.dp_only_app(
            random_footprint=1400, random_steps=19_000,
            cycle=[7, 1], cycle_steps=4_200, refs_per_page=2.2,
            hot=(24, 255.0),
        ),
        seed=2013,
    ),
    _media(
        "texgen-mesa",
        BehaviorClass.STRIDED_REPEATED,
        "RP does better than MP (long history over a big footprint); "
        "ASP and DP also good thanks to stride regularity.",
        recipes.strided_repeated(
            footprint=1900, refs_per_page=3.2, sweeps=40, hot=(24, 270.0),
        ),
        seed=2014,
    ),
    _media(
        "mpeg-enc",
        BehaviorClass.STRIDED_REPEATED,
        "Strided repeats within a modest footprint: all mechanisms "
        "reasonable, MP included.",
        recipes.strided_repeated(
            footprint=240, refs_per_page=2.8, sweeps=110, hot=(24, 285.0),
        ),
        seed=2015,
    ),
    _media(
        "mpeg-dec",
        BehaviorClass.IRREGULAR_REPEATING,
        "DP does much better than the others (motion-compensation row "
        "streams interleave into a distance cycle).",
        recipes.interleaved_stream_app(
            num_streams=3, stream_gap=450_000, length=8_000,
            refs_per_page=2.2, sweeps=1, pc_pool=2, hot=(24, 270.0),
        ),
        seed=2016,
    ),
    _media(
        "pgp-enc",
        BehaviorClass.STRIDED_ONE_TOUCH,
        "First-time references captured by ASP (and DP).",
        recipes.one_touch_strided(
            segment_pages=1300, strides=[1], refs_per_page=2.0,
            repeats=3, hot=(24, 300.0),
        ),
        seed=2017,
    ),
    _media(
        "pgp-dec",
        BehaviorClass.LOW_MISS,
        "Few TLB misses; no mechanism makes significant predictions.",
        recipes.low_miss_app(
            hot_pages=52, laps=4400, refs_per_page=6.0,
            cold_pages=700, cold_steps=320,
        ),
        seed=2018,
    ),
    _media(
        "pegwit-enc",
        BehaviorClass.IRREGULAR_REPEATING,
        "Mostly irregular crypto access; DP alone gets slight traction.",
        recipes.dp_only_app(
            random_footprint=900, random_steps=12_000,
            cycle=[3, 2, 4], cycle_steps=2_200, refs_per_page=2.0,
            hot=(24, 270.0),
        ),
        seed=2019,
    ),
    _media(
        "pegwit-dec",
        BehaviorClass.IRREGULAR_REPEATING,
        "Like pegwit-enc: DP slight, others near zero.",
        recipes.dp_only_app(
            random_footprint=850, random_steps=11_000,
            cycle=[2, 3], cycle_steps=2_000, refs_per_page=2.0,
            hot=(24, 270.0),
        ),
        seed=2020,
    ),
)
