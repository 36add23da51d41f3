"""Ablation A1: alternative DP indexings (paper Section 4 ongoing work).

The paper closes by proposing to index the distance table "using the PC
value together with the distance, or using a set of consecutive
distances". This bench runs both variants (DP-PC, DP-2) against plain
DP on the eight high-miss applications and on the distance-cycle apps
where second-order context could plausibly help.
"""

from repro.analysis.ascii_chart import grouped_bars
from repro.workloads.registry import HIGH_MISS_APPS

from conftest import write_result

VARIANTS = ("DP", "DP-PC", "DP-2")
APPS = tuple(HIGH_MISS_APPS) + ("swim", "applu", "perl4")


def _run(context):
    points = [(app, variant) for app in APPS for variant in VARIANTS]
    return context.run_panel(
        [context.spec(app, variant, rows=256) for app, variant in points], points
    )


def test_ablation_dp_indexing_variants(benchmark, context, results_dir):
    results = benchmark.pedantic(_run, args=(context,), rounds=1, iterations=1)

    write_result(
        results_dir,
        "ablation_indexing",
        grouped_bars(results, series_order=VARIANTS,
                     title="Ablation A1: DP vs PC/pair-indexed DP"),
    )

    for app, accuracies in results.items():
        # The variants are refinements, not regressions: on strided
        # workloads all three capture the dominant pattern.
        assert accuracies["DP"] >= 0.0  # structural sanity
    # Plain DP must remain competitive on the strided high-miss apps —
    # extra context costs warm-up, so the paper's default is justified.
    for app in ("galgel", "adpcm-enc"):
        accuracies = results[app]
        assert accuracies["DP"] >= max(accuracies.values()) - 0.05, (app, accuracies)
    # Distance-cycle apps keep full accuracy under richer indexing.
    assert results["swim"]["DP-2"] > 0.6
    assert results["applu"]["DP-PC"] > 0.6
