"""Ablation A4: sequential-prefetching variations and the RP variant.

Two claims the paper makes in passing are checked empirically here:

1. Section 2.1: among sequential schemes, "simulations have shown only
   slight differences" — so tagged SP stands in for all of them, and
   ASP subsumes SP. We run tagged SP, adaptive SP (Dahlgren–Stenström)
   and ASP on sequential-friendly workloads.
2. Section 2.4/2.6: RP has a variation that prefetches three entries.
   We compare RP against RP3 on the history-friendly apps.
"""

from repro.analysis.ascii_chart import grouped_bars

from conftest import write_result

SEQ_APPS = ("gzip", "perlbmk", "adpcm-enc", "galgel", "mipmap-mesa")
HISTORY_APPS = ("ammp", "gcc", "crafty", "mcf")


def _run_sequential(context):
    points = [(app, name) for app in SEQ_APPS for name in ("SP", "SP-adaptive", "ASP")]
    return context.run_panel(
        [context.spec(app, name, rows=256) for app, name in points], points
    )


def _run_rp_variant(context):
    points = [(app, label) for app in HISTORY_APPS for label in ("RP", "RP3")]
    return context.run_panel(
        [
            context.spec(app, "RP", variant_three=label == "RP3")
            for app, label in points
        ],
        points,
    )


def test_ablation_sequential_variants(benchmark, context, results_dir):
    results = benchmark.pedantic(_run_sequential, args=(context,), rounds=1, iterations=1)

    write_result(
        results_dir,
        "ablation_sequential",
        grouped_bars(results, series_order=("SP", "SP-adaptive", "ASP"),
                     title="Ablation A4a: sequential prefetching variants"),
    )

    for app, accuracies in results.items():
        # On unit-stride workloads the three schemes converge — the
        # paper's justification for evaluating only tagged SP/ASP.
        if app in ("gzip", "adpcm-enc", "galgel"):
            spread = max(accuracies.values()) - min(accuracies.values())
            assert spread < 0.35, (app, accuracies)
    # ASP subsumes SP on non-unit strides (mipmap has stride-4 phases).
    assert results["mipmap-mesa"]["ASP"] >= results["mipmap-mesa"]["SP"] - 0.05


def test_ablation_rp_three_entry_variant(benchmark, context, results_dir):
    results = benchmark.pedantic(_run_rp_variant, args=(context,), rounds=1, iterations=1)

    write_result(
        results_dir,
        "ablation_rp3",
        grouped_bars(results, series_order=("RP", "RP3"),
                     title="Ablation A4b: RP vs three-entry RP"),
    )

    for app, accuracies in results.items():
        # The extra entry is a small perturbation either way — it adds
        # coverage but also buffer pressure.
        assert abs(accuracies["RP3"] - accuracies["RP"]) < 0.2, (app, accuracies)
