"""Ablation A7: oracle headroom — learnability vs coverability.

For each behaviour class, compare the best real mechanism against an
oracle that knows the next two misses. Where the oracle is near 1.0 but
every mechanism is near 0 (fma3d, gsm), the pattern is *coverable but
unlearnable* — motivating the paper's closing call for "further work on
prefetching mechanisms" for irregular applications. Where DP already
sits at the oracle's level (galgel, swim), the problem is solved.
"""

from repro.analysis.ascii_chart import format_table
from repro.sim.oracle import replay_oracle

from conftest import write_result

APPS = ("galgel", "swim", "ammp", "parser", "gsm-enc", "fma3d", "gzip")
MECHANISMS = ("DP", "RP", "MP", "ASP")


def _run(context):
    points = [(app, mechanism) for app in APPS for mechanism in MECHANISMS]
    results = context.run_panel(
        [
            context.spec(app, mechanism, rows=256).derive(max_prefetches_per_miss=2)
            for app, mechanism in points
        ],
        points,
    )
    for app in APPS:
        results[app]["oracle"] = replay_oracle(
            context.miss_trace(app), lookahead=2
        ).prediction_accuracy
    return results


def test_ablation_oracle_headroom(benchmark, context, results_dir):
    results = benchmark.pedantic(_run, args=(context,), rounds=1, iterations=1)

    rows = []
    for app, accuracies in results.items():
        best_real = max(accuracies[m] for m in MECHANISMS)
        rows.append(
            [app, accuracies["oracle"], best_real,
             accuracies["oracle"] - best_real]
        )
    write_result(
        results_dir,
        "ablation_oracle",
        format_table(["App", "Oracle (k=2)", "Best mechanism", "Headroom"], rows),
    )

    for app, accuracies in results.items():
        # The oracle bounds every mechanism (same buffer, same issue cap).
        ceiling = accuracies["oracle"]
        for mechanism in MECHANISMS:
            assert accuracies[mechanism] <= ceiling + 0.02, (app, mechanism)
        # And the oracle is near-perfect everywhere: the buffer is
        # never the binding constraint at this lookahead.
        assert ceiling > 0.9, (app, ceiling)

    # fma3d: coverable (oracle ~1) yet unlearnable (mechanisms ~0) —
    # the "motivates further work" case.
    assert max(results["fma3d"][m] for m in MECHANISMS) < 0.1
    # galgel: DP already at the ceiling.
    assert results["galgel"]["oracle"] - results["galgel"]["DP"] < 0.02
