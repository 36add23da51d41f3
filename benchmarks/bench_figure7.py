"""Regenerate Figure 7: prediction accuracy for all 26 SPEC CPU2000 apps.

Bars: RP; MP at r=1024/512/256 across associativities; DP direct-mapped
at r=1024..32; ASP at r=1024..32 — the paper's exact legend. The
assertions check the per-group orderings the paper narrates in Section
3.2 (``repro.workloads.validation.CLAIM_GROUPS`` lists each group's
apps).
"""

from conftest import write_result


def test_figure7_spec2000(benchmark, context, results_dir):
    results = benchmark.pedantic(context.run_figure7, rounds=1, iterations=1)

    write_result(
        results_dir,
        "figure7",
        context.render_figure(results, "Figure 7: SPEC CPU2000 prediction accuracy"),
    )

    assert len(results) == 26

    # galgel-class: all schemes good; MP collapses at small r but
    # recovers at r=1024.
    galgel = results["galgel"]
    assert galgel["RP"] > 0.9
    assert galgel["DP,256,D"] > 0.9
    assert galgel["ASP,256"] > 0.9
    assert galgel["MP,256,D"] < 0.1
    assert galgel["MP,1024,D"] > 0.8

    # History class: RP leads, ASP fails.
    for app in ("gcc", "crafty", "ammp", "lucas", "sixtrack"):
        acc = results[app]
        best = max(acc.values())
        assert acc["RP"] >= best - 0.05, (app, acc)
        assert acc["ASP,256"] < 0.45, (app, acc)

    # Alternation class: MP (big enough) beats RP.
    for app in ("parser", "vortex"):
        acc = results[app]
        assert acc["MP,1024,D"] > acc["RP"], (app, acc)

    # One-touch class: ASP and DP good, history schemes near zero.
    for app in ("gzip", "perlbmk", "equake"):
        acc = results[app]
        assert acc["ASP,256"] > 0.5, (app, acc)
        assert acc["DP,256,D"] > 0.5, (app, acc)
        assert acc["RP"] < 0.1, (app, acc)

    # Distance class: DP far ahead of everything else.
    for app in ("wupwise", "swim", "mgrid", "applu"):
        acc = results[app]
        others = max(acc["RP"], acc["MP,1024,D"], acc["ASP,1024"])
        assert acc["DP,256,D"] > others + 0.3, (app, acc)

    # Negative control: nobody predicts fma3d.
    assert max(results["fma3d"].values()) < 0.1

    # DP is table-size robust: even r=32 stays useful on galgel.
    assert results["galgel"]["DP,32,D"] > 0.9
