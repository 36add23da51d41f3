"""Paper reference values and comparison helpers for Tables 2 and 3.

The numbers the paper reports are pinned here so benchmarks and
EXPERIMENTS.md can print paper-vs-measured side by side. Absolute
values are not expected to match (our substrate is a synthetic trace
model, not the authors' SimpleScalar + SPEC binaries); the *claims*
verified by :func:`check_table2_shape` / :func:`check_table3_shape` are
the orderings those two functions encode.
"""

from __future__ import annotations

from repro.analysis.ascii_chart import format_table

#: Paper Table 2: scheme -> (average, weighted average), s=2, r=256.
PAPER_TABLE2: dict[str, tuple[float, float]] = {
    "DP": (0.43, 0.82),
    "RP": (0.29, 0.86),
    "ASP": (0.28, 0.73),
    "MP": (0.11, 0.04),
}

#: Paper Table 3: app -> (RP, DP) normalized execution cycles.
PAPER_TABLE3: dict[str, tuple[float, float]] = {
    "ammp": (0.97, 0.86),
    "mcf": (1.09, 0.95),
    "vpr": (0.99, 0.98),
    "twolf": (0.98, 0.98),
    "lucas": (1.00, 0.99),
}

#: Paper Section 3.2: miss rates of the 8 highest-miss applications on
#: a 128-entry fully-associative TLB.
PAPER_HIGH_MISS_RATES: dict[str, float] = {
    "galgel": 0.228,
    "adpcm-enc": 0.192,
    "mcf": 0.090,
    "apsi": 0.018,
    "vpr": 0.016,
    "lucas": 0.016,
    "twolf": 0.013,
    "ammp": 0.0113,
}


def compare_table2(measured: dict[str, dict[str, float]]) -> str:
    """Render measured Table 2 aggregates next to the paper's."""
    headers = ["Scheme", "avg (meas)", "avg (paper)", "wavg (meas)", "wavg (paper)"]
    rows = []
    for scheme, (paper_avg, paper_wavg) in PAPER_TABLE2.items():
        if scheme not in measured:
            continue
        rows.append(
            [
                scheme,
                measured[scheme]["average"],
                paper_avg,
                measured[scheme]["weighted"],
                paper_wavg,
            ]
        )
    return format_table(headers, rows)


def compare_table3(measured: dict[str, dict[str, float]]) -> str:
    """Render measured Table 3 normalized cycles next to the paper's."""
    headers = ["App", "RP (meas)", "RP (paper)", "DP (meas)", "DP (paper)"]
    rows = []
    for app, (paper_rp, paper_dp) in PAPER_TABLE3.items():
        if app not in measured:
            continue
        rows.append(
            [app, measured[app]["RP"], paper_rp, measured[app]["DP"], paper_dp]
        )
    return format_table(headers, rows)


def check_table2_shape(measured: dict[str, dict[str, float]]) -> list[str]:
    """Verify the paper's Table 2 orderings; return violated claims.

    Claims: DP first on the plain average; RP first on the weighted
    average with DP within 10%; MP's weighted average collapses below
    every other scheme.
    """
    failures: list[str] = []
    avg = {scheme: values["average"] for scheme, values in measured.items()}
    wavg = {scheme: values["weighted"] for scheme, values in measured.items()}
    if max(avg, key=avg.get) != "DP":
        failures.append(f"DP should lead the plain average, got {avg}")
    if wavg["RP"] < wavg["DP"]:
        if wavg["DP"] - wavg["RP"] > 0.05:
            failures.append(f"RP should edge DP on the weighted average, got {wavg}")
    if wavg["RP"] - wavg["DP"] > 0.15:
        failures.append(f"DP should stay close to RP on the weighted average, got {wavg}")
    if min(wavg, key=wavg.get) != "MP":
        failures.append(f"MP's weighted average should collapse, got {wavg}")
    return failures


def check_table3_shape(measured: dict[str, dict[str, float]]) -> list[str]:
    """Verify the paper's Table 3 claims; return violated claims.

    Claims: DP is at least as fast as RP on every listed app (despite
    RP's better accuracy there), and RP is a slowdown (>= 1.0) on mcf.
    """
    failures: list[str] = []
    for app, values in measured.items():
        if values["DP"] > values["RP"] + 1e-9:
            failures.append(
                f"{app}: DP ({values['DP']:.3f}) should not be slower than "
                f"RP ({values['RP']:.3f})"
            )
    if "mcf" in measured and measured["mcf"]["RP"] < 1.0:
        failures.append(
            f"mcf: RP should be a slowdown (>= 1.0), got {measured['mcf']['RP']:.3f}"
        )
    return failures
