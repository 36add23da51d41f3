"""One-shot experiment report: every table and figure in one document.

``repro-tlb report`` (or :func:`generate_report`) runs the full
evaluation — Tables 1–3, Figures 7–9 — through one shared
:class:`~repro.analysis.experiments.ExperimentContext` and renders a
single Markdown document with paper-vs-measured comparisons, suitable
for regenerating the numbers cited in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.analysis.experiments import ExperimentContext
from repro.analysis.tables import (
    check_table2_shape,
    check_table3_shape,
    compare_table2,
    compare_table3,
)


def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def generate_report(
    scale: float = 0.25,
    context: ExperimentContext | None = None,
    include_figures: bool = True,
) -> str:
    """Run every experiment and render the Markdown report."""
    context = context or ExperimentContext(scale=scale)
    sections: list[str] = [
        "# TLB prefetching reproduction — full experiment report",
        f"Workload scale: {context.scale}; prefetch buffer: "
        f"{context.buffer_entries} entries.",
    ]

    sections.append("## Table 1 — hardware comparison")
    sections.append(_code_block(context.run_table1()))

    sections.append("## Table 2 — accuracy averages (s=2, r=256)")
    table2 = context.run_table2()
    sections.append(_code_block(compare_table2(table2)))
    failures = check_table2_shape(table2)
    sections.append(
        "Shape check: " + ("all paper orderings hold." if not failures
                           else "; ".join(failures))
    )

    sections.append("## Table 3 — normalized execution cycles")
    table3 = context.run_table3()
    sections.append(_code_block(compare_table3(table3)))
    failures = check_table3_shape(table3)
    sections.append(
        "Shape check: " + ("all paper orderings hold." if not failures
                           else "; ".join(failures))
    )

    if include_figures:
        sections.append("## Figure 7 — SPEC CPU2000 prediction accuracy")
        sections.append(
            _code_block(context.render_figure(context.run_figure7(), ""))
        )
        sections.append("## Figure 8 — MediaBench / Etch / PtrDist")
        sections.append(
            _code_block(context.render_figure(context.run_figure8(), ""))
        )
        sections.append("## Figure 9 — DP sensitivity")
        for title, runner in (
            ("9a: table size x associativity", context.run_figure9_tables),
            ("9b: prediction slots", context.run_figure9_slots),
            ("9c: prefetch buffer size", context.run_figure9_buffers),
            ("9d: TLB size", context.run_figure9_tlbs),
        ):
            sections.append(f"### Figure {title}")
            sections.append(_code_block(context.render_figure(runner(), "")))

    return "\n\n".join(sections) + "\n"
