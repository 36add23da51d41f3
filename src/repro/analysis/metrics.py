"""Prediction-accuracy aggregates (the paper's Table 2 and headline claims).

Two averages are reported in the paper:

- the plain average over all ``n = 56`` applications,
  ``(Σ p_i) / n`` — how broadly a mechanism helps; and
- the miss-rate-weighted average ``Σ (m_i · p_i) / Σ m_i`` — how much
  it helps *where it matters* (the high-miss applications dominate).

The paper's headline count — DP "provides the best or within 10% of the
best prediction accuracy in 39 (and best in 36) of the 56 applications"
— is computed by :func:`best_or_within_counts`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.sim.stats import PrefetchRunStats


def average_accuracy(runs: Sequence[PrefetchRunStats]) -> float:
    """Plain average of prediction accuracy over runs: ``(Σ p_i)/n``."""
    if not runs:
        return 0.0
    return sum(run.prediction_accuracy for run in runs) / len(runs)


def weighted_average_accuracy(runs: Sequence[PrefetchRunStats]) -> float:
    """Miss-rate-weighted average: ``Σ (m_i · p_i) / Σ m_i``."""
    total_weight = sum(run.miss_rate for run in runs)
    if total_weight == 0.0:
        return 0.0
    weighted = sum(run.miss_rate * run.prediction_accuracy for run in runs)
    return weighted / total_weight


def best_or_within_counts(
    per_app: Mapping[str, Mapping[str, float]],
    mechanism: str,
    tolerance: float = 0.10,
    floor: float = 0.01,
) -> tuple[int, int]:
    """Count apps where ``mechanism`` is best / within ``tolerance`` of best.

    Args:
        per_app: ``app -> mechanism label -> accuracy``.
        mechanism: the label to score.
        tolerance: relative closeness to the per-app best (the paper
            uses "within 10% of the best").
        floor: apps whose best accuracy is below this are skipped — ties
            at zero (the eon/fma3d class) say nothing about quality.

    Returns:
        ``(best_count, best_or_within_count)``.
    """
    best = 0
    within = 0
    for accuracies in per_app.values():
        if mechanism not in accuracies or not accuracies:
            continue
        top = max(accuracies.values())
        if top < floor:
            continue
        mine = accuracies[mechanism]
        if mine >= top:
            best += 1
        if mine >= top * (1.0 - tolerance):
            within += 1
    return best, within


def accuracy_by_mechanism(
    runs: Sequence[PrefetchRunStats],
) -> dict[str, dict[str, float]]:
    """Pivot runs into ``app -> mechanism -> accuracy``."""
    table: dict[str, dict[str, float]] = {}
    for run in runs:
        table.setdefault(run.workload, {})[run.mechanism] = run.prediction_accuracy
    return table
