"""Programmatic validation of the application models' paper claims.

Each application model carries a ``paper_note`` describing the
observation from the paper it was built to reproduce. This module turns
the observations that are *checkable* — the behaviour-class orderings
of Section 3.2 — into executable claims, so a change to the pattern
library or a mechanism that silently breaks an app's class is caught by
``repro-tlb validate`` (and by the benchmark suite that reuses these
claims).

One claim set per behaviour group; apps are mapped to groups here
rather than in the registry because a claim can span mechanisms in ways
the per-app metadata doesn't encode.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.experiments import ExperimentContext

#: app -> mechanism -> accuracy, for one app.
Accuracies = dict[str, float]
#: A claim returns None when satisfied, else a human-readable failure.
Claim = Callable[[Accuracies], str | None]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of checking one application's claims."""

    app: str
    group: str
    accuracies: Accuracies
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _all_good_except_small_mp(acc: Accuracies) -> str | None:
    # RP carries a one-sweep cold start (no history the first time
    # over the data), so its floor is a touch lower at small scales.
    if min(acc["DP"], acc["ASP"]) < 0.7 or acc["RP"] < 0.65:
        return f"expected RP/DP/ASP all good, got {acc}"
    return None


def _history_rp_leads(acc: Accuracies) -> str | None:
    if acc["RP"] < max(acc.values()) - 0.06:
        return f"expected RP best or close, got {acc}"
    return None


def _alternation_mp_beats_rp(acc: Accuracies) -> str | None:
    if acc["MP"] <= acc["RP"]:
        return f"expected MP above RP, got {acc}"
    if acc["ASP"] > 0.1:
        return f"expected ASP to fail on alternation, got {acc}"
    return None


def _one_touch_stride_schemes_only(acc: Accuracies) -> str | None:
    if acc["ASP"] < 0.45 or acc["DP"] < 0.45:
        return f"expected ASP and DP to capture cold strides, got {acc}"
    if acc["RP"] > 0.1 or acc["MP"] > 0.1:
        return f"expected history schemes near zero on one-touch data, got {acc}"
    return None


def _distance_dp_dominates(acc: Accuracies) -> str | None:
    others = max(acc["RP"], acc["MP"], acc["ASP"])
    if acc["DP"] < others + 0.25:
        return f"expected DP well ahead, got {acc}"
    return None


def _dp_only_noticeable(acc: Accuracies) -> str | None:
    if not 0.05 < acc["DP"] < 0.4:
        return f"expected DP noticeable but modest, got {acc}"
    if max(acc["RP"], acc["MP"], acc["ASP"]) > 0.08:
        return f"expected other mechanisms near zero, got {acc}"
    return None


def _nobody_predicts(acc: Accuracies) -> str | None:
    if max(acc.values()) > 0.12:
        return f"expected no mechanism to predict, got {acc}"
    return None


def _mixed_no_claim(acc: Accuracies) -> str | None:
    return None  # mixed/desktop apps: checked only for valid accuracies


#: Behaviour groups: name -> (claim, apps). Apps not listed fall under
#: the "mixed" group with structural checks only.
CLAIM_GROUPS: dict[str, tuple[Claim, tuple[str, ...]]] = {
    "strided-repeated": (
        _all_good_except_small_mp,
        ("galgel", "gap", "facerec", "mesa", "art", "adpcm-enc", "adpcm-dec",
         "texgen-mesa", "mpeg-enc"),
    ),
    "history": (
        _history_rp_leads,
        ("gcc", "crafty", "ammp", "lucas", "sixtrack", "apsi", "gs",
         "vpr", "mcf", "twolf"),
    ),
    "alternation": (_alternation_mp_beats_rp, ("parser", "vortex")),
    "one-touch": (
        _one_touch_stride_schemes_only,
        ("gzip", "perlbmk", "equake", "epic", "unepic", "rasta",
         "mipmap-mesa", "pgp-enc", "anagram", "yacr2"),
    ),
    "distance": (
        _distance_dp_dominates,
        ("wupwise", "swim", "mgrid", "applu", "mpeg-dec", "mpegply", "perl4"),
    ),
    "dp-only": (
        _dp_only_noticeable,
        ("gsm-enc", "gsm-dec", "jpeg-enc", "jpeg-dec", "msvc",
         "pegwit-enc", "pegwit-dec", "ks", "bc"),
    ),
    "nobody": (
        _nobody_predicts,
        ("eon", "fma3d", "g721-enc", "g721-dec", "pgp-dec"),
    ),
    "mixed": (_mixed_no_claim, ("bzip2", "bcc", "winword", "ft")),
}


def group_of(app: str) -> str:
    """Behaviour group an application's claims belong to."""
    for group, (_, apps) in CLAIM_GROUPS.items():
        if app in apps:
            return group
    return "mixed"


def _measure(
    apps: list[str], context: ExperimentContext
) -> dict[str, Accuracies]:
    """Accuracies of every app, replayed as one batch."""
    points = [
        (app, mechanism) for app in apps for mechanism in ("RP", "MP", "DP", "ASP")
    ]
    return context.run_panel(
        [context.spec(app, mechanism, rows=256) for app, mechanism in points],
        points,
    )


def measure_accuracies(app: str, context: ExperimentContext) -> Accuracies:
    """Accuracy of the four head-to-head mechanisms on ``app``."""
    return _measure([app], context)[app]


def _check(app: str, accuracies: Accuracies) -> ValidationResult:
    group = group_of(app)
    claim, _ = CLAIM_GROUPS[group]
    failures: list[str] = []
    for mechanism, value in accuracies.items():
        if not 0.0 <= value <= 1.0:
            failures.append(f"{mechanism} accuracy out of range: {value}")
    message = claim(accuracies)
    if message is not None:
        failures.append(message)
    return ValidationResult(
        app=app, group=group, accuracies=accuracies, failures=tuple(failures)
    )


def validate_app(app: str, context: ExperimentContext) -> ValidationResult:
    """Check one application against its behaviour-group claims."""
    return validate_all(context, apps=[app])[0]


def validate_all(
    context: ExperimentContext, apps: list[str] | None = None
) -> list[ValidationResult]:
    """Validate every (or the given) application model in one batch."""
    from repro.workloads.registry import all_app_names

    names = list(apps) if apps is not None else all_app_names()
    measured = _measure(names, context)
    return [_check(app, measured[app]) for app in names]


def render_report(results: list[ValidationResult]) -> str:
    """Human-readable validation summary."""
    lines = []
    failed = [r for r in results if not r.passed]
    lines.append(
        f"validated {len(results)} application models: "
        f"{len(results) - len(failed)} passed, {len(failed)} failed"
    )
    for result in results:
        status = "ok " if result.passed else "FAIL"
        accuracy_text = " ".join(
            f"{mechanism}={value:.2f}"
            for mechanism, value in result.accuracies.items()
        )
        lines.append(f"  [{status}] {result.app:<14} ({result.group:<16}) {accuracy_text}")
        for failure in result.failures:
            lines.append(f"         -> {failure}")
    return "\n".join(lines)
