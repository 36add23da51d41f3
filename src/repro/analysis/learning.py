"""Learning-curve analysis: accuracy as a function of misses seen.

The paper's qualitative argument for DP (Section 2.5) is partly about
*warm-up*: history schemes (MP, RP) "take a while to learn a pattern,
since only repetitions in addresses can effect a prefetch", while
stride/distance schemes can predict from the second or third miss —
which is why DP captures first-time references that MP/RP never will.

:func:`accuracy_timeline` replays a miss stream window by window
through a :class:`~repro.ckpt.ReplaySession` (the compiled engine
whenever the mechanism has a loop) and reports the prefetch-buffer hit
rate per window of misses, making that warm-up visible;
:func:`misses_to_reach` condenses it to "how many misses until the
mechanism reached X% of its final accuracy".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ckpt.session import ReplaySession
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher


@dataclass(frozen=True)
class TimelinePoint:
    """Accuracy over one window of the miss stream.

    Attributes:
        start_miss: index of the window's first miss.
        misses: misses in the window.
        hits: prefetch-buffer hits in the window.
    """

    start_miss: int
    misses: int
    hits: int

    @property
    def accuracy(self) -> float:
        return self.hits / self.misses if self.misses else 0.0


def accuracy_timeline(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    window: int = 500,
    buffer_entries: int = 16,
) -> list[TimelinePoint]:
    """Replay a miss stream, recording accuracy per window of misses.

    Every hit counts, warm-up included: the timeline exists to show the
    warm-up. The replay trains ``prefetcher`` exactly as a single-shot
    replay does.
    """
    if window <= 0:
        raise ConfigurationError(f"window must be > 0, got {window}")
    session = ReplaySession(
        replace(miss_trace, warmup_misses=0), prefetcher, buffer_entries
    )
    points: list[TimelinePoint] = []
    hits = 0
    while not session.finished:
        start = session.offset
        misses = session.advance(window)
        points.append(TimelinePoint(start, misses, session.pb_hits_measured - hits))
        hits = session.pb_hits_measured
    session.prefetcher  # reading it trains the instance
    return points


def final_accuracy(points: list[TimelinePoint]) -> float:
    """Steady-state accuracy: the mean of the last quarter of windows."""
    if not points:
        return 0.0
    tail = points[max(len(points) * 3 // 4, len(points) - 4):] or points
    hits = sum(p.hits for p in tail)
    misses = sum(p.misses for p in tail)
    return hits / misses if misses else 0.0


def misses_to_reach(
    points: list[TimelinePoint], fraction: float = 0.5
) -> int | None:
    """Misses until windowed accuracy first reaches ``fraction`` of the
    steady-state accuracy; ``None`` if it never does (or never works).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    target = final_accuracy(points) * fraction
    if target <= 0.0:
        return None
    for point in points:
        if point.accuracy >= target:
            return point.start_miss + point.misses
    return None


def render_timeline(
    points: list[TimelinePoint], label: str = "", width: int = 40
) -> str:
    """Sparkline-style text rendering of a timeline."""
    from repro.analysis.ascii_chart import bar

    lines = [f"{label} (window accuracy, {len(points)} windows)"] if label else []
    for point in points:
        lines.append(
            f"  @{point.start_miss:>8} |{bar(point.accuracy, width)}| "
            f"{point.accuracy:5.3f}"
        )
    return "\n".join(lines)
