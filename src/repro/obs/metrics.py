"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named collection of metric *families*;
each family owns its label schema and all the label-combination
children under it. The design constraints, in order:

- **Zero dependencies.** Pure stdlib; the exposition format is the
  Prometheus text format, produced by :meth:`MetricsRegistry.render`
  so any scraper (or the bundled ``repro-tlb top``) can read it.
- **Cheap on the hot path.** Updating a metric takes one dict lookup
  and one addition under the *family's own* lock (lock striping:
  different families never contend), and a disabled registry
  short-circuits before touching any lock — the replay engines are
  instrumented per-*replay*, never per-miss-entry, so the measured
  overhead on ``specs_per_second`` stays inside the <5% budget.
- **Snapshot consistency.** :meth:`MetricsRegistry.snapshot` and
  :meth:`render` copy each family under its lock, so a histogram's
  bucket counts, total count and sum always agree with each other even
  while writers are racing the scrape.
- **Strictly off the determinism path.** Nothing here feeds
  ``RunSpec.key()``, result rows, or checkpoint digests; telemetry is
  observation only.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Iterable, Sequence

#: Default histogram buckets for request/replay latencies in seconds.
#: Upper bounds are inclusive (Prometheus ``le`` semantics); +Inf is
#: implicit as the final overflow bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(label_names: tuple[str, ...], label_values: tuple) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(label_names, label_values)
    )
    return "{" + inner + "}"


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Quantile ``q`` by linear interpolation inside the bucket holding
    the target rank; ``counts`` ends with the +Inf overflow bucket.

    Exact enough for p50/p99 dashboards, and stable because the buckets
    are fixed. :meth:`MetricFamily.summary` and the SLO rule engine's
    ``_p50``/``_p99`` series both use it.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            lower = 0.0 if index == 0 else bounds[index - 1]
            if index >= len(bounds):
                # Overflow bucket: no finite upper bound to
                # interpolate toward; report its lower edge.
                return lower
            fraction = (rank - seen) / count
            return lower + (bounds[index] - lower) * fraction
        seen += count
    return bounds[-1] if bounds else 0.0


class _HistogramState:
    """One label-combination's bucket counts, total count, and sum."""

    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf overflow
        self.count = 0
        self.sum = 0.0


class MetricFamily:
    """One named metric with a fixed type and label schema.

    Children (one per label-value combination) are created on first
    touch. All access goes through :meth:`inc` / :meth:`set` /
    :meth:`observe` with labels given as keyword arguments::

        requests = registry.counter(
            "repro_http_requests_total", "Requests served.",
            labels=("method", "route", "status"))
        requests.inc(method="GET", route="/stats", status="200")
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets: tuple[float, ...] = ()
        if kind == "histogram":
            if not buckets:
                buckets = DEFAULT_LATENCY_BUCKETS
            ordered = tuple(sorted(float(bound) for bound in buckets))
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"{name}: duplicate histogram bucket bounds")
            self.buckets = ordered
        self._registry = registry
        self._lock = threading.Lock()
        self._series: dict[tuple, Any] = {}

    # -- label plumbing ----------------------------------------------------

    def _key(self, labels: dict[str, Any]) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    # -- updates -----------------------------------------------------------

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (counters must only ever grow)."""
        if not self._enabled():
            return
        if self.kind == "histogram":
            raise TypeError(f"metric {self.name} is a histogram; use observe()")
        if self.kind == "counter" and amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Set a gauge to an absolute value."""
        if not self._enabled():
            return
        if self.kind != "gauge":
            raise TypeError(f"metric {self.name} is a {self.kind}; set() is gauge-only")
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def observe(self, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        if not self._enabled():
            return
        if self.kind != "histogram":
            raise TypeError(f"metric {self.name} is a {self.kind}; observe() is histogram-only")
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = _HistogramState(len(self.buckets))
            state.bucket_counts[index] += 1
            state.count += 1
            state.sum += value

    # -- reads -------------------------------------------------------------

    def value(self, **labels: Any) -> float:
        """Current value of one counter/gauge child (0.0 if untouched)."""
        if self.kind == "histogram":
            raise TypeError(f"metric {self.name} is a histogram; use summary()")
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def total(self) -> float:
        """Sum over every child (counters/gauges)."""
        if self.kind == "histogram":
            raise TypeError(f"metric {self.name} is a histogram; use summary()")
        with self._lock:
            return float(sum(self._series.values()))

    def summary(self, **labels: Any) -> dict[str, float]:
        """Count/sum/quantiles for one histogram child (or all merged).

        Quantiles come from :func:`bucket_quantile`.
        """
        if self.kind != "histogram":
            raise TypeError(f"metric {self.name} is a {self.kind}; summary() is histogram-only")
        with self._lock:
            if labels:
                states = [self._series.get(self._key(labels))]
            else:
                states = list(self._series.values())
            merged = _HistogramState(len(self.buckets))
            for state in states:
                if state is None:
                    continue
                for i, count in enumerate(state.bucket_counts):
                    merged.bucket_counts[i] += count
                merged.count += state.count
                merged.sum += state.sum
        return {
            "count": merged.count,
            "sum": merged.sum,
            "p50": bucket_quantile(self.buckets, merged.bucket_counts, 0.50),
            "p90": bucket_quantile(self.buckets, merged.bucket_counts, 0.90),
            "p99": bucket_quantile(self.buckets, merged.bucket_counts, 0.99),
        }

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A consistent copy of the family: schema plus every child."""
        with self._lock:
            if self.kind == "histogram":
                series = [
                    {
                        "labels": dict(zip(self.label_names, key)),
                        "buckets": list(state.bucket_counts),
                        "count": state.count,
                        "sum": state.sum,
                    }
                    for key, state in self._series.items()
                ]
            else:
                series = [
                    {"labels": dict(zip(self.label_names, key)), "value": value}
                    for key, value in self._series.items()
                ]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "bucket_bounds": list(self.buckets),
            "series": series,
        }

    def render(self) -> list[str]:
        """This family in Prometheus text exposition format."""
        lines: list[str] = []
        snap = self.snapshot()
        if not snap["series"]:
            return lines
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for child in sorted(
            snap["series"], key=lambda c: tuple(sorted(c["labels"].items()))
        ):
            key = tuple(child["labels"][name] for name in self.label_names)
            if self.kind != "histogram":
                pairs = _label_pairs(self.label_names, key)
                lines.append(f"{self.name}{pairs} {_format_value(child['value'])}")
                continue
            cumulative = 0
            for bound, count in zip(
                list(self.buckets) + [math.inf], child["buckets"]
            ):
                cumulative += count
                pairs = _label_pairs(
                    self.label_names + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{pairs} {cumulative}")
            pairs = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}_sum{pairs} {_format_value(child['sum'])}")
            lines.append(f"{self.name}_count{pairs} {child['count']}")
        return lines


class MetricsRegistry:
    """A named set of metric families with a process-wide default.

    Families are get-or-create: calling :meth:`counter` twice with the
    same name returns the same family (a *conflicting* redeclaration —
    different type, labels, or buckets — raises ``ValueError`` instead
    of silently forking the series).

    Args:
        enabled: when False every update is a no-op (reads still work);
            flipped at runtime via :attr:`enabled` — the overhead
            benchmark measures exactly this toggle.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    # -- family constructors -----------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help_text, label_names, buckets, registry=self
                )
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != label_names:
            raise ValueError(
                f"metric {name} already registered as {family.kind}"
                f"{family.label_names}; cannot redeclare as {kind}{label_names}"
            )
        if kind == "histogram" and buckets is not None:
            if family.buckets != tuple(sorted(float(b) for b in buckets)):
                raise ValueError(
                    f"histogram {name} already registered with buckets "
                    f"{family.buckets}; cannot redeclare with {buckets}"
                )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        """Get or create a monotonically increasing counter family."""
        return self._family(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        """Get or create a set-to-current-value gauge family."""
        return self._family(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        """Get or create a fixed-bucket histogram family."""
        return self._family(name, "histogram", help_text, labels, buckets)

    # -- reads and export ----------------------------------------------------

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every family's consistent snapshot, keyed by name."""
        with self._lock:
            families = list(self._families.values())
        return {family.name: family.snapshot() for family in families}

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Drop every family (tests; never called on the hot path)."""
        with self._lock:
            self._families.clear()


def parse_prometheus(text: str) -> dict[str, dict[tuple, float]]:
    """Parse Prometheus text back to ``{metric: {label_tuple: value}}``.

    A deliberately small reader for the round-trip tests and the
    ``repro-tlb top`` scraper — handles exactly what :meth:`render`
    emits (no exemplars, no timestamps). Label tuples are sorted
    ``(name, value)`` pairs so lookups don't depend on emission order.
    """
    metrics: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition("{")
        if rest:
            label_text, _, value_text = rest.rpartition("} ")
            pairs = []
            for item in _split_labels(label_text):
                key, _, raw = item.partition("=")
                pairs.append((key, raw[1:-1].replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")))
            labels = tuple(sorted(pairs))
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        value = float("inf") if value_text == "+Inf" else float(value_text)
        metrics.setdefault(name.strip(), {})[labels] = value
    return metrics


def _split_labels(text: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    items: list[str] = []
    depth_quote = False
    current = ""
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and depth_quote:
            current += text[index:index + 2]
            index += 2
            continue
        if char == '"':
            depth_quote = not depth_quote
        if char == "," and not depth_quote:
            items.append(current)
            current = ""
        else:
            current += char
        index += 1
    if current:
        items.append(current)
    return items
