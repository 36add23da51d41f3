"""Queryable, serializable collections of simulation results.

A :class:`ResultSet` wraps the :class:`~repro.sim.stats.PrefetchRunStats`
rows a :class:`~repro.run.runner.Runner` produced and gives callers the
operations every table/figure script was hand-rolling: field-based
filtering, pivoting into ``workload -> mechanism -> value``
dictionaries, and JSON save/load so sweeps run on different machines
(or at different times) can be joined and compared.

Field names accepted by :meth:`ResultSet.filter` and :meth:`pivot`
resolve against, in order: dataclass fields (``workload``,
``mechanism``, ...), derived properties (``prediction_accuracy``,
``miss_rate``, ...), then the per-run ``extra`` annotations
(``spec_key``, ``scale``, sweep coordinates...).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

from repro.errors import ResultMergeError
from repro.sim.stats import PrefetchRunStats

#: Stored dataclass fields, in declaration order.
STAT_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(PrefetchRunStats) if f.name != "extra"
)

#: Derived metrics exposed alongside the stored fields.
DERIVED_FIELDS: tuple[str, ...] = (
    "prediction_accuracy",
    "miss_rate",
    "memory_ops_total",
    "memory_ops_per_miss",
    "buffer_waste_fraction",
)

_SCHEMA = "repro.resultset/v1"


def value_of(run: PrefetchRunStats, name: str) -> Any:
    """Resolve ``name`` on a run: field, derived metric, or extra key."""
    if name in STAT_FIELDS or name in DERIVED_FIELDS:
        return getattr(run, name)
    if name in run.extra:
        return run.extra[name]
    raise KeyError(
        f"unknown result field {name!r}; stored fields: {STAT_FIELDS}, "
        f"derived: {DERIVED_FIELDS}, extra keys on this run: "
        f"{tuple(run.extra)}"
    )


class ResultSet(Sequence[PrefetchRunStats]):
    """An ordered, immutable-by-convention collection of run results."""

    def __init__(self, runs: Iterable[PrefetchRunStats] = ()) -> None:
        self._runs: list[PrefetchRunStats] = list(runs)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[PrefetchRunStats]:
        return iter(self._runs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self._runs[index])
        return self._runs[index]

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet([*self._runs, *other._runs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._runs == other._runs

    def __repr__(self) -> str:
        workloads = {run.workload for run in self._runs}
        mechanisms = {run.mechanism for run in self._runs}
        return (
            f"ResultSet({len(self._runs)} runs, "
            f"{len(workloads)} workloads, {len(mechanisms)} mechanisms)"
        )

    @property
    def runs(self) -> list[PrefetchRunStats]:
        """The underlying rows (a defensive copy)."""
        return list(self._runs)

    # -- querying ----------------------------------------------------------

    def filter(
        self,
        predicate: Callable[[PrefetchRunStats], bool] | None = None,
        **equals: Any,
    ) -> "ResultSet":
        """Rows matching a predicate and/or field equality constraints.

        ``results.filter(workload="galgel", mechanism_name="DP")``
        """
        selected = self._runs
        if predicate is not None:
            selected = [run for run in selected if predicate(run)]
        for name, wanted in equals.items():
            selected = [run for run in selected if value_of(run, name) == wanted]
        return ResultSet(selected)

    def pivot(
        self,
        index: str = "workload",
        columns: str = "mechanism",
        values: str = "prediction_accuracy",
    ) -> dict[Any, dict[Any, Any]]:
        """Two-level dictionary ``index -> column -> value``.

        The shape every figure renderer consumes (later duplicates win,
        matching how the figure sweeps are constructed).
        """
        table: dict[Any, dict[Any, Any]] = {}
        for run in self._runs:
            table.setdefault(value_of(run, index), {})[value_of(run, columns)] = (
                value_of(run, values)
            )
        return table

    def merge(self, *others: "ResultSet") -> "ResultSet":
        """Union with duplicate-spec detection.

        Rows are identified by their ``spec_key`` annotation (stamped by
        the :class:`~repro.run.runner.Runner`): a spec appearing on both
        sides with *identical* rows is kept once, so a store-loaded
        partial sweep merges cleanly with the freshly computed
        remainder. Two *different* rows for the same spec raise
        :class:`~repro.errors.ResultMergeError` — that means two
        contradictory measurements, and silently keeping one would
        corrupt the sweep. Rows without a ``spec_key`` (e.g. from the
        low-level ``evaluate`` wrapper) are always appended verbatim.
        No code in the package calls it: README's service section
        documents it for joining store-loaded and fresh rows.
        """
        merged: list[PrefetchRunStats] = []
        seen: dict[str, PrefetchRunStats] = {}
        for run in (run for source in (self, *others) for run in source):
            key = run.extra.get("spec_key")
            if key is None:
                merged.append(run)
                continue
            existing = seen.get(key)
            if existing is None:
                seen[key] = run
                merged.append(run)
            elif existing != run:
                raise ResultMergeError(
                    f"conflicting rows for spec {key!r} "
                    f"({existing.workload}/{existing.mechanism}): the sets "
                    "disagree about the same spec; re-run one side or drop "
                    "the stale rows"
                )
        return ResultSet(merged)

    # -- persistence -------------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to the versioned interchange format."""
        payload = {"schema": _SCHEMA, "runs": [asdict(run) for run in self._runs]}
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Parse :meth:`to_json` output, failing loudly on any other shape.

        Files saved by a different (older or newer) schema raise
        :class:`ValueError` with the offending schema named — never a
        bare ``KeyError``/``TypeError`` from the row constructor.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"not a ResultSet file: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != _SCHEMA:
            raise ValueError(
                f"unsupported ResultSet schema: {schema!r} (this library "
                f"reads {_SCHEMA!r}); re-save the results with this version"
            )
        runs_payload = payload.get("runs")
        if not isinstance(runs_payload, list):
            raise ValueError(
                f"ResultSet file declares schema {_SCHEMA!r} but has no "
                "'runs' list"
            )
        runs = []
        for position, run in enumerate(runs_payload):
            try:
                runs.append(PrefetchRunStats(**run))
            except TypeError as exc:
                raise ValueError(
                    f"run {position} does not match schema {_SCHEMA!r} "
                    f"(saved by another version?): {exc}"
                ) from exc
        return cls(runs)

    def save(self, path: str | Path) -> Path:
        """Write the set to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ResultSet":
        """Read a set previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())
