"""One replay path: only the engines drive a mechanism miss by miss.

Analysis code (validation, learning curves, traffic, sweeps, the
experiment context and the paper harness) replays through a
:class:`~repro.run.Runner` batch or :mod:`repro.sim.engine`, so a
mechanism's replay semantics live in two places only: the oracle and
the compiled engine. This source scan keeps it that way:

- ``replay_prefetcher`` (the oracle) may be named in code only by
  ``sim/two_phase.py`` (which defines it), ``sim/engine.py`` (the
  engine selector) and the ``repro`` / ``repro.sim`` re-exports;
- ``Prefetcher.on_miss`` may be reached (called, or bound for a call)
  only by the oracle, the online MMU pipeline and the cycle-timing
  model, which models different semantics.

Code means Python tokens: prose in docstrings and comments may still
cite the oracle. ``tests/`` is exempt — tests drive mechanisms
directly on purpose.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Every directory of Python code that ships or runs outside tier-1.
SCANNED = ("src", "benchmarks", "examples", "perfbench")

ORACLE_ALLOWED = frozenset(
    {
        "src/repro/sim/two_phase.py",
        "src/repro/sim/engine.py",
        "src/repro/__init__.py",
        "src/repro/sim/__init__.py",
    }
)

ON_MISS_ALLOWED = frozenset(
    {
        "src/repro/sim/two_phase.py",
        "src/repro/tlb/mmu.py",
        "src/repro/sim/cycle.py",
    }
)


def _tokens(source: str) -> list[tokenize.TokenInfo]:
    return [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.NAME, tokenize.OP)
    ]


def oracle_references(source: str) -> list[int]:
    """Lines where code names ``replay_prefetcher``."""
    return [
        token.start[0]
        for token in _tokens(source)
        if token.type == tokenize.NAME and token.string == "replay_prefetcher"
    ]


def on_miss_uses(source: str) -> list[int]:
    """Lines where code reaches a mechanism's ``.on_miss`` attribute."""
    tokens = _tokens(source)
    return [
        token.start[0]
        for previous, token in zip(tokens, tokens[1:])
        if previous.string == "." and token.string == "on_miss"
    ]


def _sources() -> list[tuple[str, str]]:
    return [
        (path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


class TestScanners:
    def test_oracle_reference_forms(self):
        source = (
            "from repro.sim.two_phase import replay_prefetcher\n"
            "import repro.sim.two_phase as tp\n"
            "stats = tp.replay_prefetcher(trace, p)\n"
            '"""replay_prefetcher in a docstring is prose."""\n'
            "# so is replay_prefetcher in a comment\n"
        )
        assert oracle_references(source) == [1, 3]

    def test_on_miss_forms(self):
        source = (
            "class P:\n"
            "    def on_miss(self, pc, page, evicted, pb_hit):\n"
            "        return []\n"
            "p.on_miss(1, 2, 3, False)\n"
            "step = p.on_miss\n"
            "p.on_miss_count = 0\n"
            "'p.on_miss(' \n"
        )
        assert on_miss_uses(source) == [4, 5]


class TestOneReplayPath:
    def test_scan_covers_the_analysis_code(self):
        scanned = {name for name, _ in _sources()}
        for expected in (
            "src/repro/analysis/learning.py",
            "src/repro/analysis/traffic.py",
            "src/repro/workloads/validation.py",
            "src/repro/sim/sweep.py",
            "benchmarks/bench_table3.py",
        ):
            assert expected in scanned
        assert ORACLE_ALLOWED | ON_MISS_ALLOWED <= scanned

    @pytest.mark.parametrize(
        "scanner, allowed",
        [(oracle_references, ORACLE_ALLOWED), (on_miss_uses, ON_MISS_ALLOWED)],
        ids=["replay_prefetcher", "on_miss"],
    )
    def test_only_the_engines_replay(self, scanner, allowed):
        offenders = [
            f"{name}:{line}"
            for name, source in _sources()
            if name not in allowed
            for line in scanner(source)
        ]
        assert offenders == [], (
            "replay through repro.run.Runner / ExperimentContext.run_panel "
            "or repro.sim.engine.replay / open_replay instead: "
            + ", ".join(offenders)
        )
