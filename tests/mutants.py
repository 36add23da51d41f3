"""Mutation gate: hand-written mutants that the test suite must kill.

Each row of :data:`MUTANTS` names a source file, an exact text that
occurs in it once, the text that replaces it, and the pytest selection
that must fail once the replacement is made. A row whose mutant cannot
change any observable behaviour says why in ``equivalent`` (a sentence
starting "equivalent because"); the runner does not run it.

Run every mutant from the repository root (standard library only)::

    python tests/mutants.py            # all rows
    python tests/mutants.py plan-order # rows by name

Each mutant is applied to a temporary copy of ``src/`` and ``tests/``,
never to the working tree. The run first checks that every selection
passes on the unmutated copy, then exits 1 if any non-equivalent
mutant survives (its selection passes) or breaks the run (collection
errors, no tests selected). ``tests/test_mutants.py`` checks, in
tier 1, that each original text still occurs exactly once.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one selection may run; a mutant that hangs it counts as killed.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    original: str
    replacement: str
    selection: str
    equivalent: str | None = None


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "plan-order",
        "src/repro/sim/batchpath.py",
        "config = (prefetcher.table.rows, prefetcher.table.ways, *config)",
        "config = (*config, prefetcher.table.rows, prefetcher.table.ways)",
        "tests/test_batchpath.py",
    ),
    Mutant(
        "generate-drops-live",
        "src/repro/sim/batchpath.py",
        "names = _BUFFER + names + tuple(family.live)",
        "names = _BUFFER + names",
        "tests/test_batchpath.py",
    ),
    Mutant(
        "row-codec-inverted",
        "src/repro/sim/batchpath.py",
        "    if plan.family.row_codec is not None:\n"
        "        return (plan.family, plan.config[2:]",
        "    if plan.family.row_codec is None:\n"
        "        return (plan.family, plan.config[2:]",
        "tests/test_batchpath.py",
    ),
    Mutant(
        "memo-wrong-array",
        "src/repro/mem/trace.py",
        "return self._derived(name, getattr(self, name).tolist)",
        "return self._derived(name, self.pages.tolist)",
        "tests/test_trace.py",
    ),
    Mutant(
        "memo-racy-store",
        "src/repro/mem/trace.py",
        "value = self._memo.setdefault(key, build())",
        "value = self._memo[key] = build()",
        "tests/test_batchpath.py tests/test_trace.py",
        equivalent="equivalent because every memo value is a pure function "
        "of the arrays: threads racing on a cold key may each keep their "
        "own copy, but the copies are equal, so no result changes",
    ),
    Mutant(
        "prefetcher-read-skips-write-back",
        "src/repro/ckpt/session.py",
        "        self._replay.write_back(self._prefetcher)\n"
        "        return self._prefetcher",
        "        return self._prefetcher",
        "tests/ckpt/test_session.py",
    ),
    Mutant(
        "resume-skips-state-digest",
        "src/repro/ckpt/manager.py",
        "if blob_digest(blob) != digest:",
        "if False:",
        "tests/ckpt/test_manager.py",
    ),
    Mutant(
        "bookmark-without-state",
        "src/repro/ckpt/manager.py",
        'self.store.put_ckpt(key, line + b"\\n" + blob)',
        'self.store.put_ckpt(key, line + b"\\n")',
        "tests/ckpt/test_manager.py",
    ),
    Mutant(
        "bookmark-never-exists",
        "src/repro/ckpt/manager.py",
        "return self.store.has_ckpt(key)",
        "return False",
        "tests/store/test_streaming.py -k conflicts",
    ),
    Mutant(
        "no-legacy-bookmark-read",
        "src/repro/ckpt/manager.py",
        "if not blob:",
        "if False:",
        "tests/ckpt/test_format_compat.py",
    ),
    Mutant(
        "cost-one-unit",
        "src/repro/service/server.py",
        "wait = self.admission.charge_cost(tenant, len(specs))",
        "wait = self.admission.charge_cost(tenant, 1)",
        "tests/store/test_admission.py -k cost",
    ),
    Mutant(
        "obs-budget-inclusive",
        "src/repro/obs/bench.py",
        'Gate("obs_overhead_fraction", "<", 0.05,',
        'Gate("obs_overhead_fraction", "<=", 0.05,',
        "tests/obs/test_bench_history.py::TestSmokeGates",
    ),
    Mutant(
        "store-budget-loosened",
        "src/repro/obs/bench.py",
        'Gate("store_cold_overhead_fraction", "<=", 0.10,',
        'Gate("store_cold_overhead_fraction", "<=", 0.11,',
        "tests/obs/test_bench_history.py::TestSmokeGates",
    ),
    Mutant(
        "gate-row-dropped",
        "src/repro/obs/bench.py",
        '    Gate("load_clients", ">=", 100,\n'
        '         "load phase ran too few clients to overload admission"),\n',
        "",
        "tests/obs/test_bench_history.py::TestSmokeGates",
    ),
)


def _pytest(copy: Path, selection: str) -> tuple[int, str]:
    """Run ``selection`` in ``copy``; returns (exit code, output tail)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            command + shlex.split(selection),
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = (done.stdout + done.stderr).strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def run(mutants: list[Mutant]) -> int:
    """Apply each mutant to a scratch copy and run its selection."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as scratch:
        copy = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        live = [m for m in mutants if m.equivalent is None]
        for selection in dict.fromkeys(m.selection for m in live):
            code, tail = _pytest(copy, selection)
            if code != 0:
                print(f"unmutated selection {selection!r} fails ({code}): {tail}")
                return 1
        failures = 0
        for mutant in mutants:
            if mutant.equivalent is not None:
                print(f"{mutant.name:36} equivalent (not run)")
                continue
            target = copy / mutant.path
            source = target.read_text()
            if source.count(mutant.original) != 1:
                print(f"{mutant.name:36} BROKEN: original text not found once")
                failures += 1
                continue
            target.write_text(source.replace(mutant.original, mutant.replacement))
            started = time.monotonic()
            try:
                code, tail = _pytest(copy, mutant.selection)
            finally:
                target.write_text(source)
            elapsed = time.monotonic() - started
            # pytest exits 1 when a test failed; any other failure code
            # (usage, collection, no tests) says nothing about the mutant.
            verdict = {0: "SURVIVED", 1: "killed", -1: "killed (timeout)"}.get(
                code, f"BROKEN (pytest exit {code})"
            )
            failures += not verdict.startswith("killed")
            print(f"{mutant.name:36} {verdict:12} {elapsed:6.1f} s  {tail}")
    print(f"{len(mutants)} mutants, {failures} not killed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    return run(chosen)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
