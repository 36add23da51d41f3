"""Golden-file regression tests: the paper numbers, frozen on disk.

``tests/golden/*.json`` are :meth:`ResultSet.save` outputs for the
canonical RunSpecs below, produced by the *reference* engine. The
tests re-run those specs — on the reference engine AND the compiled
engine, under ``auto`` and its ``fast``/``batch`` aliases — and fail
loudly on any row that
drifts, so an engine or mechanism change that shifts paper numbers
cannot land silently.

When a change is *supposed* to shift numbers (a modeled-behaviour fix,
never an optimization), regenerate with::

    PYTHONPATH=src python tests/test_golden.py --regen

and justify the diff in the commit message.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.run import MissStreamCache, ResultSet, Runner, RunSpec

GOLDEN_DIR = Path(__file__).parent / "golden"

SCALE = 0.05

#: The canonical grid: the Table-2 head-to-head four plus the
#: stateless baseline, over three behaviour-diverse workloads.
CANONICAL_SPECS = [
    RunSpec.of(app, mechanism, scale=SCALE)
    for app in ("galgel", "swim", "eon")
    for mechanism in ("DP", "RP", "ASP", "MP", "SP")
]

#: The superpage axis: DP and RP at 8 KiB and 16 KiB pages.
SUPERPAGE_SPECS = [
    RunSpec.of("galgel", mechanism, scale=SCALE, page_size=page_size)
    for mechanism in ("DP", "RP")
    for page_size in (8192, 16384)
]

#: The Section 4 extensions, which no other golden file pins: DP keyed
#: by (PC, distance) and by the last two distances.
DP_VARIANT_SPECS = [
    RunSpec.of(app, mechanism, scale=SCALE)
    for app in ("galgel", "swim", "eon")
    for mechanism in ("DP-PC", "DP-2")
]

GOLDEN_FILES: dict[str, list[RunSpec]] = {
    "canonical_grid.json": CANONICAL_SPECS,
    "superpages.json": SUPERPAGE_SPECS,
    "dp_variants.json": DP_VARIANT_SPECS,
}


def _run(specs: list[RunSpec], engine: str) -> ResultSet:
    return Runner(cache=MissStreamCache()).run(
        [spec.derive(engine=engine) for spec in specs]
    )


@pytest.mark.parametrize("filename", sorted(GOLDEN_FILES))
@pytest.mark.parametrize("engine", ["reference", "auto", "fast", "batch"])
def test_results_match_golden(filename, engine):
    path = GOLDEN_DIR / filename
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "`PYTHONPATH=src python tests/test_golden.py --regen`"
    )
    golden = ResultSet.load(path)
    rerun = _run(GOLDEN_FILES[filename], engine)
    assert len(golden) == len(rerun)
    for golden_row, rerun_row in zip(golden, rerun):
        if asdict(golden_row) != asdict(rerun_row):
            diffs = {
                key: (value, asdict(rerun_row)[key])
                for key, value in asdict(golden_row).items()
                if asdict(rerun_row)[key] != value
            }
            raise AssertionError(
                f"{filename}: {golden_row.workload}/{golden_row.mechanism} "
                f"drifted on engine={engine} (golden, rerun): {diffs}\n"
                "If this shift is intended, regenerate with "
                "`PYTHONPATH=src python tests/test_golden.py --regen` and "
                "explain why in the commit."
            )
    assert golden.to_json() == rerun.to_json()


def test_golden_rows_carry_spec_keys():
    """Goldens must be joinable by content-addressed spec key."""
    golden = ResultSet.load(GOLDEN_DIR / "canonical_grid.json")
    saved_keys = [run.extra["spec_key"] for run in golden]
    assert saved_keys == [spec.key() for spec in CANONICAL_SPECS]


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, specs in GOLDEN_FILES.items():
        path = _run(specs, "reference").save(GOLDEN_DIR / filename)
        print(f"wrote {path} ({len(specs)} runs)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
