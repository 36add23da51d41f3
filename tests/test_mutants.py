"""The mutation gate's table stays applicable (the gate itself runs in
CI: ``python tests/mutants.py``)."""

import pytest

from tests.mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_original_occurs_exactly_once(mutant):
    source = (ROOT / mutant.path).read_text()
    assert source.count(mutant.original) == 1
    assert mutant.replacement != mutant.original
    for path in mutant.selection.split():
        if path.startswith("tests/"):
            assert (ROOT / path.split("::")[0]).exists(), path
    assert mutant.equivalent is None or mutant.equivalent.startswith("equivalent because")


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
