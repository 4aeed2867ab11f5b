"""The mutant catalogue stays current with the code and the tests it names.

`tests/mutants/run.py` reports a stale entry only when the whole catalogue
runs; these checks read the same texts without running a mutant, so a
refactor that orphans an entry fails here at once.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "mutants"))

from catalogue import MUTANTS  # noqa: E402


def test_catalogue_ids_are_unique():
    ids = [mutant.id for mutant in MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_catalogue_entry_is_current(mutant):
    text = (ROOT / "src" / "mospa" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        test_file = ROOT / path
        assert test_file.is_file(), node
        # a node id names a test function, with or without its parameters
        assert f"def {name.split('[')[0]}(" in test_file.read_text(encoding="utf-8"), node
