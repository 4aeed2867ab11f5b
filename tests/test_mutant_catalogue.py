"""The mutant catalogue stays current with the code and the tests it names.

`tests/mutants/run.py` reports a stale entry only when the whole catalogue
runs; these checks read the same texts and collect the named tests without
running a mutant, so a refactor that orphans an entry fails here at once.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "mutants"))

from catalogue import MUTANTS  # noqa: E402
from run import select  # noqa: E402


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


def test_catalogue_node_ids_are_collected():
    # the check above reads only a test's function name; a renamed parameter
    # orphans an id such as [nan_c1-False], which pytest's collection sees
    nodes = {node for mutant in MUTANTS for node in mutant.tests}
    files = sorted({node.partition("::")[0] for node in nodes})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *files],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert done.returncode == 0, done.stdout
    collected = set(done.stdout.splitlines())
    # an id without parameters names every case of its test
    functions = {node.split("[")[0] for node in collected}
    assert sorted(node for node in nodes if node not in collected | functions) == []


def test_run_selects_entries_by_id_prefix():
    assert select([]) == list(MUTANTS)
    transport = select(["transport-"])
    assert transport and all(mu.id.startswith("transport-") for mu in transport)
    both = select(["states-", "transport-"])
    assert both == [mu for mu in MUTANTS if mu in transport or mu.id.startswith("states-")]
    with pytest.raises(ValueError, match="no catalogue entry id starts with nothing-"):
        select(["transport-", "nothing-"])
