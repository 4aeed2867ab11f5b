"""Property test of the scenario parser and the CLI exit-code contract:
whatever a scenario file holds, `mospa` exits 0 or 1 and never raises."""

import copy
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mospa import cli  # noqa: E402

FIG = json.loads((Path(__file__).resolve().parent.parent / "demos" / "scenarios"
                  / "fig1.json").read_text())

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every key or index path into a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(FIG)) + [("q_matrix",)]


def _mutate(doc, path, action, value):
    *head, last = path
    node = doc
    for key in head:
        if isinstance(node, (dict, list)) and (key in node if isinstance(node, dict)
                                               else key < len(node)):
            node = node[key]
        else:
            return
    if isinstance(node, dict):
        if action == "delete":
            node.pop(last, None)
        else:
            node[last] = value
    elif isinstance(node, list) and last < len(node):
        if action == "delete":
            del node[last]
        elif action == "append":
            node.append(value)
        else:
            node[last] = value


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(PATHS),
                          st.sampled_from(("replace", "delete", "append")), JUNK),
                min_size=1, max_size=3))
def test_mutated_scenarios_exit_0_or_1(mutations):
    doc = copy.deepcopy(FIG)
    for path, action, value in mutations:
        _mutate(doc, path, action, value)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.run(["mospa", "--scenario", str(scenario), "--x-hat=-4,3",
                        "--samples", "2", "--output", str(Path(tmp) / "out.csv")])
    assert code in (0, 1)
