"""Seeded mutants of `src/mospa` and the tests that must kill each one.

Each entry changes one exact text, which must occur once in its file, into
its replacement; `run.py` applies the entries one at a time to a copy of
`src/` and runs the entry's tests against it.  An entry is killed when at
least one of its tests fails.  Entries are never deleted and their tests are
never narrowed to get a pass: when a refactor removes an entry's text, the
entry is re-targeted at the new code, or retired with a CHANGES.md line that
says why.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/mospa
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # the basis tree's preorder arrays (transport._transportation_simplex)
    Mutant(
        id="transport-shift-sign",
        file="transport.py",
        old="        pot[sub] += sign[sub] * shift\n",
        new="        pot[sub] -= sign[sub] * shift\n",
        tests=("tests/test_transport.py::test_preorder_arrays_hold_after_every_pivot[lone-sink]",
               "tests/test_transport.py::test_pivot_path_is_pinned"),
    ),
    Mutant(
        id="transport-stale-size",
        file="transport.py",
        old="        size[gain] += hi - lo\n",
        new="",
        tests=("tests/test_transport.py::test_preorder_arrays_hold_after_every_pivot",
               "tests/test_transport.py::"
               "test_preorder_arrays_hold_after_every_pivot_of_a_region_problem"),
    ),
    Mutant(
        id="transport-no-final-recompute",
        file="transport.py",
        old="    pot = _plant(adj, cost, m)[-1]  # every potential afresh from the costs\n",
        new="",
        tests=("tests/test_transport.py::"
               "test_row_pricing_follows_dense_pricing_on_a_region_problem",),
    ),
    # the optimality certificate (transport.solve_transport)
    Mutant(
        id="transport-certificate-gap-alone",
        file="transport.py",
        old="    if infeasibility > 1e-12 * float(cost.max()):\n",
        new="    if infeasibility > float('inf'):\n",
        tests=("tests/test_transport.py::"
               "test_a_simplex_stopped_at_its_start_fails_the_certificate",
               "tests/test_cli.py::test_exit_2_on_solver_error[_simplex_stopped_at_its_start]",
               "tests/test_cli.py::test_exit_2_on_solver_error[_verify_stopped_at_its_start]"),
    ),
    Mutant(
        id="transport-certificate-flow-arcs-only",
        file="transport.py",
        old="(cost[lo:hi] - u[lo:hi, None] - v).min()",
        new="(cost[lo:hi] - u[lo:hi, None] - v)[flows_kept[lo:hi] > 0].min(initial=0.0)",
        tests=("tests/test_transport.py::"
               "test_a_simplex_stopped_at_its_start_fails_the_certificate",
               "tests/test_cli.py::test_exit_2_on_solver_error[_simplex_stopped_at_its_start]",
               "tests/test_cli.py::test_exit_2_on_solver_error[_verify_stopped_at_its_start]"),
    ),
    # a simplex that stops after three pivots, before the optimum
    Mutant(
        id="transport-early-stop",
        file="transport.py",
        old="        if row_min[ei] >= -reduced_tol:\n",
        new="        if row_min[ei] >= -reduced_tol or pivots == 3:\n",
        tests=("tests/test_transport.py::test_simplex_matches_linprog_medium",
               "tests/test_transport.py::test_pivot_path_is_pinned"),
    ),
    # the MMOSPA alignment (estimation._step): the kernel's mapping used as
    # the source index instead of its inverse
    Mutant(
        id="estimation-mapping-not-inverted",
        file="estimation.py",
        old="            np.put_along_axis(src, mappings, np.arange(n), axis=1)\n",
        new="            src[:] = mappings\n",
        tests=("tests/test_estimation.py::test_mmospa_five_target_run_is_pinned",
               "tests/test_estimation.py::test_step_matches_the_two_pass_reference"),
    ),
)
