"""Seeded mutants of `src/mospa` and the tests that must kill each one.

Each entry changes one exact text, which must occur once in its file, into
its replacement; `run.py` applies the entries one at a time to a copy of
`src/` and runs the entry's tests against it.  An entry is killed when at
least one of its tests fails.  Entries are never deleted and their tests are
never narrowed to get a pass: when a refactor removes an entry's text, the
entry is re-targeted at the new code, or retired with a CHANGES.md line that
says why.  A mutant that makes its tests loop is stopped by `run.py`, after a
fixed time or by a MemoryError at the child's address-space cap, and is
counted as killed.
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


# the pricing cache's own tests in tests/test_transport.py
_EVERY_PIVOT = ("tests/test_transport.py::"
                "test_row_cache_is_exact_or_a_bound_at_every_pivot")
_FALLING_SINKS = ("tests/test_transport.py::"
                  "test_falling_sinks_refresh_the_leaving_row_and_read_no_column")

_PAIR_ARG = "            arg = ~(c1 >= c0) & (c0 == c0)  # argmin's index by one comparison\n"


def _two_atom(*kinds):
    """The two-atom step's crafted-cost cases of the given kinds, unweighted
    and weighted."""
    return tuple(f"tests/test_estimation.py::test_two_atom_step_takes_argmins_index[{k}-{w}]"
                 for k in kinds for w in (False, True))


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
        old="    pot = _potentials(order, pred, cost, m)  # every potential afresh from the costs\n",
        new="",
        tests=("tests/test_transport.py::"
               "test_row_pricing_follows_dense_pricing_on_a_region_problem",),
    ),
    # the row pricing cache (transport._reprice, _select, _exact_rows): the
    # column block only where the re-hung sinks rose, the bounds of stale
    # rows, the strict drop, the basis arcs' 0.0 and the fresh argmin
    Mutant(
        id="transport-reprice-block-on-both-sides",
        file="transport.py",
        old="        fresh[hung[row_arg]] = False\n        return\n",
        new="        fresh[hung[row_arg]] = False\n",
        tests=(_FALLING_SINKS,),
    ),
    Mutant(
        id="transport-reprice-side-inverted",
        file="transport.py",
        old="shift if top >= m else None,",
        new="shift if top < m else None,",
        tests=("tests/test_transport.py::test_pivot_path_is_pinned",
               _EVERY_PIVOT + "_of_a_region_problem"),
    ),
    Mutant(
        id="transport-reprice-row-scatter-dropped",
        file="transport.py",
        old="        reduced[hit_row[here] - lo, hit_col[here]] = 0.0\n",
        new="",
        tests=(_EVERY_PIVOT + "_of_a_region_problem", _EVERY_PIVOT),
    ),
    Mutant(
        id="transport-reprice-tie-to-new-column",
        file="transport.py",
        old="np.minimum(row_arg[cand], new_arg))",
        new="new_arg)",
        tests=("tests/test_transport.py::test_row_pricing_follows_dense_pricing",),
    ),
    Mutant(
        id="transport-reprice-candidate-lt",
        file="transport.py",
        old="np.flatnonzero(drop | ((cmin == row_min) & fresh))",
        new="np.flatnonzero(drop)",
        tests=("tests/test_transport.py::test_row_pricing_follows_dense_pricing",),
    ),
    Mutant(
        id="transport-reprice-fell-without-shift",
        file="transport.py",
        old="    row_min[rows] -= margin if fell is None else fell + margin\n",
        new="    row_min[rows] -= margin\n",
        tests=(_EVERY_PIVOT + "_of_a_region_problem",),
    ),
    Mutant(
        id="transport-reprice-stale-column-rows-fresh",
        file="transport.py",
        old="        fresh[hung[row_arg]] = False\n",
        new="",
        tests=(_FALLING_SINKS, _EVERY_PIVOT + "_of_a_region_problem"),
    ),
    Mutant(
        id="transport-reprice-leaving-row-fresh",
        file="transport.py",
        old="    fresh[li] = False\n",
        new="",
        tests=(_FALLING_SINKS,),
    ),
    Mutant(
        id="transport-reprice-leaving-bound-kept",
        file="transport.py",
        old="    row_min[li] = min(row_min.item(li), "
            "(cost.item(li, lj) - u.item(li)) - v.item(lj))\n",
        new="",
        tests=(_FALLING_SINKS,),
    ),
    Mutant(
        id="transport-reprice-drop-le",
        file="transport.py",
        old="    drop = cmin < row_min\n",
        new="    drop = cmin <= row_min\n",
        tests=(_EVERY_PIVOT + "_on_integer_costs",),
    ),
    Mutant(
        id="transport-reprice-no-margin",
        file="transport.py",
        old="16 * _EPS * (c_abs + pot_max))",
        new="0.0)",
        tests=(_EVERY_PIVOT + "_of_a_region_problem",
               _EVERY_PIVOT + "_at_a_tiny_cost_scale"),
    ),
    Mutant(
        id="transport-select-stale-argmin",
        file="transport.py",
        old="        if fresh.item(ei):\n            return ei\n",
        new="        return ei\n",
        tests=(_EVERY_PIVOT + "_of_a_region_problem",
               "tests/test_transport.py::test_pivot_path_is_pinned"),
    ),
    # NaN bounds (an all-infinite row) left out of the selection's batch:
    # it recomputes nothing and spins (a timeout; it allocates nothing new)
    Mutant(
        id="transport-select-nan-bounds-skipped",
        file="transport.py",
        old="np.flatnonzero(~(row_min > best) & ~fresh)",
        new="np.flatnonzero((row_min <= best) & ~fresh)",
        tests=("tests/test_transport.py::"
               "test_a_source_without_a_finite_cost_stops_at_the_pivot_cap",),
    ),
    # the potentials from the costs (transport._potentials): a source's arc
    # to its parent is (source, sink), a sink's (parent, sink)
    Mutant(
        id="transport-potentials-lookups-swapped",
        file="transport.py",
        old="item(x, p - m) if x < m else item(p, x - m)",
        new="item(p, x - m) if x < m else item(x, p - m)",
        tests=("tests/test_transport.py::test_pivot_path_is_pinned",),
    ),
    # the greedy start's neighbour lists, which _plant hangs the tree from
    Mutant(
        id="transport-greedy-neighbour-dropped",
        file="transport.py",
        old="            flow.append(take)\n"
            "            adj[i].append(m + j)\n"
            "            adj[m + j].append(i)\n",
        new="            flow.append(take)\n"
            "            adj[i].append(m + j)\n",
        tests=("tests/test_transport.py::test_pivot_path_is_pinned",),
    ),
    # the greedy start's masked search once a row's cheapest sink is full:
    # without it the row retries that sink forever (a timeout; the loop
    # allocates nothing while it spins)
    Mutant(
        id="transport-greedy-no-masked-fallback",
        file="transport.py",
        old="                j = int(np.argmin(np.where(avail, cost[i], np.inf)))\n"
            "                if not avail[j]:\n"
            "                    break  # capacity exhausted by rounding slack\n",
        new="                continue\n",
        tests=("tests/test_transport.py::test_simplex_matches_linprog_medium",),
    ),
    # the final flows (transport._resolve_tree_flows): a leaf is a node of
    # degree 1
    Mutant(
        id="transport-peel-at-degree-2",
        file="transport.py",
        old="        if degree[other] == 1:\n",
        new="        if degree[other] == 2:\n",
        tests=("tests/test_transport.py::test_pivot_path_is_pinned",),
    ),
    # a peel that leaves its leaf in the neighbour's sum of ids
    Mutant(
        id="transport-peel-neighbour-sum-kept",
        file="transport.py",
        old="        nbr_sum[other] -= node\n",
        new="",
        tests=("tests/test_transport.py::test_pivot_path_is_pinned",),
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
    # an infeasibility of exactly 0 under a bound of 0 (every cost 0)
    Mutant(
        id="transport-certificate-zero-cost-refused",
        file="transport.py",
        old="    if infeasibility > 1e-12 * float(cost.max()):\n",
        new="    if infeasibility >= 1e-12 * float(cost.max()):\n",
        tests=("tests/test_transport.py::test_a_zero_cost_solve_passes_its_certificate",),
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
    # the dense cap's boundary (transport._check_pair): 2**25 entries pass
    Mutant(
        id="transport-dense-cap-ge",
        file="transport.py",
        old="    if len(sources) * len(sinks) > _MAX_COST_ENTRIES:\n",
        new="    if len(sources) * len(sinks) >= _MAX_COST_ENTRIES:\n",
        tests=("tests/test_transport.py::test_the_dense_cap_admits_exactly_its_entries",),
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
    # the two-atom alignment (estimation._step): argmin's index by one
    # comparison, and the minimum that index names
    Mutant(
        id="estimation-pair-lt-alone",
        file="estimation.py",
        old=_PAIR_ARG,
        new=_PAIR_ARG.replace("~(c1 >= c0) & (c0 == c0)", "c1 < c0"),
        tests=_two_atom("nan_c1"),
    ),
    Mutant(
        id="estimation-pair-le",
        file="estimation.py",
        old=_PAIR_ARG,
        new=_PAIR_ARG.replace("~(c1 >= c0)", "(c1 <= c0)"),
        tests=_two_atom("ties", "inf", "minus_inf", "nan_c1"),
    ),
    Mutant(
        id="estimation-pair-not-gt",
        file="estimation.py",
        old=_PAIR_ARG,
        new=_PAIR_ARG.replace("~(c1 >= c0)", "~(c1 > c0)"),
        tests=_two_atom("ties", "inf", "minus_inf"),
    ),
    Mutant(
        id="estimation-pair-nan-c0-unguarded",
        file="estimation.py",
        old=_PAIR_ARG,
        new=_PAIR_ARG.replace(" & (c0 == c0)", ""),
        tests=_two_atom("nan_c0", "nan_both"),
    ),
    Mutant(
        id="estimation-pair-minimum-swapped",
        file="estimation.py",
        old="            low = costs.take(arg + 2 * np.arange(hi - lo))\n",
        new="            low = costs.take(~arg + 2 * np.arange(hi - lo))\n",
        tests=_two_atom("random") + (
            "tests/test_estimation.py::test_step_matches_the_two_pass_reference[2-1-False]",),
    ),
    # the cost kernel's one chunk budget (quadform.point_cost_matrix)
    Mutant(
        id="quadform-one-chunk",
        file="quadform.py",
        old="    for lo, hi in row_chunks(m, k * dim if q is None else 2 * k * dim):\n",
        new="    for lo, hi in [(0, m)]:\n",
        tests=("tests/test_estimation.py::"
               "test_two_atom_step_memory_is_bounded_by_the_kernel_chunk",
               "tests/test_quadform.py::test_point_cost_matrix_memory_is_bounded_by_the_chunk"),
    ),
    # the dim <= 2 cost kernel (quadform._low_dim_costs): einsum's +0.0 start,
    # and no floating-point warning
    Mutant(
        id="quadform-low-dim-no-zero-start",
        file="quadform.py",
        old="                cost = sum((d * sa for d, sa in zip(diff, s)), 0.0)\n",
        new="                cost = sum((d * sa for d, sa in zip(diff, s)), -0.0)\n",
        tests=("tests/test_quadform.py::test_low_dim_costs_match_einsum_bit_for_bit"
               "[None-zeros-1-True]",
               "tests/test_quadform.py::test_low_dim_costs_match_einsum_bit_for_bit"
               "[3-zeros-2-True]"),
    ),
    Mutant(
        id="quadform-low-dim-no-errstate",
        file="quadform.py",
        old='    with np.errstate(over="ignore", invalid="ignore"):\n',
        new="    with np.errstate():\n",
        tests=("tests/test_quadform.py::test_low_dim_costs_match_einsum_bit_for_bit"
               "[None-huge-1-False]",
               "tests/test_quadform.py::test_low_dim_costs_match_einsum_bit_for_bit"
               "[3-huge-2-True]"),
    ),
    # the assignment tie rule: the tolerance in the kernel's walk and in the
    # per-sample route, and the per-sample route's fallback
    Mutant(
        id="assignment-kernel-no-tie-tolerance",
        file="assignment.py",
        old="        ok = cs[:, i, :] + completion <= (target + tol)[:, None]\n",
        new="        ok = cs[:, i, :] + completion <= target[:, None]\n",
        tests=("tests/test_assignment.py::"
               "test_both_routes_agree_on_both_sides_of_the_kernel_reach",),
    ),
    Mutant(
        id="assignment-solve-square-no-tie-tolerance",
        file="assignment.py",
        old="            if c[i, j] + v <= target + tol:\n",
        new="            if c[i, j] + v <= target:\n",
        tests=("tests/test_assignment.py::"
               "test_both_routes_agree_on_both_sides_of_the_kernel_reach",),
    ),
    Mutant(
        id="assignment-solve-square-no-fallback",
        file="assignment.py",
        old="            chosen, target = fallback_j, fallback_v\n",
        new="            pass\n",
        tests=("tests/test_assignment.py::"
               "test_solve_square_falls_back_to_the_best_completion_seen",),
    ),
    # the one ownership rule of the value types (states._frozen_array)
    Mutant(
        id="states-frozen-array-asarray",
        file="states.py",
        old="        a = np.array(a, dtype=float)\n",
        new="        a = np.asarray(a, dtype=float)\n",
        tests=("tests/test_value_types.py::"
               "test_a_writable_array_is_copied_and_left_writable",),
    ),
    Mutant(
        id="states-frozen-array-min-only",
        file="states.py",
        old="    if not (np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0))):\n",
        new="    if not np.isfinite(a.min(initial=0.0)):\n",
        tests=("tests/test_value_types.py::test_a_non_finite_entry_is_refused",
               "tests/test_value_types.py::test_a_non_finite_offset_is_refused"),
    ),
    Mutant(
        id="states-frozen-array-always-reshaped",
        file="states.py",
        old="    if shape is not None and a.reshape(shape).shape != a.shape:\n",
        new="    if shape is not None:\n",
        tests=("tests/test_value_types.py::test_a_frozen_owning_array_is_kept",
               "tests/test_value_types.py::test_rewrapping_an_empirical_measure_copies_nothing"),
    ),
)
