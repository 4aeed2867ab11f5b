"""Exact minimum-cost perfect matching on square cost matrices.

solve_assignment wraps the shortest-augmenting-path solver from scipy (exact,
O(n^3)) and then refines the answer row by row so that, among cost ties, the
lexicographically smallest optimal permutation is returned.  The brute-force
oracle enumerates all n! permutations independently and is kept purely as a
cross-check.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapacityError
from .quadform import batch_block_cost_matrices, target_block_forms
from .states import (
    MAX_TARGETS,
    Permutation,
    StackedState,
    permutation_array,
)

# Ties below this (scaled) resolution are treated as exact.  The cushion only
# needs to absorb summation-order noise (a few ulp); keeping it this tight
# bounds any refinement slack well under the 1e-12 oracle-agreement contract.
_TIE_RTOL = 1e-13


def _as_cost_matrix(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
        raise ValueError(f"cost matrix must be square and nonempty, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix entries must be finite")
    if np.any(c < 0):
        raise ValueError("cost matrix entries must be nonnegative")
    return c


def _completion_value(c: np.ndarray, rows: list[int], cols: list[int]) -> float:
    """Optimal assignment value on the (rows x cols) submatrix."""
    k = len(rows)
    if k == 0:
        return 0.0
    if k == 1:
        return float(c[rows[0], cols[0]])
    if k == 2:
        r0, r1 = rows
        c0, c1 = cols
        return float(min(c[r0, c0] + c[r1, c1], c[r0, c1] + c[r1, c0]))
    sub = c[np.ix_(rows, cols)]
    ri, ci = linear_sum_assignment(sub)
    return float(sub[ri, ci].sum())


def _solve_square(c: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Optimal permutation with lexicographic tie-break; c is pre-validated."""
    n = c.shape[0]
    ri, ci = linear_sum_assignment(c)
    target = float(c[ri, ci].sum())
    tol = _TIE_RTOL * max(1.0, float(np.abs(c).max()) * n)

    mapping: list[int] = []
    cols = list(range(n))
    for i in range(n):
        if len(cols) == 1:
            mapping.append(cols.pop())
            break
        rest_rows = list(range(i + 1, n))
        chosen = None
        fallback_j, fallback_v, fallback_sum = cols[0], 0.0, np.inf
        for j in cols:
            rest_cols = [x for x in cols if x != j]
            v = _completion_value(c, rest_rows, rest_cols)
            if c[i, j] + v <= target + tol:
                chosen = j
                target = v
                break
            if c[i, j] + v < fallback_sum:
                fallback_j, fallback_v, fallback_sum = j, v, c[i, j] + v
        if chosen is None:
            # Tolerance hiccup; commit the best continuation seen instead.
            chosen, target = fallback_j, fallback_v
        cols.remove(chosen)
        mapping.append(chosen)

    total = float(c[np.arange(n), mapping].sum())
    return tuple(mapping), total


def solve_assignment(cost) -> tuple[Permutation, float]:
    """Minimize sum_i c[i, pi(i)] over permutations pi.

    Returns the lexicographically smallest optimal permutation and its total
    cost, computed as the exact sum of the selected entries.
    """
    c = _as_cost_matrix(cost)
    mapping, total = _solve_square(c)
    return Permutation(mapping), total


def brute_force_assignment(cost) -> tuple[Permutation, float]:
    """Exhaustive minimum over all n! permutations (test oracle, n <= 8)."""
    c = _as_cost_matrix(cost)
    n = c.shape[0]
    if n > MAX_TARGETS:
        raise CapacityError(
            f"brute force limited to n <= {MAX_TARGETS} ({MAX_TARGETS}! permutations)"
        )
    perms = permutation_array(n)
    totals = c[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))  # first minimum = lexicographically smallest
    return Permutation(tuple(int(v) for v in perms[best])), float(totals[best])


def _check_compatible(x: StackedState, x_hat: StackedState) -> None:
    if (x.n_targets, x.state_dim) != (x_hat.n_targets, x_hat.state_dim):
        raise ValueError(
            f"state shapes differ: ({x.n_targets},{x.state_dim}) vs "
            f"({x_hat.n_targets},{x_hat.state_dim})"
        )


def _forms_for(x: StackedState, q) -> np.ndarray | None:
    if q is None:
        return None
    return target_block_forms(q, x.n_targets, x.state_dim)


def optimal_permutation(x: StackedState, x_hat: StackedState, q=None) -> tuple[Permutation, float]:
    """Best block alignment of x_hat to x and the resulting squared distance.

    Cost entry [i, j] is the squared (Q-weighted) distance between block i of
    x and block j of x_hat; the returned total is the label-free squared
    distance between the two stacked states.
    """
    _check_compatible(x, x_hat)
    forms = _forms_for(x, q)
    c = batch_block_cost_matrices(x.data[None], x_hat.blocks(), forms)[0]
    mapping, total = _solve_square(c)
    return Permutation(mapping), total


def batch_optimal_permutations(points: np.ndarray, x_hat: StackedState, q=None,
                               want_mappings: bool = True):
    """Per-row optimal alignment of x_hat to a (m, dim) batch of points.

    Returns (mappings, costs); mappings is None when want_mappings is False
    (the cost of an optimal assignment needs no tie-break, so the refinement
    pass is skipped).
    """
    forms = _forms_for(x_hat, q)
    cs = batch_block_cost_matrices(np.asarray(points, dtype=float), x_hat.blocks(), forms)
    m, n, _ = cs.shape
    costs = np.empty(m)
    if not want_mappings:
        rows = np.arange(n)
        for s in range(m):
            _, ci = linear_sum_assignment(cs[s])
            costs[s] = cs[s][rows, ci].sum()
        return None, costs
    mappings = np.empty((m, n), dtype=np.intp)
    for s in range(m):
        mapping, total = _solve_square(cs[s])
        mappings[s] = mapping
        costs[s] = total
    return mappings, costs
