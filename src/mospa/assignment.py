"""Exact minimum-cost perfect matching on square cost matrices.

The solvers return the lexicographically smallest optimal permutation under
one tie rule: row by row, column j is acceptable when c[i, j] plus the
optimal cost of the remaining rows on the remaining columns is within
tol = _TIE_RTOL * max(1, n * max(c)) of the optimum still to be met, and the
first acceptable column is taken.  Two routes implement it:

- _solve_square (solve_assignment, optimal_permutation, and batches with
  n > MAX_TARGETS) takes the optimum from scipy's shortest-augmenting-path
  solver (exact, O(n^3)) and finds each completion value by another solve.
  An LSA value that rounding pushed past tol can leave a row with no
  acceptable column, so it keeps a fallback to the best completion seen.
- batch_optimal_permutations with n <= MAX_TARGETS runs one vectorized
  kernel per chunk of samples: a backward DP over column subsets tabulates
  every completion value (2^n per sample), then a greedy walk applies the
  same test.  Each optimum it compares against is a table entry that the
  row's argmin reproduces bit for bit, so a column always passes and the
  kernel has no fallback.

The brute-force oracle enumerates all n! permutations independently, takes
the first exact minimum, and is kept purely as a cross-check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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

# Bytes of block costs, DP table and gathers per chunk of samples.  Chunks
# this size stay in cache; 1 MiB ran n = 3..8 fastest among 256 KiB..16 MiB
# on a 2-CPU x86 VM.  Every value is per sample, so the size moves no bit.
_KERNEL_CHUNK_BYTES = 1 << 20


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
    from scipy.optimize import linear_sum_assignment

    sub = c[np.ix_(rows, cols)]
    ri, ci = linear_sum_assignment(sub)
    return float(sub[ri, ci].sum())


def _solve_square(c: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Optimal permutation with lexicographic tie-break; c is pre-validated."""
    from scipy.optimize import linear_sum_assignment

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


def _as_points(points, x_hat: StackedState) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    width = x_hat.n_targets * x_hat.state_dim
    if pts.ndim != 2 or pts.shape[1] != width:
        raise ValueError(
            f"points must have shape (m, {width}) for {x_hat.n_targets} targets of "
            f"dimension {x_hat.state_dim}, got {pts.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"points must be finite; row {int(bad[0])} is not")
    return pts


@lru_cache(maxsize=MAX_TARGETS)
def _subset_tables(n: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Gather tables of the completion DP over column subsets of {0..n-1}.

    Returns (nxt, layers).  nxt[S, j] is S | 1 << j, or the sentinel row 2^n
    (held at +inf) when column j is already in S.  layers[k] holds the
    subsets of popcount k and their rows of nxt.
    """
    full = 1 << n
    subsets = np.arange(full, dtype=np.intp)
    bits = np.intp(1) << np.arange(n, dtype=np.intp)
    nxt = np.where(subsets[:, None] & bits, full, subsets[:, None] | bits)
    popcount = (subsets[:, None] & bits != 0).sum(axis=1)
    layers = [(subsets[popcount == k], nxt[popcount == k]) for k in range(n)]
    for arr in (nxt, *(a for layer in layers for a in layer)):
        arr.setflags(write=False)
    return nxt, layers


def _subset_dp_assign(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched _solve_square for a (m, n, n) stack with n <= MAX_TARGETS.

    A backward DP fills g[S, s], the optimal cost of assigning rows |S|..n-1
    of sample s to the columns outside S.  The greedy walk then gives row i
    the first free column j with c[i, j] + g[used | j] <= target + tol and
    sets target = g[used | j]; the row's argmin sums to target exactly.
    """
    m, n, _ = cs.shape
    full = 1 << n
    nxt, layers = _subset_tables(n)
    ct = np.ascontiguousarray(cs.transpose(1, 2, 0))  # ct[i, j] is cs[:, i, j]
    g = np.empty((full + 1, m))
    g[full - 1] = 0.0
    g[full] = np.inf
    for k in range(n - 1, -1, -1):
        rows, steps = layers[k]
        g[rows] = (ct[k][None] + g[steps]).min(axis=1)
    tol = _TIE_RTOL * np.maximum(1.0, cs.max(axis=(1, 2)) * n)
    samples = np.arange(m)
    used = np.zeros(m, dtype=np.intp)
    target = g[0]
    mappings = np.empty((m, n), dtype=np.intp)
    for i in range(n):
        after = nxt[used]
        completion = g[after, samples[:, None]]
        ok = cs[:, i, :] + completion <= (target + tol)[:, None]
        j = ok.argmax(axis=1)
        mappings[:, i] = j
        target = completion[samples, j]
        used = after[samples, j]
    costs = cs[samples[:, None], np.arange(n), mappings].sum(axis=1)
    return mappings, costs


def batch_optimal_permutations(points: np.ndarray, x_hat: StackedState, q=None,
                               want_mappings: bool = True):
    """Per-row optimal alignment of x_hat to a (m, n*d) batch of points.

    Returns (mappings, costs).  Row s of the (m, n) mappings is the
    lexicographically smallest optimal permutation for sample s, the one
    solve_assignment returns, and costs[s] is the sum of its selected cost
    entries.  With want_mappings=False, mappings is None.  For n <=
    MAX_TARGETS both modes run the same batched kernel, so their costs are
    identical; for larger n the cost-only mode takes plain LSA per sample and
    skips the tie-break, which changes no optimal value beyond rounding.
    Block costs are built one chunk of samples at a time, so memory beyond
    the points and the results is bounded by the chunk, not by m.
    Raises ValueError for points of the wrong width, non-finite points, or
    costs that overflow float64.
    """
    pts = _as_points(points, x_hat)
    forms = _forms_for(x_hat, q)
    y = x_hat.blocks()
    m, (n, d) = pts.shape[0], y.shape
    per_sample = n * n * (d + 1)  # block-cost differences and cost stack
    if n <= MAX_TARGETS:  # subset-DP table and gathers
        widest = max(rows.size for rows, _ in _subset_tables(n)[1])
        per_sample += (1 << n) + 1 + (widest + 1) * n
    chunk = max(1, _KERNEL_CHUNK_BYTES // (8 * per_sample))
    mappings = np.empty((m, n), dtype=np.intp) if want_mappings else None
    costs = np.empty(m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        cs = batch_block_cost_matrices(pts[lo:hi], y, forms)
        if not np.all(np.isfinite(cs)):
            raise ValueError("block costs overflow float64; rescale the points and estimate")
        if n <= MAX_TARGETS:
            maps, costs[lo:hi] = _subset_dp_assign(cs)
            if want_mappings:
                mappings[lo:hi] = maps
        elif want_mappings:
            for s, c in enumerate(cs, lo):
                mappings[s], costs[s] = _solve_square(c)
        else:
            from scipy.optimize import linear_sum_assignment

            for s, c in enumerate(cs, lo):
                ri, ci = linear_sum_assignment(c)
                costs[s] = c[ri, ci].sum()
    return mappings, costs
