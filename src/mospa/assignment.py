"""Exact minimum-cost perfect matching on square cost matrices.

The solvers return the lexicographically smallest optimal permutation under
one tie rule: row by row, column j is acceptable when c[i, j] plus the
optimal cost of the remaining rows on the remaining columns is within
tol = _TIE_RTOL * max(1, n * max(c)) of the optimum still to be met, and the
first acceptable column is taken.  Every entry point hands an (m, n, n)
cost stack to one dispatcher, _assign, whose one max pass gives both the
overflow check and tol, which it hands to either of two routes:

- n <= _KERNEL_REACH: a vectorized kernel per chunk of samples (chunks are
  quadform.row_chunks of _kernel_words per sample).  A backward
  DP over column subsets tabulates every completion value (2^n per sample),
  each subset adding only the columns outside it, then a greedy walk applies
  the test.  Each optimum the walk compares against is a table entry that
  the row's argmin reproduces bit for bit, so a column always passes.
- n > _KERNEL_REACH: _solve_square per sample (plain LSA for cost-only
  callers).  It takes the optimum and each completion value from scipy's
  shortest-augmenting-path solver (exact, O(n^3)); an LSA value that
  rounding pushed past tol can leave a row with no acceptable column, so it
  keeps a fallback to the best completion seen.  At smaller n it is only
  the per-sample reference of the kernel's tests.

The brute-force oracle enumerates all n! permutations (n <= 8) independently,
takes the first exact minimum, and is kept purely as a cross-check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadform import batch_block_cost_matrices, row_chunks, target_block_forms
from .states import Permutation, StackedState, permutation_array

# Ties below this (scaled) resolution are treated as exact.  The cushion only
# needs to absorb summation-order noise (a few ulp); keeping it this tight
# bounds any refinement slack well under the 1e-12 oracle-agreement contract.
_TIE_RTOL = 1e-13

# Largest n of the kernel (us/sample, kernel vs _solve_square): 150 vs 573 at n = 12;
# at 13 the 2 MiB budget leaves 7 samples a chunk and the lead is thin and noisy,
# 350-588 vs 676-680; at 14 the kernel loses, 1697 vs 951.
_KERNEL_REACH = 12


def _as_cost_matrix(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
        raise ValueError(f"cost matrix must be square and nonempty, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix entries must be finite")
    if np.any(c < 0):
        raise ValueError("cost matrix entries must be nonnegative")
    return c


def _solve_square(c: np.ndarray, tol: float) -> tuple[tuple[int, ...], float]:
    """Optimal permutation with lexicographic tie-break at tolerance tol; c is
    pre-validated."""
    from scipy.optimize import linear_sum_assignment

    n = c.shape[0]
    ri, ci = linear_sum_assignment(c)
    target = float(c[ri, ci].sum())

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
            sub = c[np.ix_(rest_rows, [x for x in cols if x != j])]
            v = float(sub[linear_sum_assignment(sub)].sum())
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
    mappings, costs = _assign(_as_cost_matrix(cost)[None])
    return Permutation(mappings[0]), float(costs[0])


def brute_force_assignment(cost) -> tuple[Permutation, float]:
    """Exhaustive minimum over all n! permutations (test oracle, n <= 8)."""
    c = _as_cost_matrix(cost)
    n = c.shape[0]
    perms = permutation_array(n)  # CapacityError beyond the enumeration cap
    totals = c[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))  # first minimum = lexicographically smallest
    return Permutation(tuple(int(v) for v in perms[best])), float(totals[best])


def _check_compatible(x, x_hat: StackedState) -> None:
    """ValueError unless x (a state or a sample measure) has x_hat's targets
    and state dimension."""
    if (x.n_targets, x.state_dim) != (x_hat.n_targets, x_hat.state_dim):
        raise ValueError(
            f"state shapes differ: ({x.n_targets},{x.state_dim}) vs "
            f"({x_hat.n_targets},{x_hat.state_dim})"
        )


def optimal_permutation(x: StackedState, x_hat: StackedState, q=None) -> tuple[Permutation, float]:
    """Best block alignment of x_hat to x and the resulting squared distance.

    Cost entry [i, j] is the squared (Q-weighted) distance between block i of
    x and block j of x_hat; the returned total is the label-free squared
    distance between the two stacked states.
    """
    _check_compatible(x, x_hat)
    mappings, costs = batch_optimal_permutations(x.data[None], x_hat, q)
    return Permutation(mappings[0]), float(costs[0])


def _as_points(points, x_hat: StackedState) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    width = x_hat.n_targets * x_hat.state_dim
    if pts.ndim != 2 or pts.shape[1] != width:
        raise ValueError(
            f"points must have shape (m, {width}) for {x_hat.n_targets} targets of "
            f"dimension {x_hat.state_dim}, got {pts.shape}"
        )
    return pts


@lru_cache(maxsize=_KERNEL_REACH)
def _subset_tables(n: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Gather tables of the completion DP over column subsets of {0..n-1}.

    Returns (nxt, layers).  nxt[S, j] is S | 1 << j, or the sentinel row 2^n
    (held at +inf) when column j is already in S.  layers[k] is (rows, free,
    steps): the subsets S of popcount k, the (C(n, k), n - k) table of the
    columns outside each S in ascending order, and steps = S | 1 << free.
    """
    full = 1 << n
    subsets = np.arange(full, dtype=np.intp)
    bits = np.intp(1) << np.arange(n, dtype=np.intp)
    taken = subsets[:, None] & bits != 0
    nxt = np.where(taken, full, subsets[:, None] | bits)
    popcount = taken.sum(axis=1)
    layers = []
    for k in range(n):
        rows = subsets[popcount == k]
        free = np.nonzero(~taken[rows])[1].reshape(rows.size, n - k)
        layers.append((rows, free, rows[:, None] | bits[free]))
    for arr in (nxt, *(a for layer in layers for a in layer)):
        arr.setflags(write=False)
    return nxt, layers


def _subset_dp_assign(cs: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically first optimal permutations and their costs for a
    (m, n, n) stack with n <= _KERNEL_REACH, given each sample's tie tolerance.

    A backward DP fills g[S, s], the optimal cost of assigning rows |S|..n-1
    of sample s to the columns outside S, from the free columns of each S
    alone.  The greedy walk then gives row i the first free column j with
    c[i, j] + g[used | j] <= target + tol and sets target = g[used | j]; the
    row's argmin sums to target exactly.
    """
    m, n, _ = cs.shape
    full = 1 << n
    nxt, layers = _subset_tables(n)
    ct = np.ascontiguousarray(cs.transpose(1, 2, 0))  # ct[i, j] is cs[:, i, j]
    g = np.empty((full + 1, m))
    g[full - 1] = 0.0
    g[full] = np.inf
    for k in range(n - 1, -1, -1):
        rows, free, steps = layers[k]
        part = ct[k].take(free, axis=0)
        part += g.take(steps, axis=0)
        g[rows] = part.min(axis=1)
    samples = np.arange(m)
    flat_g = g.reshape(-1)
    used = np.zeros(m, dtype=np.intp)
    target = g[0]
    mappings = np.empty((m, n), dtype=np.intp)
    for i in range(n):
        after = nxt.take(used, axis=0)
        completion = flat_g.take(after * m + samples[:, None])
        ok = cs[:, i, :] + completion <= (target + tol)[:, None]
        pick = ok.argmax(axis=1)
        mappings[:, i] = pick
        pick += samples * n
        target = completion.take(pick)
        used = after.take(pick)
    picked = mappings + np.arange(0, n * n, n) + samples[:, None] * (n * n)
    costs = cs.reshape(m, n * n).take(picked).sum(axis=1)
    return mappings, costs


def _kernel_words(n: int, d: int) -> int:
    """Float64 words one sample holds in a chunk of batch_optimal_permutations."""
    words = n * n * (d + 1)  # block-cost differences and cost stack
    if n <= _KERNEL_REACH:  # transposed costs, DP table, widest layer, walk
        widest = max(2 * free.size + rows.size for rows, free, _ in _subset_tables(n)[1])
        words += n * n + (1 << n) + 1 + widest + 6 * n
    return words


def _assign(cs: np.ndarray, want_mappings: bool = True):
    """(mappings, costs) of a nonempty (m, n, n) stack of nonnegative costs,
    as batch_optimal_permutations returns them, by the routes above."""
    n = cs.shape[1]
    with np.errstate(over="ignore"):  # NaN and +inf propagate to tol
        tol = _TIE_RTOL * np.maximum(1.0, cs.max(axis=(1, 2)) * n)
    if not np.isfinite(tol).all():
        raise ValueError(f"costs overflow float64 in a sum of {n}; rescale the inputs")
    if n <= _KERNEL_REACH:
        mappings, costs = _subset_dp_assign(cs, tol)
        return (mappings if want_mappings else None), costs
    if want_mappings:
        mappings, costs = zip(*map(_solve_square, cs, tol))
        return np.array(mappings, dtype=np.intp), np.array(costs)
    from scipy.optimize import linear_sum_assignment

    return None, np.array([c[linear_sum_assignment(c)].sum() for c in cs])


def batch_optimal_permutations(points: np.ndarray, x_hat: StackedState, q=None,
                               want_mappings: bool = True):
    """Per-row optimal alignment of x_hat to a (m, n*d) batch of points.

    Returns (mappings, costs).  Row s of the (m, n) mappings is the
    lexicographically smallest optimal permutation for sample s, the one
    solve_assignment returns, and costs[s] is the sum of its selected cost
    entries.  With want_mappings=False, mappings is None.  For n <= 12
    (the kernel's reach) both modes run the same batched kernel, so their
    costs are identical; for larger n the cost-only mode takes plain LSA per
    sample and skips the tie-break, which changes no optimal value beyond
    rounding.
    Each chunk of samples is checked and its block costs built in turn, so
    memory beyond the points and the results is bounded by the chunk, not by
    m.  Raises ValueError for points of the wrong width, non-finite points,
    or block costs too large for a sum of n of them to stay finite in float64.
    """
    pts = _as_points(points, x_hat)
    y = x_hat.blocks()
    m, (n, d) = pts.shape[0], y.shape
    forms = None if q is None else target_block_forms(q, n, d)
    mappings = np.empty((m, n), dtype=np.intp) if want_mappings else None
    costs = np.empty(m)
    for lo, hi in row_chunks(m, _kernel_words(n, d)):
        rows = pts[lo:hi]
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(f"points must be finite; row {lo + int(bad[0])} is not")
        maps, costs[lo:hi] = _assign(batch_block_cost_matrices(rows, y, forms), want_mappings)
        if want_mappings:
            mappings[lo:hi] = maps
    return mappings, costs
