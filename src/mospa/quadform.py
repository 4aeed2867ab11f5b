"""Quadratic-form distance kernels shared by the metric, transport and
geometry layers.

point_cost_matrix is the one cost formula, evaluated in one of two orders;
batch_block_cost_matrices lays its rows out as assignment block costs.  Up
to dim 2 every sum is at most two terms and einsum's +0.0 start, which add
to the same bits in any order, so explicit products reproduce einsum's
costs bit for bit, faster.  Above dim 2 einsum sums in an order set by
numpy's SIMD dispatch that no explicit order reproduces, so einsum stays.

Weighted distances are evaluated as d^T Q d directly (matvec then dot) rather
than through a Cholesky change of coordinates: the direct form makes
Q -> c*Q scale every cost by exactly c in floating point whenever c is a
power of two, which the scaling invariants rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedMetricError

# Bytes per chunk of rows, the one budget of every chunked pass: the
# point-to-atom difference tensor, or the assignment kernel's block costs, DP
# table and gathers.  2 MiB keeps MMOSPA's two-scalar-target sweeps
# (k * dim = 4) at 65536 rows per chunk, and the kernel in cache: among
# 256 KiB..16 MiB, 2 and 4 MiB ran n = 3..8 fastest on a 2-CPU x86 VM (2 MiB
# L2 per core), 1 MiB up to 1.2x and 512 KiB up to 1.7x slower.
_CHUNK_BYTES = 1 << 21


def validate_spd(q, dim: int, name: str = "q") -> np.ndarray:
    """Check symmetry and positive definiteness; returns the validated array."""
    q = np.asarray(q, dtype=float)
    if q.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"{name} must be finite")
    if not np.array_equal(q, q.T):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    return q


def target_block_forms(q, n_targets: int, state_dim: int) -> np.ndarray:
    """Per-target diagonal blocks of a stacked quadratic weight.

    The assignment decomposition of the weighted distance needs Q to be
    block-diagonal over the target slots (slot i of the state pairs with slot
    i of the permuted estimate, so the block may vary per slot but nothing may
    couple two slots).  Returns the (n_targets, state_dim, state_dim) blocks;
    raises UnsupportedMetricError for coupling Q.
    """
    dim = n_targets * state_dim
    q = validate_spd(q, dim)
    blocks4 = q.reshape(n_targets, state_dim, n_targets, state_dim)
    off = blocks4.copy()
    diag_idx = np.arange(n_targets)
    off[diag_idx, :, diag_idx, :] = 0.0
    if np.any(off != 0.0):
        raise UnsupportedMetricError(
            "q couples target blocks; only block-diagonal weights decompose "
            "across the assignment"
        )
    return np.ascontiguousarray(blocks4[diag_idx, :, diag_idx, :])


def batch_block_cost_matrices(points: np.ndarray, y_blocks: np.ndarray, forms=None) -> np.ndarray:
    """(m, N, N) stack of block cost matrices for m stacked points.

    Entry [s, i, j] is the (slot-i-weighted) squared distance between block i
    of point s and block j of the estimate: one point_cost_matrix call on
    all m * N blocks, or with forms one per slot i, weighted by forms[i].
    """
    m, (n, d) = points.shape[0], y_blocks.shape
    if forms is None:
        return point_cost_matrix(points.reshape(m * n, d), y_blocks).reshape(m, n, n)
    out = np.empty((m, n, n))
    for i in range(n):
        out[:, i] = point_cost_matrix(points[:, i * d:(i + 1) * d], y_blocks, forms[i])
    return out


def row_chunks(m: int, words: int):
    """(lo, hi) ranges of m rows of `words` float64 words each (k * dim for a
    point-to-atom sweep), each holding at most _CHUNK_BYTES (or one row).
    Bounds depend only on the shape and every value is per row, so they move
    no bit."""
    step = max(1, _CHUNK_BYTES // max(1, 8 * words))
    return ((lo, min(lo + step, m)) for lo in range(0, m, step))


def point_cost_matrix(points: np.ndarray, targets: np.ndarray, q=None) -> np.ndarray:
    """(m, k) squared (Q-weighted) Euclidean distances, built over row_chunks.

    At dim <= 2 _low_dim_costs fills each chunk's columns with einsum's bits
    (see the module docstring).  Above, each chunk's differences are its
    rows, each repeated k times, minus the targets in place: the same
    (rows, k, dim) tensor and subtractions as a broadcast.  repeat always
    returns a fresh C-ordered copy, so the points are never written and
    einsum sums them in one order whatever their layout.  With Q the chunk
    also holds its weighted copy, so it is sized for both; both are released
    before the next chunk is built.  A sum of squares is never negative, so
    only the weighted costs are clamped at 0.
    """
    m = points.shape[0]
    k, dim = targets.shape
    out = np.empty((m, k))
    for lo, hi in row_chunks(m, k * dim if q is None else 2 * k * dim):
        if dim <= 2:
            _low_dim_costs(points[lo:hi].T, targets, q, out[lo:hi])
            continue
        diff = points[lo:hi].repeat(k, axis=0).reshape(hi - lo, k, dim)
        diff -= targets
        if q is None:
            np.einsum("mkd,mkd->mk", diff, diff, out=out[lo:hi])
        else:
            s = np.einsum("de,mke->mkd", q, diff)
            np.einsum("mkd,mkd->mk", diff, s, out=out[lo:hi])
            del s
        del diff
    if q is not None:
        np.maximum(out, 0.0, out=out)
    return out


def _low_dim_costs(coords, targets, q, out):
    """Fill out[:, j] with the costs from the points whose (dim <= 2, rows)
    coordinates are `coords` to targets[j]: d0^2 (+ d1^2), or with Q
    +0.0 + d0 s0 (+ d1 s1) where s_a = +0.0 + q[a,0] d0 (+ q[a,1] d1).

    einsum's sums start from +0.0 too, so a zero sum is never -0.0 (a
    square never is).  Its ufuncs must raise no floating-point warning, as
    einsum raises none: costs that overflow are inf (or NaN) in both forms.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for j, target in enumerate(targets):
            diff = [x - c for x, c in zip(coords, target)]
            if q is None:
                cost = np.multiply(diff[0], diff[0], out=diff[0])
                for d in diff[1:]:
                    cost += np.multiply(d, d, out=d)
            else:
                s = [sum((w * e for w, e in zip(row, diff)), 0.0) for row in q]
                cost = sum((d * sa for d, sa in zip(diff, s)), 0.0)
            out[:, j] = cost
