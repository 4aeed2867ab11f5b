"""Quadratic-form distance kernels shared by the metric, transport and
geometry layers.

Weighted distances are evaluated as d^T Q d directly (matvec then dot) rather
than through a Cholesky change of coordinates: the direct form makes
Q -> c*Q scale every cost by exactly c in floating point whenever c is a
power of two, which the scaling invariants rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedMetricError

# Bytes of difference tensor per chunk of point-to-atom rows; 2 MiB keeps
# MMOSPA's two-scalar-target sweeps (k * dim = 4) at 65536 rows per chunk.
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
    of point s and block j of the estimate.
    """
    n, d = y_blocks.shape
    xb = points.reshape(points.shape[0], n, d)
    diff = xb[:, :, None, :] - y_blocks[None, None, :, :]
    if forms is None:
        c = np.einsum("mijk,mijk->mij", diff, diff)
    else:
        s = np.einsum("ikl,mijl->mijk", forms, diff)
        c = np.einsum("mijk,mijk->mij", diff, s)
    return np.maximum(c, 0.0)


def row_chunks(m: int, k: int, dim: int):
    """(lo, hi) ranges of m rows scored against k atoms of width dim, each
    with at most _CHUNK_BYTES (or one row) of difference tensor.  Bounds depend
    only on the shape and every cost is per row, so they move no bit."""
    step = max(1, _CHUNK_BYTES // (8 * k * dim))
    return ((lo, min(lo + step, m)) for lo in range(0, m, step))


def point_cost_matrix(points: np.ndarray, targets: np.ndarray, q=None) -> np.ndarray:
    """(m, k) squared (Q-weighted) Euclidean distances, built over row_chunks."""
    m = points.shape[0]
    out = np.empty((m, targets.shape[0]))
    for lo, hi in row_chunks(m, *targets.shape):
        diff = points[lo:hi, None, :] - targets[None, :, :]
        if q is None:
            out[lo:hi] = np.einsum("mkd,mkd->mk", diff, diff)
        else:
            s = np.einsum("de,mke->mkd", q, diff)
            out[lo:hi] = np.einsum("mkd,mkd->mk", diff, s)
    return np.maximum(out, 0.0, out=out)
