import tracemalloc

import numpy as np
import pytest

from conftest import block_diagonal_q
from mospa.quadform import (
    _CHUNK_BYTES,
    batch_block_cost_matrices,
    point_cost_matrix,
    row_chunks,
)


def _broadcast_costs(points, targets, q=None):
    """The kernel as one broadcast difference per row chunk: the reference
    that point_cost_matrix must match bit for bit."""
    m = points.shape[0]
    out = np.empty((m, targets.shape[0]))
    for lo, hi in row_chunks(m, targets.size):
        diff = points[lo:hi, None, :] - targets[None, :, :]
        if q is None:
            out[lo:hi] = np.einsum("mkd,mkd->mk", diff, diff)
        else:
            s = np.einsum("de,mke->mkd", q, diff)
            out[lo:hi] = np.einsum("mkd,mkd->mk", diff, s)
    return np.maximum(out, 0.0, out=out)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("k", [1, 2, 6, 24, 120, 720])
def test_point_cost_matrix_matches_the_broadcast_reference(k, weighted):
    rng = np.random.default_rng(k + weighted)
    for dim in (1, 2, 3, 5, 14):
        q = block_diagonal_q(rng, 1, dim) if weighted else None
        step = next(row_chunks(1 << 30, k * dim))[1]
        m = 2 * step + 3  # two full chunks and a partial third
        targets = rng.normal(size=(k, dim), scale=2.0)
        points = rng.normal(size=(m, dim), scale=2.0)
        hits = min(k, m)
        points[:hits] = targets[:hits]  # row i sits on target i
        points.setflags(write=False)  # the differences are a copy, even at k = 1
        out = point_cost_matrix(points, targets, q)
        assert np.array_equal(out, _broadcast_costs(points, targets, q))
        # a copy in the points' own layout would sum Fortran-ordered rows
        # in another order at k = 1 from dim = 3 on
        fortran = point_cost_matrix(np.asfortranarray(points), targets, q)
        assert fortran.tobytes() == out.tobytes()
        on_target = out[np.arange(hits), np.arange(hits)]
        assert np.all(on_target == 0.0) and not np.any(np.signbit(on_target))
        if not weighted:
            assert not np.any(np.signbit(out))


@pytest.mark.parametrize("weighted", [False, True])
def test_point_cost_matrix_with_no_targets_is_empty(weighted):
    q = np.eye(2) if weighted else None
    out = point_cost_matrix(np.zeros((3, 2)), np.zeros((0, 2)), q)
    assert out.shape == (3, 0)


def test_point_cost_matrix_memory_is_bounded_by_the_chunk():
    # k * dim = 1200: 65536-row chunks would hold a 157 MB difference tensor
    # (twice that with Q) for a 16 MB result
    rng = np.random.default_rng(3)
    points = rng.normal(size=(16384, 10))
    targets = rng.normal(size=(120, 10))
    q = block_diagonal_q(rng, 1, 10)
    tracemalloc.start()
    try:
        out = point_cost_matrix(points, targets, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    diff = points[:5, None, :] - targets[None]
    assert np.allclose(out[:5], np.einsum("mkd,de,mke->mk", diff, q, diff),
                       rtol=1e-13, atol=0)


def test_weighted_point_cost_matrix_sizes_its_chunks_for_the_weighted_copy():
    # with Q a chunk holds the differences and their weighted copy; chunks
    # sized for the differences alone peaked at 3 budgets above the output
    rng = np.random.default_rng(4)
    points = rng.normal(size=(400_000, 2))
    targets = rng.normal(size=(4, 2))
    q = block_diagonal_q(rng, 1, 2)
    tracemalloc.start()
    try:
        out = point_cost_matrix(points, targets, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 * _CHUNK_BYTES


def test_point_cost_matrix_holds_one_chunk_at_a_time():
    # the previous chunk's differences, still bound while the next chunk's
    # copy was built, held the peak at 2 budgets above the output
    rng = np.random.default_rng(4)
    points = rng.normal(size=(400_000, 2))
    targets = rng.normal(size=(4, 2))
    tracemalloc.start()
    try:
        out = point_cost_matrix(points, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 1.25 * _CHUNK_BYTES


def _broadcast_block_costs(points, y_blocks, forms=None):
    """The block costs as one broadcast (m, n, n, d) difference: the reference
    that batch_block_cost_matrices must match bit for bit."""
    n, d = y_blocks.shape
    xb = points.reshape(points.shape[0], n, d)
    diff = xb[:, :, None, :] - y_blocks[None, None, :, :]
    if forms is None:
        return np.einsum("mijk,mijk->mij", diff, diff)
    s = np.einsum("ikl,mijl->mijk", forms, diff)
    return np.maximum(np.einsum("mijk,mijk->mij", diff, s), 0.0)


def _block_cost_case(kind, n, d, rng):
    """(points, y_blocks, forms) for the block-cost layout, by kind:
    continuous, tied ({-1, 0, 1} coordinates), duplicate (repeated blocks),
    huge (~1e153, where sums of squares overflow), or rank-one (forms v v^T
    and points off a block along v's normal, where d^T Q d rounds to
    negative values that the clamp lifts to 0)."""
    m = 37
    if kind == "tied":
        points = rng.integers(-1, 2, size=(m, n * d)).astype(float)
        y = rng.integers(-1, 2, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(m, n * d))
        y = rng.normal(size=(n, d))
    if kind == "duplicate":
        y[n // 2:] = y[0]
    if kind == "huge":
        points *= 1e153
        y *= 1e153
    forms = np.stack([block_diagonal_q(rng, 1, d) for _ in range(n)])
    if kind == "rank-one":
        v = rng.normal(size=(n, d))
        forms = v[:, :, None] * v[:, None, :]
        normal = rng.normal(size=d)
        normal -= normal @ v[0] / (v[0] @ v[0]) * v[0]
        points = (y[rng.integers(0, n, size=(m, n))]
                  + rng.normal(size=(m, n, 1)) * normal
                  + 1e-9 * rng.normal(size=(m, n, d))).reshape(m, n * d)
    return points, y, forms


@pytest.mark.parametrize("kind", ["continuous", "tied", "duplicate", "huge", "rank-one"])
def test_block_costs_match_the_broadcast_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    lifted = 0
    for n in range(1, 9):
        for d in range(1, 5):
            points, y, forms = _block_cost_case(kind, n, d, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                for f in (None, forms):
                    out = batch_block_cost_matrices(points, y, f)
                    assert out.tobytes() == _broadcast_block_costs(points, y, f).tobytes()
            lifted += int(np.sum(out == 0.0))
    if kind == "rank-one":
        assert lifted > 0  # weighted costs that the clamp lifted from below 0
