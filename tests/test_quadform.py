import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import block_diagonal_q
from mospa import quadform
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


def _einsum_costs(points, targets, q=None):
    """The einsum form of the costs over one broadcast difference, before the
    clamp: the reference that the dim <= 2 kernel must match bit for bit."""
    diff = points[:, None, :] - targets[None, :, :]
    if q is None:
        return np.einsum("mkd,mkd->mk", diff, diff)
    return np.einsum("mkd,mkd->mk", diff, np.einsum("de,mke->mkd", q, diff))


def _low_dim_case(kind, dim, rng):
    """(points, targets, q) at dim 1 or 2, by kind: continuous; zeros
    (every vector of coordinates in {-0.0, +0.0, -1, 1}: exact-zero and
    signed-zero differences); tiny (~1e-170, whose products underflow to
    signed zeros); huge (~1e154, whose squares overflow to inf); or rank-one
    (Q = v v^T and points off a target along v's normal, where d^T Q d rounds
    to negative values that the clamp lifts to 0).  The weight has a negative
    coupling term at dim 2, so that weighted products of signed zeros differ
    in sign."""
    m, k = 301, 5
    targets = rng.normal(size=(k, dim))
    points = rng.normal(size=(m, dim))
    q = np.array([[2.0, -0.75], [-0.75, 1.0]])[:dim, :dim]
    if kind == "zeros":  # every pair of coordinate vectors
        points = targets = np.array(list(itertools.product([-0.0, 0.0, -1.0, 1.0], repeat=dim)))
    if kind == "tiny":
        targets *= 1e-170
        points *= 1e-170
    if kind == "huge":
        targets *= 1e154
        points *= 1e154
    if kind == "rank-one":
        v = rng.normal(size=dim)
        q = v[:, None] * v[None, :]
        normal = np.array([-v[-1], v[0]])[:dim] if dim == 2 else np.zeros(1)
        points = (targets[rng.integers(0, k, size=m)] + rng.normal(size=(m, 1)) * normal
                  + 1e-9 * rng.normal(size=(m, dim)))
    return points, targets, q


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["continuous", "zeros", "tiny", "huge", "rank-one"])
@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_low_dim_costs_match_einsum_bit_for_bit(kind, dim, weighted, chunk_rows, monkeypatch):
    # at dim <= 2 point_cost_matrix evaluates the costs by explicit products;
    # they must carry einsum's bits, signed zeros included, with no warning
    rng = np.random.default_rng([dim, weighted, sum(map(ord, kind))])
    points, targets, q = _low_dim_case(kind, dim, rng)
    q = q if weighted else None
    if chunk_rows is not None:  # chunks of a few rows, the last one partial
        words = targets.size if q is None else 2 * targets.size
        monkeypatch.setattr(quadform, "_CHUNK_BYTES", 8 * words * chunk_rows)
        assert len(list(row_chunks(len(points), words))) == -(-len(points) // chunk_rows)
    raw = _einsum_costs(points, targets, q)
    with np.errstate(invalid="ignore"):
        ref = raw if q is None else np.maximum(raw, 0.0)
    assert _same_bits(point_cost_matrix(points, targets, q), ref)
    # before the clamp too, which may map -0.0 to +0.0 and so hide its sign
    out = np.empty_like(raw)
    quadform._low_dim_costs(points.T, targets, q, out)
    assert _same_bits(out, raw)
    if kind == "huge":
        assert np.any(np.isinf(raw))
    if kind == "rank-one" and weighted and dim == 2:
        assert np.any(raw < 0.0)  # costs that the clamp lifts to 0


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
