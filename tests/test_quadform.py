import tracemalloc

import numpy as np

from conftest import block_diagonal_q
from mospa.quadform import point_cost_matrix


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
