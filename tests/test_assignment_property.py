"""Property test of the batched assignment kernel (n <= MAX_TARGETS): every
mapping and cost is bit-equal to the per-sample solver and to the brute-force
oracle, on tied, duplicate-block, Q-weighted and continuous inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import assignment_case  # noqa: E402
from mospa import MAX_TARGETS, brute_force_assignment  # noqa: E402
from mospa.assignment import (  # noqa: E402
    _TIE_RTOL,
    _kernel_words,
    _solve_square,
    batch_optimal_permutations,
)
from mospa.quadform import (  # noqa: E402
    batch_block_cost_matrices,
    row_chunks,
    target_block_forms,
)

KINDS = ("continuous", "tied", "duplicate", "weighted")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, MAX_TARGETS), d=st.integers(1, 2), m=st.integers(1, 12),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@example(n=MAX_TARGETS, d=1, m=600, kind="tied", seed=0)
@example(n=MAX_TARGETS, d=2, m=600, kind="duplicate", seed=1)
def test_kernel_matches_per_sample_solver_and_oracle(n, d, m, kind, seed):
    if m > 12:
        assert len(list(row_chunks(m, _kernel_words(n, d)))) >= 3  # three chunks at least
    points, x_hat, q = assignment_case(kind, n, d, m, seed)
    mappings, costs = batch_optimal_permutations(points, x_hat, q)
    _, costs_only = batch_optimal_permutations(points, x_hat, q, want_mappings=False)
    assert np.array_equal(costs_only, costs)
    forms = None if q is None else target_block_forms(q, n, d)
    cs = batch_block_cost_matrices(points, x_hat.blocks(), forms)
    tol = _TIE_RTOL * np.maximum(1.0, cs.max(axis=(1, 2)) * n)
    for s in range(m):
        mapping, total = _solve_square(cs[s], tol[s])
        assert tuple(mappings[s]) == mapping
        assert costs[s] == total
        perm, best = brute_force_assignment(cs[s])
        assert perm.mapping == mapping
        assert best == total
