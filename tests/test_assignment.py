import tracemalloc

import numpy as np
import pytest

from conftest import block_diagonal_q
from mospa import (
    MAX_TARGETS,
    CapacityError,
    StackedState,
    UnsupportedMetricError,
    brute_force_assignment,
    optimal_permutation,
    solve_assignment,
)
from mospa import assignment
from mospa.assignment import _subset_dp_assign, batch_optimal_permutations


def test_zero_diagonal():
    perm, cost = solve_assignment([[0.0, 2.0], [2.0, 0.0]])
    assert perm.mapping == (0, 1)
    assert cost == 0.0


def test_all_ties_resolve_lexicographically():
    perm, cost = solve_assignment(np.ones((4, 4)))
    assert perm.mapping == (0, 1, 2, 3)
    assert cost == 4.0


def test_near_tie_within_tolerance_takes_first_column():
    # (0, 1) costs 2 + 2**-51 and (1, 0) costs 2: a tie under _TIE_RTOL, so
    # both routes take column 0 for row 0, where the exact argmin would not
    c = np.array([[1.0 + 2**-51, 1.0], [1.0, 1.0]])
    perm, cost = solve_assignment(c)
    assert perm.mapping == (0, 1) and cost == 2.0 + 2**-51
    mappings, costs = _subset_dp_assign(c[None])
    assert tuple(mappings[0]) == (0, 1) and costs[0] == cost
    assert brute_force_assignment(c)[0].mapping == (1, 0)


def test_hand_two_by_two():
    for solver in (solve_assignment, brute_force_assignment):
        perm, cost = solver([[5.0, 4.0], [3.0, 7.0]])
        assert perm.mapping == (1, 0)
        assert cost == 7.0


def test_one_by_one():
    perm, cost = brute_force_assignment([[0.0]])
    assert perm.mapping == (0,)
    assert cost == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        solve_assignment([[1.0, 2.0]])
    with pytest.raises(ValueError):
        solve_assignment([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_assignment([[1.0, -0.5], [0.0, 1.0]])
    with pytest.raises(CapacityError):
        brute_force_assignment(np.ones((9, 9)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solver_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        c = rng.random((n, n))
        p1, c1 = solve_assignment(c)
        p2, c2 = brute_force_assignment(c)
        assert abs(c1 - c2) <= 1e-12
        assert p1.mapping == p2.mapping  # unique optimum almost surely


def test_lexicographic_agreement_on_tied_matrices():
    # integer matrices engineered for plentiful ties
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = rng.integers(0, 3, size=(n, n)).astype(float)
        p1, c1 = solve_assignment(c)
        p2, c2 = brute_force_assignment(c)
        assert c1 == c2
        assert p1.mapping == p2.mapping


def test_cost_invariant_under_simultaneous_relabeling():
    rng = np.random.default_rng(17)
    c = rng.random((5, 5))
    _, base = solve_assignment(c)
    for _ in range(10):
        sigma = rng.permutation(5)
        _, relabeled = solve_assignment(c[np.ix_(sigma, sigma)])
        assert abs(relabeled - base) <= 1e-12


def test_optimal_permutation_identity_for_equal_states():
    x = StackedState(3, 2, np.arange(6.0))
    perm, cost = optimal_permutation(x, x)
    assert perm.mapping == (0, 1, 2)
    assert cost == 0.0


def test_optimal_permutation_tie_example():
    x = StackedState(2, 1, [0.0, 0.0])
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    perm, cost = optimal_permutation(x, x_hat)
    assert cost == 25.0
    assert perm.mapping == (0, 1)


def test_optimal_permutation_well_separated():
    x = StackedState(2, 1, [-5.0, 4.0])
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    perm, cost = optimal_permutation(x, x_hat)
    assert perm.mapping == (0, 1)
    assert cost == 2.0


def test_optimal_permutation_cost_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = StackedState(3, 2, rng.normal(size=6))
        y = StackedState(3, 2, rng.normal(size=6))
        assert optimal_permutation(x, y)[1] == pytest.approx(optimal_permutation(y, x)[1], abs=1e-12)


def test_optimal_permutation_dimension_mismatch():
    x = StackedState(2, 1, [0.0, 1.0])
    y = StackedState(2, 2, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        optimal_permutation(x, y)


def test_coupling_q_rejected():
    x = StackedState(2, 1, [0.0, 1.0])
    y = StackedState(2, 1, [1.0, 0.0])
    q = np.array([[2.0, 0.5], [0.5, 2.0]])  # couples the two scalar targets
    with pytest.raises(UnsupportedMetricError):
        optimal_permutation(x, y, q)


def test_block_q_decomposition_matches_stacked_form():
    rng = np.random.default_rng(5)
    n, d = 3, 2
    q = block_diagonal_q(rng, n, d)
    for _ in range(20):
        x = StackedState(n, d, rng.normal(size=n * d))
        y = StackedState(n, d, rng.normal(size=n * d))
        _, cost = optimal_permutation(x, y, q)
        # exhaustive stacked-form evaluation
        from mospa import permutation_apply, permutation_enumerate

        best = min(
            float((x.data - permutation_apply(p, y).data) @ q @ (x.data - permutation_apply(p, y).data))
            for p in permutation_enumerate(n)
        )
        assert cost == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_batch_matches_single():
    rng = np.random.default_rng(8)
    x_hat = StackedState(3, 2, rng.normal(size=6))
    points = rng.normal(size=(40, 6))
    mappings, costs = batch_optimal_permutations(points, x_hat)
    for i in range(40):
        perm, cost = optimal_permutation(StackedState(3, 2, points[i]), x_hat)
        assert tuple(mappings[i]) == perm.mapping
        assert costs[i] == cost
    _, costs_only = batch_optimal_permutations(points, x_hat, want_mappings=False)
    assert np.array_equal(costs_only, costs)


def test_batch_rejects_malformed_points():
    x_hat = StackedState(3, 2, np.arange(6.0))
    good = np.zeros((4, 6))
    for value in (np.nan, np.inf):
        points = good.copy()
        points[2, 5] = value
        with pytest.raises(ValueError, match="row 2"):
            batch_optimal_permutations(points, x_hat)
    for shape in ((4, 5), (4, 7), (6,), (2, 3, 2)):
        with pytest.raises(ValueError, match=r"shape \(m, 6\)"):
            batch_optimal_permutations(np.zeros(shape), x_hat)
    with pytest.raises(ValueError, match="overflow"):
        batch_optimal_permutations(np.full((1, 6), 1e200), x_hat)
    mappings, costs = batch_optimal_permutations(np.empty((0, 6)), x_hat)
    assert mappings.shape == (0, 3) and costs.shape == (0,)
    assert batch_optimal_permutations(np.empty((0, 6)), x_hat, want_mappings=False)[1].shape == (0,)


def test_batch_above_kernel_cap_matches_single():
    # n > MAX_TARGETS: the per-sample path (2^n table sizes rule out the kernel)
    rng = np.random.default_rng(11)
    n = MAX_TARGETS + 1
    x_hat = StackedState(n, 1, rng.normal(size=n))
    points = rng.normal(size=(5, n))
    mappings, costs = batch_optimal_permutations(points, x_hat)
    _, costs_only = batch_optimal_permutations(points, x_hat, want_mappings=False)
    for s in range(len(points)):
        perm, cost = optimal_permutation(StackedState(n, 1, points[s]), x_hat)
        assert tuple(mappings[s]) == perm.mapping
        assert costs[s] == cost
        assert costs_only[s] == cost


@pytest.mark.parametrize("n", [3, MAX_TARGETS + 1])
def test_chunked_batch_matches_one_chunk(n, monkeypatch):
    # a budget of a few samples per chunk, on the kernel and per-sample paths
    rng = np.random.default_rng(12)
    x_hat = StackedState(n, 2, rng.normal(size=2 * n))
    points = rng.normal(size=(7, 2 * n))
    whole = batch_optimal_permutations(points, x_hat)
    whole_costs = batch_optimal_permutations(points, x_hat, want_mappings=False)[1]
    monkeypatch.setattr(assignment, "_KERNEL_CHUNK_BYTES", 8 * (2**n + 6 * n * n))
    mappings, costs = batch_optimal_permutations(points, x_hat)
    assert np.array_equal(mappings, whole[0]) and np.array_equal(costs, whole[1])
    assert np.array_equal(batch_optimal_permutations(points, x_hat, want_mappings=False)[1],
                          whole_costs)
    points[-1] = 1e200  # overflow in the last chunk only
    with pytest.raises(ValueError, match="overflow"):
        batch_optimal_permutations(points, x_hat, want_mappings=False)


def test_cost_only_batch_memory_is_bounded_by_the_chunk():
    # the mospa operation at n=7, d=2: block costs are built per chunk, never
    # as one (m, n, n) stack (a whole-batch build peaked at 156.8 MB here)
    rng = np.random.default_rng(13)
    points = rng.normal(size=(100_000, 14))
    x_hat = StackedState(7, 2, rng.normal(size=14))
    tracemalloc.start()
    try:
        _, costs = batch_optimal_permutations(points, x_hat, want_mappings=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
    first = batch_optimal_permutations(points[:3], x_hat)[1]
    assert np.array_equal(costs[:3], first)
