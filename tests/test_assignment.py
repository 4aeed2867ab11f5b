import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from conftest import assignment_case, block_diagonal_q
from mospa import (
    MAX_TARGETS,
    CapacityError,
    StackedState,
    UnsupportedMetricError,
    brute_force_assignment,
    gospa,
    optimal_permutation,
    ospa,
    region_index,
    solve_assignment,
)
from mospa import assignment, quadform
from mospa.assignment import (
    _KERNEL_REACH,
    _TIE_RTOL,
    _solve_square,
    _subset_dp_assign,
    batch_optimal_permutations,
)
from mospa.quadform import batch_block_cost_matrices, row_chunks, target_block_forms


def _kernel_rows(n, d):
    """Samples per kernel chunk at the current quadform._CHUNK_BYTES."""
    return next(row_chunks(1 << 40, assignment._kernel_words(n, d)))[1]


def _budget_for_rows(rows, n, d):
    """A quadform._CHUNK_BYTES that holds `rows` samples per kernel chunk."""
    return 8 * rows * assignment._kernel_words(n, d)


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
    tol = _TIE_RTOL * 2 * c.max()
    mappings, costs = _subset_dp_assign(c[None], np.array([tol]))
    assert tuple(mappings[0]) == (0, 1) and costs[0] == cost
    assert _solve_square(c, tol) == ((0, 1), cost)
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


def test_overflowing_cost_sums_are_refused_on_every_entry_point():
    # each entry is finite, but a sum of n of them is not
    # on the kernel and on the per-sample route above its reach
    for c in ([[1e308, 0.0], [0.0, 1e308]], np.diag(np.full(_KERNEL_REACH + 1, 1e308))):
        with pytest.raises(ValueError, match="overflow"):
            solve_assignment(c)
    x = StackedState(2, 1, [1e154, -1e154])
    with pytest.raises(ValueError, match="overflow"):
        ospa(x, StackedState(2, 1, [-1e154, 1e154]))


@pytest.mark.parametrize("n", range(1, _KERNEL_REACH + 2))
def test_only_the_per_sample_route_above_the_kernel_reaches_solve_square(n, monkeypatch):
    def refuse(c, tol):
        raise AssertionError("_solve_square reached")

    monkeypatch.setattr(assignment, "_solve_square", refuse)
    rng = np.random.default_rng(40 + n)
    x = StackedState(n, 2, rng.normal(size=2 * n))
    x_hat = StackedState(n, 2, rng.normal(size=2 * n))
    q = block_diagonal_q(rng, n, 2)
    calls = (lambda: solve_assignment(rng.random((n, n))),
             lambda: optimal_permutation(x, x_hat),
             lambda: ospa(x, x_hat),
             lambda: gospa(x, x_hat, q),
             lambda: region_index(x, x_hat, q))
    for call in calls:
        if n <= _KERNEL_REACH:
            call()
        else:
            with pytest.raises(AssertionError, match="_solve_square reached"):
                call()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solver_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        c = rng.random((n, n))
        p1, c1 = solve_assignment(c)
        p2, c2 = brute_force_assignment(c)
        assert abs(c1 - c2) <= 1e-12
        assert p1.mapping == p2.mapping  # unique optimum almost surely


def test_solve_square_falls_back_to_the_best_completion_seen():
    # at tol 0 rounding can leave a row with no column whose completion sum
    # reaches the LSA optimum; the walk then commits the best one it saw.
    # The crafted matrix does so at row 0, and about one in ten of the
    # random ones at some row
    from scipy.optimize import linear_sum_assignment

    def lsa(c):
        return float(c[linear_sum_assignment(c)].sum())

    c = np.array([[0.3, 0.3, 0.2], [0.3, 0.3, 0.3], [0.1, 0.1, 0.3]])
    assert all(c[0, j] + lsa(np.delete(c[1:], j, axis=1)) > lsa(c) for j in range(3))
    assert _solve_square(c, 0.0) == ((2, 0, 1), brute_force_assignment(c)[1])
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        c = rng.random((n, n))
        mapping, total = _solve_square(c, 0.0)
        assert sorted(mapping) == list(range(n))
        assert total == brute_force_assignment(c)[1]


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


def test_batch_rejects_malformed_points(monkeypatch):
    x_hat = StackedState(3, 2, np.arange(6.0))
    good = np.zeros((4, 6))
    for value in (np.nan, np.inf):
        points = good.copy()
        points[2, 5] = value
        with pytest.raises(ValueError, match="row 2"):
            batch_optimal_permutations(points, x_hat)
    # each chunk checks its own rows; the message gives the row in the batch
    with monkeypatch.context() as patch:
        patch.setattr(quadform, "_CHUNK_BYTES", _budget_for_rows(3, 3, 2))
        assert _kernel_rows(3, 2) == 3
        points = np.zeros((7, 6))
        points[5, 0] = np.nan
        for want_mappings in (True, False):
            with pytest.raises(ValueError, match="row 5 is not"):
                batch_optimal_permutations(points, x_hat, want_mappings=want_mappings)
    for shape in ((4, 5), (4, 7), (6,), (2, 3, 2)):
        with pytest.raises(ValueError, match=r"shape \(m, 6\)"):
            batch_optimal_permutations(np.zeros(shape), x_hat)
    for scale in (1e200, 9e153):  # a cost overflows; only a sum of 3 costs does
        with pytest.raises(ValueError, match="overflow"):
            batch_optimal_permutations(np.full((1, 6), scale), x_hat)
    mappings, costs = batch_optimal_permutations(np.empty((0, 6)), x_hat)
    assert mappings.shape == (0, 3) and costs.shape == (0,)
    assert batch_optimal_permutations(np.empty((0, 6)), x_hat, want_mappings=False)[1].shape == (0,)


def _first_exhaustive_minimum(c):
    """Lexicographically first optimal permutation of an integer-valued cost
    matrix, and its cost, over all n! permutations in chunks: slot 0 fixed,
    the rest from itertools (n <= 9)."""
    n = c.shape[0]
    tails = np.array(list(itertools.permutations(range(n - 1))), dtype=np.intp)
    chunk_minima = []
    for first in range(n):  # ascending first slot, each tail block in lex order
        rest = np.array([j for j in range(n) if j != first])
        perms = np.column_stack([np.full(len(tails), first), rest[tails]])
        totals = c[np.arange(n), perms].sum(axis=1)
        best = int(np.argmin(totals))
        chunk_minima.append((tuple(int(v) for v in perms[best]), totals[best]))
    return min(chunk_minima, key=lambda pair: pair[1])  # the first of equal minima


def test_batch_above_enumeration_cap_matches_exhaustive_minimum():
    # n = 9 is beyond the enumeration cap (brute_force_assignment refuses it)
    # but within the kernel's reach; an independent exhaustive search over
    # the 9! permutations checks the kernel.  Coordinates in {-1, 0, 1} give
    # integer costs with many exact ties, so every sum is exact
    rng = np.random.default_rng(11)
    n = MAX_TARGETS + 1
    x_hat = StackedState(n, 1, rng.integers(-1, 2, size=n).astype(float))
    points = rng.integers(-1, 2, size=(5, n)).astype(float)
    mappings, costs = batch_optimal_permutations(points, x_hat)
    _, costs_only = batch_optimal_permutations(points, x_hat, want_mappings=False)
    for s in range(len(points)):
        c = (points[s][:, None] - x_hat.data[None, :]) ** 2
        mapping, total = _first_exhaustive_minimum(c)
        assert tuple(mappings[s]) == mapping
        assert costs[s].tobytes() == total.tobytes()
        assert costs_only[s].tobytes() == total.tobytes()


@pytest.mark.parametrize("n", [3, _KERNEL_REACH + 1])
def test_chunked_batch_matches_one_chunk(n, monkeypatch):
    # a budget of a few samples per chunk, on the kernel and per-sample paths
    rng = np.random.default_rng(12)
    x_hat = StackedState(n, 2, rng.normal(size=2 * n))
    points = rng.normal(size=(7, 2 * n))
    whole = batch_optimal_permutations(points, x_hat)
    whole_costs = batch_optimal_permutations(points, x_hat, want_mappings=False)[1]
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", _budget_for_rows(3, n, 2))
    assert _kernel_rows(n, 2) == 3  # chunks of 3, 3 and 1 samples
    mappings, costs = batch_optimal_permutations(points, x_hat)
    assert np.array_equal(mappings, whole[0]) and np.array_equal(costs, whole[1])
    assert np.array_equal(batch_optimal_permutations(points, x_hat, want_mappings=False)[1],
                          whole_costs)
    points[-1] = 1e200  # overflow in the last chunk only
    with pytest.raises(ValueError, match="overflow"):
        batch_optimal_permutations(points, x_hat, want_mappings=False)


@pytest.mark.parametrize("n", range(MAX_TARGETS + 1, _KERNEL_REACH + 3))
def test_both_routes_agree_on_both_sides_of_the_kernel_reach(n):
    # the kernel and the per-sample route, each called directly, from the
    # enumeration cap to past the reach that picks between them, on every
    # kind of cost stack the dense-reference test uses below the cap
    kinds = ("continuous", "tied", "duplicate", "near-tie", "weighted")
    stacks = []
    for seed, kind in enumerate(kinds, 60 * n):
        points, x_hat, q = assignment_case(kind, n, 2, 16, seed)
        forms = None if q is None else target_block_forms(q, n, 2)
        stacks.append(batch_block_cost_matrices(points, x_hat.blocks(), forms))
    cs = np.concatenate(stacks)
    tol = _TIE_RTOL * np.maximum(1.0, cs.max(axis=(1, 2)) * n)
    mappings, costs = _subset_dp_assign(cs, tol)
    for s in range(len(cs)):
        mapping, total = _solve_square(cs[s], tol[s])
        assert tuple(mappings[s]) == mapping
        assert costs[s].tobytes() == np.float64(total).tobytes()


@pytest.mark.parametrize("want_mappings", [True, False])
def test_kernel_chunks_follow_the_one_row_budget(want_mappings, monkeypatch):
    # patching quadform's budget alone re-chunks the kernel: one rule for both
    rng = np.random.default_rng(16)
    x_hat = StackedState(3, 2, rng.normal(size=6))
    points = rng.normal(size=(7, 6))
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", _budget_for_rows(3, 3, 2))
    assign, sizes = assignment._assign, []

    def spy(cs, want_mappings=True):
        sizes.append(cs.shape[0])
        return assign(cs, want_mappings)

    monkeypatch.setattr(assignment, "_assign", spy)
    batch_optimal_permutations(points, x_hat, want_mappings=want_mappings)
    assert sizes == [3, 3, 1]


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


def test_cost_only_batch_allocates_no_mappings():
    # an (m, n) mapping array filled and dropped was 5.6 MB of a 7.9 MB peak
    rng = np.random.default_rng(14)
    points = rng.normal(size=(100_000, 14))
    x_hat = StackedState(7, 2, rng.normal(size=14))
    tracemalloc.start()
    try:
        mappings, _ = batch_optimal_permutations(points, x_hat, want_mappings=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mappings is None
    assert peak < 4e6


@pytest.mark.parametrize("n, d, m, modes", [
    pytest.param(3, 2, None, (True, False), id="3"),
    pytest.param(5, 2, None, (True, False), id="5"),
    pytest.param(MAX_TARGETS, 2, None, (True, False), id="8"),
    # the kernel's widest tables
    pytest.param(_KERNEL_REACH, 2, None, (True, False), id="12"),
    # many chunks: a finiteness mask over the whole batch (17 bytes a row
    # here) would alone break the bound
    pytest.param(MAX_TARGETS, 3, 300_000, (False,), id="8-d3-cost-only"),
])
def test_batch_memory_is_bounded_by_the_chunk_budget(n, d, m, modes):
    # what a kernel chunk holds at its peak stays within the budget that
    # sizes it: _kernel_words counts every array of the chunk
    rng = np.random.default_rng(15 + n + 10 * (d - 2))
    rows = _kernel_rows(n, d)
    points = rng.normal(size=(m or 3 * rows + rows // 2, d * n))
    x_hat = StackedState(n, d, rng.normal(size=d * n))
    for want_mappings in modes:
        tracemalloc.start()
        try:
            mappings, costs = batch_optimal_permutations(points, x_hat,
                                                         want_mappings=want_mappings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = costs.nbytes + (0 if mappings is None else mappings.nbytes)
        assert peak - results <= 2 * quadform._CHUNK_BYTES


# The kernel as it was before the DP ran over free columns only: every layer
# adds all n columns, the taken ones reading the +inf sentinel row.  It is
# the reference that batch_optimal_permutations must match bit for bit.
@lru_cache(maxsize=MAX_TARGETS)
def _dense_subset_tables(n: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    full = 1 << n
    subsets = np.arange(full, dtype=np.intp)
    bits = np.intp(1) << np.arange(n, dtype=np.intp)
    nxt = np.where(subsets[:, None] & bits, full, subsets[:, None] | bits)
    popcount = (subsets[:, None] & bits != 0).sum(axis=1)
    layers = [(subsets[popcount == k], nxt[popcount == k]) for k in range(n)]
    for arr in (nxt, *(a for layer in layers for a in layer)):
        arr.setflags(write=False)
    return nxt, layers


def _dense_subset_dp_assign(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, n, _ = cs.shape
    full = 1 << n
    nxt, layers = _dense_subset_tables(n)
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


def _assert_kernel_matches_dense_reference(points, x_hat, q=None):
    n, d = x_hat.n_targets, x_hat.state_dim
    forms = None if q is None else target_block_forms(q, n, d)
    # the costs clamped at 0, as the cost stack was before unweighted costs
    # went unclamped
    cs = np.maximum(batch_block_cost_matrices(points, x_hat.blocks(), forms), 0.0)
    want, want_costs = _dense_subset_dp_assign(cs)
    mappings, costs = batch_optimal_permutations(points, x_hat, q)
    assert np.array_equal(mappings, want)
    assert costs.tobytes() == want_costs.tobytes()
    _, costs_only = batch_optimal_permutations(points, x_hat, q, want_mappings=False)
    assert costs_only.tobytes() == want_costs.tobytes()
    return mappings, costs


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, MAX_TARGETS + 1))
def test_kernel_matches_the_dense_reference(n, d):
    rows = _kernel_rows(n, d)
    kinds = ("continuous", "tied", "duplicate", "near-tie", "weighted")
    for seed, kind in enumerate(kinds, 100 * n + 10 * d):
        # one chunk; then three chunks, the last one partial
        for m in (min(rows, 40), 2 * rows + rows // 2):
            _assert_kernel_matches_dense_reference(*assignment_case(kind, n, d, m, seed))


def test_kernel_takes_the_column_on_the_tolerance_boundary():
    # every cost is below 1/n, so tol is _TIE_RTOL itself: the identity costs
    # exactly tol above the swap's optimum 0, so row 0 may keep column 0
    p, q = 2.2322858239929762e-07, 1.3e-08
    points = np.array([[p, q, 0.0, 0.0]])
    x_hat = StackedState(2, 2, [0.0, 0.0, p, q])
    cs = batch_block_cost_matrices(points, x_hat.blocks())
    assert cs[0, 0, 0] + cs[0, 1, 1] == _TIE_RTOL
    assert cs[0, 0, 1] + cs[0, 1, 0] == 0.0
    mappings, costs = _assert_kernel_matches_dense_reference(points, x_hat)
    assert tuple(mappings[0]) == (0, 1) and costs[0] == _TIE_RTOL
    assert _solve_square(cs[0], _TIE_RTOL) == ((0, 1), _TIE_RTOL)
