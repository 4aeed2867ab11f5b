import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import block_diagonal_q, normalized_weights, random_mixture, two_mode_mixture
from mospa import (
    EmpiricalMeasure,
    GaussianMixture,
    MmospaConfig,
    RestartOutcome,
    StackedState,
    gm_sample,
    mmospa_estimate,
    mospa_mc,
    parse_scenario,
    permutation_apply,
    permutation_enumerate,
    scalar_sort_oracle,
)
from mospa import estimation, quadform, rng as mospa_rng
from mospa.assignment import _TIE_RTOL, _kernel_words, batch_optimal_permutations
from mospa.quadform import point_cost_matrix, row_chunks, target_block_forms
from mospa.states import _atom_index_matrix, permutation_array

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
README_SCENARIO = SCENARIOS / "two_iid_normals.json"
WEIGHTED_SCENARIO = SCENARIOS / "weighted_pair.json"


# The descent step as two passes, an alignment sweep over the whole sample and
# then an average of the aligned sample: the reference that estimation._step
# must match bit for bit.  Its alignment is a dense argmin over the n!
# permuted estimates at two targets, and one batch_optimal_permutations call
# on the whole sample at any other count; the dense argmin is also an
# independent route there, equal up to the kernel's tie band and summation.
def _blocked_sum(weights, low):
    """sum_i w[i] * low[i], summed over fixed blocks, whatever the chunks were."""
    obj = 0.0
    _CHUNK = estimation._CHUNK
    for lo in range(0, len(low), _CHUNK):
        obj += float(np.sum(weights[lo:lo + _CHUNK] * low[lo:lo + _CHUNK]))
    return obj


def _alignment_pass(points, weights, atoms, q):
    """One sweep over the samples: the objective and the best atom per sample."""
    m = points.shape[0]
    best = np.empty(m, dtype=np.intp)
    low = np.empty(m)
    for lo, hi in row_chunks(m, atoms.size):
        costs = point_cost_matrix(points[lo:hi], atoms, q)
        best[lo:hi] = costs.argmin(axis=1)  # first minimum = lexicographic
        # the minima, read at the argmin: cheaper than a min over a short axis
        low[lo:hi] = costs[np.arange(hi - lo), best[lo:hi]]
    return _blocked_sum(weights, low), best


def _dense_alignment(points, weights, xh, n, d, q):
    """The objective of xh and each slot's source block per sample, by the
    argmin over the n! permuted estimates."""
    obj, best = _alignment_pass(points, weights, xh[_atom_index_matrix(n, d)], q)
    return obj, np.argsort(permutation_array(n), axis=1)[best]


def _kernel_alignment(points, weights, xh, n, d, q):
    """The objective of xh and each slot's source block per sample, by one
    batch_optimal_permutations call: slot j takes the block that maps to j."""
    mappings, costs = batch_optimal_permutations(points, StackedState(n, d, xh), q)
    return _blocked_sum(weights, costs), np.argsort(mappings, axis=1)


def _reference_alignment(points, weights, xh, n, d, q):
    route = _dense_alignment if n == 2 else _kernel_alignment
    return route(points, weights, xh, n, d, q)


def _average_step(points, weights, src, n_targets, state_dim, forms):
    """New estimate blocks: weighted average of the sample blocks assigned to
    each slot.  With slot weight matrices, the normal equations, whose sums
    are taken per estimation._CHUNK block of the aligned sample."""
    m = points.shape[0]
    blocks = points.reshape(m, n_targets, state_dim)
    if forms is None:
        gathered = blocks[np.arange(m)[:, None], src]
        return estimation._weighted_column_sum(weights, gathered) / np.sum(weights)
    wsum = np.zeros((n_targets, n_targets))
    xsum = np.zeros((n_targets, n_targets, state_dim))
    for lo in range(0, m, estimation._CHUNK):
        w, s, b = (a[lo:lo + estimation._CHUNK] for a in (weights, src, blocks))
        for j in range(n_targets):
            for i in range(n_targets):
                mask = s[:, j] == i
                wsum[j, i] += float(np.sum(w[mask]))
                xsum[j, i] += np.einsum("m,m...->...", w[mask], b[mask, i])
    return _solve_normal_equations(wsum, xsum, forms)


def _whole_sample_normal_equations(points, weights, src, n_targets, state_dim, forms):
    """The weighted average with each slot's sums taken over the whole sample
    at once: a second reference, which the blocked sums match within
    rounding."""
    blocks = points.reshape(points.shape[0], n_targets, state_dim)
    wsum = np.zeros((n_targets, n_targets))
    xsum = np.zeros((n_targets, n_targets, state_dim))
    for j in range(n_targets):
        for i in range(n_targets):
            mask = src[:, j] == i
            wsum[j, i] = float(np.sum(weights[mask]))
            xsum[j, i] = estimation._weighted_column_sum(weights[mask], blocks[mask, i])
    return _solve_normal_equations(wsum, xsum, forms)


def _solve_normal_equations(wsum, xsum, forms):
    """Slot j solves sum_i W_ji F_i x = sum_i F_i S_ji, given the weight sums
    W_ji and weighted block sums S_ji of the sample blocks i assigned to j."""
    n_targets, state_dim = xsum.shape[1:]
    new_blocks = np.empty((n_targets, state_dim))
    for j in range(n_targets):
        lhs = np.zeros((state_dim, state_dim))
        rhs = np.zeros(state_dim)
        for i in range(n_targets):
            lhs += wsum[j, i] * forms[i]
            rhs += forms[i] @ xsum[j, i]
        new_blocks[j] = np.linalg.solve(lhs, rhs)
    return new_blocks


def _assert_step_matches_the_reference(args):
    points, weights, xh, n, d, q, forms = args
    obj, src = _reference_alignment(points, weights, xh, n, d, q)
    nxt = _average_step(points, weights, src, n, d, forms).reshape(-1)
    step_obj, step_nxt = estimation._step(*args)
    assert step_obj.hex() == obj.hex()
    assert np.array_equal(step_nxt, nxt)
    if forms is not None:
        whole = _whole_sample_normal_equations(points, weights, src, n, d, forms)
        assert np.allclose(step_nxt, whole.reshape(-1), rtol=1e-12, atol=0)
    if n != 2:  # the independent route: the same alignment, stacked distances
        dense_obj, dense_src = _dense_alignment(points, weights, xh, n, d, q)
        assert np.array_equal(_average_step(points, weights, dense_src, n, d, forms).reshape(-1),
                              step_nxt)
        assert step_obj == pytest.approx(dense_obj, rel=1e-12, abs=0)
    return step_nxt


def test_mospa_zero_when_samples_equal_estimate():
    x_hat = StackedState(2, 1, [-1.0, 2.0])
    emp = EmpiricalMeasure(2, 1, np.tile(x_hat.data, (10, 1)), np.full(10, 0.1))
    est = mospa_mc(emp, x_hat)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.sample_count == 10


def test_mospa_two_mode_residual_is_component_trace():
    sigma = 0.1
    mix = two_mode_mixture(sigma)
    emp = gm_sample(mix, seed=21, m=20000)
    est = mospa_mc(emp, StackedState(2, 1, [-4.0, 3.0]))
    assert abs(est.value - 2 * sigma**2) <= 4 * est.std_error


def test_mospa_never_exceeds_mse():
    rng = np.random.default_rng(31)
    for trial in range(10):
        mix = random_mixture(rng, 2, 2, 2)
        emp = gm_sample(mix, seed=trial, m=500)
        x_hat = StackedState(2, 2, rng.normal(size=4, scale=3))
        est = mospa_mc(emp, x_hat)
        diff = emp.points - x_hat.data
        mse = float(emp.weights @ np.einsum("md,md->m", diff, diff))
        assert est.value <= mse * (1 + 1e-12) + 1e-12


def test_mospa_invariant_under_estimate_permutation():
    mix = random_mixture(np.random.default_rng(1), 3, 1, 2)
    emp = gm_sample(mix, seed=2, m=300)
    x_hat = StackedState(3, 1, [-1.0, 0.5, 2.0])
    base = mospa_mc(emp, x_hat).value
    for p in permutation_enumerate(3):
        assert mospa_mc(emp, permutation_apply(p, x_hat)).value == base


def test_mmospa_single_target_is_weighted_mean():
    rng = np.random.default_rng(40)
    pts = rng.normal(size=(200, 2), scale=2.0)
    emp = EmpiricalMeasure(1, 2, pts, np.full(200, 1 / 200))
    res = mmospa_estimate(emp, config=MmospaConfig(restarts=1))
    assert res.iterations == 1
    assert res.converged
    expected = np.einsum("m,md->d", emp.weights, pts)
    assert np.allclose(res.estimate.data, expected, rtol=0, atol=1e-15)


def test_mmospa_matches_scalar_oracle():
    mix = GaussianMixture.from_components(2, 1, [(1.0, [0.0, 0.0], np.eye(2))])
    emp = gm_sample(mix, seed=8, m=50000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=13))
    oracle = scalar_sort_oracle(emp)
    assert np.allclose(res.estimate.data, oracle.data, atol=1e-9)
    # the oracle attains the empirical optimum; objectives must agree
    atoms_idx = _atom_index_matrix(2, 1)
    oracle_obj, _ = _alignment_pass(emp.points, emp.weights, oracle.data[atoms_idx], None)
    assert abs(res.empirical_mospa - oracle_obj) <= 1e-9
    target = 1.0 / math.sqrt(math.pi)
    assert np.allclose(res.estimate.data, [-target, target], atol=0.02)


def test_mmospa_recovers_separated_modes():
    sigma = 0.1
    mix = two_mode_mixture(sigma)
    m = 20000
    emp = gm_sample(mix, seed=3, m=m)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=5))
    assert res.converged
    assert np.allclose(res.estimate.data, [-4.0, 3.0], atol=4 * sigma / math.sqrt(m / 2) + 0.01)


def test_mmospa_descent_trace():
    rng = np.random.default_rng(50)
    for trial in range(5):
        mix = random_mixture(rng, 2, 2, 3)
        emp = gm_sample(mix, seed=trial, m=2000)
        res = mmospa_estimate(emp, config=MmospaConfig(seed=trial, restarts=4))
        trace = res.descent_trace
        assert len(trace) == res.iterations
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
        assert trace[-1] == res.empirical_mospa
        assert res.restarts_used == 4


def test_mmospa_fixed_point_is_stable():
    mix = two_mode_mixture(0.5)
    emp = gm_sample(mix, seed=11, m=5000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=2))
    # one more alternating step from the returned estimate must not move it
    again = mmospa_estimate(emp, init=res.estimate, config=MmospaConfig(restarts=1, max_iters=2))
    assert np.allclose(again.estimate.data, res.estimate.data, atol=1e-8)
    assert again.empirical_mospa <= res.empirical_mospa + 1e-12


def test_mmospa_weighted_variant_descends():
    rng = np.random.default_rng(60)
    q = block_diagonal_q(rng, 2, 2)
    mix = random_mixture(rng, 2, 2, 2)
    emp = gm_sample(mix, seed=9, m=3000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=1, restarts=4), q=q)
    trace = res.descent_trace
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    est = mospa_mc(emp, res.estimate, q=q)
    assert est.value == pytest.approx(res.empirical_mospa, rel=1e-9)


def test_mmospa_sweeps_once_per_step(monkeypatch):
    # one sweep per distinct estimate: the sweep that scores an estimate also
    # aligns the samples for the next step, and the last averaging step lands
    # bit for bit on the estimate before it, which is not swept again
    calls = []
    kernel = estimation.point_cost_matrix

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(estimation, "point_cost_matrix", counting)
    emp = gm_sample(random_mixture(np.random.default_rng(80), 2, 2, 3), seed=6, m=5000)
    assert len(list(row_chunks(len(emp), 2 * emp.dim))) == 1  # one cost chunk per sweep
    res = mmospa_estimate(emp, config=MmospaConfig(seed=4, restarts=1))
    assert res.iterations >= 3
    assert res.restart_outcomes[0].sweeps == 6
    assert calls == [len(emp)] * 6


def _step_args(rng, n, d, m, weighted):
    """Arguments of estimation._step for m samples of a random mixture, with
    random weights and a random estimate."""
    q = block_diagonal_q(rng, n, d) if weighted else None
    forms = None if q is None else target_block_forms(q, n, d)
    points = gm_sample(random_mixture(rng, n, d, 3), seed=n + d, m=m).points
    xh = rng.normal(size=n * d, scale=3.0)
    return points, normalized_weights(rng, m), xh, n, d, q, forms


@pytest.mark.parametrize("weighted", [False, True])
def test_step_is_independent_of_the_cost_chunk(monkeypatch, weighted):
    # three targets: the chunks are the assignment kernel's
    rng = np.random.default_rng(90)
    args = _step_args(rng, 3, 2, 5000, weighted)
    words = _kernel_words(3, 2)
    assert len(list(row_chunks(5000, words))) == 2
    obj, nxt = estimation._step(*args)
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", 8 * words * 7)  # 7 samples a chunk
    chunked_obj, chunked_nxt = estimation._step(*args)
    assert chunked_obj.hex() == obj.hex()
    assert np.array_equal(chunked_nxt, nxt)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_step_matches_the_two_pass_reference(monkeypatch, n, d, weighted):
    # 700-sample blocks: three full ones and a partial last one
    monkeypatch.setattr(estimation, "_CHUNK", 700)
    args = _step_args(np.random.default_rng(10 * n + d), n, d, 2500, weighted)
    _assert_step_matches_the_reference(args)


@pytest.mark.parametrize("weighted", [False, True])
def test_step_takes_the_first_of_tied_atoms(monkeypatch, weighted):
    # every estimate block equal, so all 3! alignments tie on every sample,
    # and each takes the first, the identity
    monkeypatch.setattr(estimation, "_CHUNK", 700)
    args = list(_step_args(np.random.default_rng(96), 3, 2, 2500, weighted))
    args[2] = np.tile(args[2][:2], 3)
    points, weights, _, n, d, _, forms = args
    identity = np.tile(np.arange(n), (len(points), 1))
    expected = _average_step(points, weights, identity, n, d, forms).reshape(-1)
    assert np.array_equal(_assert_step_matches_the_reference(args), expected)


_SPECIAL_PAIRS = {
    "random": [],
    "ties": [(0.0, 0.0), (1.5, 1.5), (np.inf, np.inf), (5e-324, 5e-324)],
    "nan_c0": [(np.nan, 0.0), (np.nan, 2.0), (np.nan, np.inf)],
    "nan_c1": [(0.0, np.nan), (2.0, np.nan), (np.inf, np.nan)],
    "nan_both": [(np.nan, np.nan)],
    "inf": [(np.inf, np.inf), (np.inf, 1.0), (1.0, np.inf)],
    "minus_inf": [(-np.inf, -np.inf), (-np.inf, 1.0), (1.0, -np.inf)],
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", sorted(_SPECIAL_PAIRS))
def test_two_atom_step_takes_argmins_index(monkeypatch, kind, weighted):
    # at two atoms the step compares the cost columns instead of calling
    # argmin; served crafted costs, it must pick what argmin picks: the first
    # of tied atoms, atom 0 at a NaN in c0, atom 1 at a NaN in c1 alone
    rng = np.random.default_rng(97)
    args = _step_args(rng, 2, 1, 2500, weighted)
    points, weights, _, n, d, q, forms = args
    m = len(points)
    table = rng.exponential(size=(m, 2))
    if _SPECIAL_PAIRS[kind]:  # about half the rows
        pairs = np.array(_SPECIAL_PAIRS[kind])
        special = rng.random(m) < 0.5
        table[special] = pairs[rng.integers(len(pairs), size=special.sum())]
    served = []

    def crafted(pts, targets, q_):
        lo = (pts.ctypes.data - points.ctypes.data) // points.strides[0]
        served.append((lo, len(pts)))
        return table[lo:lo + len(pts)].copy()

    monkeypatch.setattr(estimation, "point_cost_matrix", crafted)
    monkeypatch.setattr(estimation, "_CHUNK", 700)
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", 8 * 2 * n * d * 97)  # 97 rows a chunk
    step_obj, step_nxt = estimation._step(*args)
    # one call per block (three full 700-row blocks and the last), every row once
    assert len(served) == 4 and sum(r for _, r in served) == m

    best = table.argmin(axis=1)
    low = table[np.arange(m), best]
    obj = 0.0
    for lo in range(0, m, 700):
        obj += float(np.sum(weights[lo:lo + 700] * low[lo:lo + 700]))
    src = np.argsort(permutation_array(n), axis=1)[best]
    nxt = _average_step(points, weights, src, n, d, forms).reshape(-1)
    assert step_obj.hex() == obj.hex()
    assert np.array_equal(step_nxt, nxt)


@pytest.mark.parametrize("third, step_objective", [([], 0.0), ([5.0, 5.0], _TIE_RTOL)],
                         ids=["two-targets", "three-targets"])
def test_two_target_step_is_the_exception_to_the_tie_tolerance(third, step_objective):
    # the sample of test_kernel_takes_the_column_on_the_tolerance_boundary:
    # its identity costs the dispatcher's tolerance, _TIE_RTOL, above the
    # swap's 0.  mospa_mc takes the dispatcher's first permutation within
    # that tolerance, the identity; at two targets the step compares exactly
    # and takes the swap, so its objective sits below mospa_mc's.  With a
    # third target the step aligns on the dispatcher too, and the two agree
    p, q = 2.2322858239929762e-07, 1.3e-08
    n = 2 + len(third) // 2
    points = np.array([[p, q, 0.0, 0.0] + third])
    xh = np.array([0.0, 0.0, p, q] + third)
    obj, _ = estimation._step(points, np.ones(1), xh, n, 2, None, None)
    mc = mospa_mc(EmpiricalMeasure(n, 2, points, [1.0]), StackedState(n, 2, xh))
    assert mc.value == _TIE_RTOL
    assert obj == step_objective


@pytest.mark.parametrize("weighted", [False, True])
def test_step_matches_the_two_pass_reference_over_full_blocks(weighted):
    # the block size as it ships: two full blocks and a partial one
    args = _step_args(np.random.default_rng(95), 2, 1, 150_001, weighted)
    assert 150_001 // estimation._CHUNK == 2
    _assert_step_matches_the_reference(args)


def test_mmospa_memory_is_bounded_by_the_chunk():
    sc = parse_scenario(README_SCENARIO)
    for emp, config, bound in (
        # n = 6: 720 atoms, so a sweep of 65536-row cost chunks peaked at 124 MB
        (gm_sample(random_mixture(np.random.default_rng(91), 6, 1, 2), seed=3, m=20000),
         MmospaConfig(restarts=1, max_iters=3), 40e6),
        # m = 10^6: the restart spread squared every sample at once, 16.1 MB
        (gm_sample(sc.mixture, sc.seed, 1_000_000), MmospaConfig(restarts=1, max_iters=1),
         10e6),
    ):
        tracemalloc.start()
        try:
            res = mmospa_estimate(emp, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert res.empirical_mospa == pytest.approx(mospa_mc(emp, res.estimate).value,
                                                    rel=1e-9)


def test_two_atom_step_memory_is_bounded_by_the_kernel_chunk():
    # one full block at d = 16: the step holds its aligned copy and its
    # (rows, 2) costs, and point_cost_matrix one 2 MiB chunk of differences;
    # a whole-block difference tensor (rows x 2 atoms x 2d words) would not fit
    rows, d = estimation._CHUNK, 16
    rng = np.random.default_rng(98)
    points = rng.normal(size=(rows, 2 * d))
    weights = normalized_weights(rng, rows)
    xh = rng.normal(size=2 * d, scale=3.0)
    bound = 8 * rows * 2 * d + 8 * rows * 2 + quadform._CHUNK_BYTES
    assert 8 * rows * 4 * d > bound
    tracemalloc.start()
    try:
        obj, nxt = estimation._step(points, weights, xh, 2, d, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    costs = point_cost_matrix(points, xh[_atom_index_matrix(2, d)])
    assert obj == pytest.approx(float(np.sum(weights * costs.min(axis=1))), rel=1e-12)
    assert np.all(np.isfinite(nxt))


def test_weighted_step_memory_is_bounded_by_the_chunk():
    # m = 10^6: a whole-sample alignment and n^2 masks over every sample
    # peaked at 44.6 MB
    sc = parse_scenario(WEIGHTED_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, 1_000_000)
    n, d = sc.n_targets, sc.state_dim
    x_hat = StackedState(n, d, [-2.0, 1.0, 2.0, -1.0])
    args = (emp.points, emp.weights, x_hat.data, n, d, sc.q_matrix,
            target_block_forms(sc.q_matrix, n, d))
    tracemalloc.start()
    try:
        obj, nxt = estimation._step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert obj == pytest.approx(mospa_mc(emp, x_hat, q=sc.q_matrix).value, rel=1e-9)
    assert np.all(np.isfinite(nxt))


def test_mmospa_weighted_run_is_pinned():
    # bits recorded before the objective and the alignment shared one sweep
    rng = np.random.default_rng(70)
    q = block_diagonal_q(rng, 2, 2)
    mix = random_mixture(rng, 2, 2, 3)
    emp = gm_sample(mix, seed=12, m=20000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=3, restarts=4), q=q)
    assert [v.hex() for v in res.estimate.data] == [
        "-0x1.1c98cb78fe6eap+2", "-0x1.e20dd3ebba95dp+1",
        "-0x1.b809ca0cc6283p+0", "-0x1.5dd192a761b08p+0"]
    assert (res.iterations, res.converged, res.restarts_used) == (8, True, 4)
    assert res.empirical_mospa.hex() == "0x1.573b1f6630ab0p+5"
    assert [v.hex() for v in res.descent_trace] == [
        "0x1.5ce2595e8e486p+5", "0x1.57b41035a4c83p+5", "0x1.57450abb5478ep+5",
        "0x1.573b7b4d2ef50p+5", "0x1.573b255fc52a4p+5", "0x1.573b1fa3648c2p+5",
        "0x1.573b1f6630ab0p+5", "0x1.573b1f6630ab0p+5"]


def test_mmospa_unweighted_multi_block_run_is_pinned():
    # the README scenario at m = 200 000: three full sample blocks and a
    # partial fourth; bits recorded from the two-pass step
    sc = parse_scenario(README_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, 200_000)
    assert -(-len(emp) // estimation._CHUNK) == 4
    res = mmospa_estimate(emp, config=MmospaConfig(seed=mospa_rng.derive_seed(sc.seed, 11)))
    assert [v.hex() for v in res.estimate.data] == ["-0x1.1ffc7b31d9341p-1", "0x1.21fc22e46af08p-1"]
    assert (res.iterations, res.converged, res.restarts_used) == (2, True, 16)
    assert res.empirical_mospa.hex() == "0x1.5e4620496f9f1p+0"
    assert [v.hex() for v in res.descent_trace] == ["0x1.5e4620496f9f1p+0", "0x1.5e4620496f9f1p+0"]


def test_mmospa_unweighted_planar_pair_run_is_pinned():
    # two planar targets without Q: the alignment's costs are dim-4 einsum
    # sweeps over two atoms; bits recorded from the argmin step
    sc = parse_scenario(WEIGHTED_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, sc.sample_count)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=mospa_rng.derive_seed(sc.seed, 11)))
    assert [v.hex() for v in res.estimate.data] == [
        "-0x1.cfd8d9dbfcda2p+0", "0x1.318e1a9f5e754p+0",
        "0x1.cf0e4b3ad8baep+0", "-0x1.fe8e65d697e7ap-1"]
    assert (res.iterations, res.converged, res.restarts_used) == (3, True, 16)
    assert res.empirical_mospa.hex() == "0x1.a81e5bf1944b6p+1"
    assert [v.hex() for v in res.descent_trace] == [
        "0x1.a81eabd4bf9f2p+1", "0x1.a81e5bf1944b6p+1", "0x1.a81e5bf1944b6p+1"]


def test_mmospa_weighted_multi_block_run_is_pinned():
    # the weighted scenario at m = 150 001: two full sample blocks and a
    # partial third, whose normal-equation sums are taken block by block
    sc = parse_scenario(WEIGHTED_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, 150_001)
    assert -(-len(emp) // estimation._CHUNK) == 3
    res = mmospa_estimate(emp, config=MmospaConfig(seed=3, restarts=4), q=sc.q_matrix)
    assert [v.hex() for v in res.estimate.data] == [
        "-0x1.eae02f937ca30p+0", "0x1.084358fe07944p+0",
        "0x1.b86a3c7ac0850p+0", "-0x1.1dbcb8304fc2cp+0"]
    assert (res.iterations, res.converged, res.restarts_used) == (4, True, 4)
    assert res.empirical_mospa.hex() == "0x1.fb471e6ebb1f6p+1"
    assert [v.hex() for v in res.descent_trace] == [
        "0x1.fb515cabf9b32p+1", "0x1.fb471ee9cbd47p+1",
        "0x1.fb471e6ebb1f6p+1", "0x1.fb471e6ebb1f6p+1"]


def test_mmospa_weighted_scalar_pair_run_is_pinned():
    # two scalar targets under a diagonal Q: the alignment's costs are
    # weighted dim-2 point-to-atom sweeps; bits recorded from the einsum kernel
    rng = np.random.default_rng(23)
    q = block_diagonal_q(rng, 2, 1)
    mix = random_mixture(rng, 2, 1, 3, spread=1.5)
    emp = gm_sample(mix, seed=5, m=20000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=4, restarts=4), q=q)
    assert [v.hex() for v in res.estimate.data] == ["-0x1.1f0f76736e98cp+0", "0x1.5683b990cca0ap-1"]
    assert (res.iterations, res.converged, res.restarts_used) == (8, True, 4)
    assert res.empirical_mospa.hex() == "0x1.b1dacb200fdbcp+1"
    assert [v.hex() for v in res.descent_trace] == [
        "0x1.b1ff0e24d4c1ap+1", "0x1.b1e27f92020b4p+1", "0x1.b1dbf0b1b30f6p+1",
        "0x1.b1daee7caa933p+1", "0x1.b1dad4e07a39ap+1", "0x1.b1dacdd4f5ea4p+1",
        "0x1.b1dacb200fdbcp+1", "0x1.b1dacb200fdbcp+1"]


def test_mmospa_five_target_run_is_pinned():
    # five planar targets, aligned by the assignment kernel; bits recorded
    # from the kernel step, whose objective is mospa_mc's at the estimate
    rng = np.random.default_rng(55)
    emp = gm_sample(random_mixture(rng, 5, 2, 3), seed=7, m=3000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=5, restarts=4))
    assert [v.hex() for v in res.estimate.data] == [
        "-0x1.0299e762a29acp+2", "-0x1.401a64ffb83d7p+1", "-0x1.1e39dfb16e058p+0",
        "0x1.0a80f93a10c06p+2", "0x1.4a6cc4260c5eap-1", "-0x1.7928f61e651bdp+2",
        "0x1.c6e8f3325a11ap-1", "-0x1.b76e3d2d17e49p-1", "0x1.800f699ee504ap+2",
        "-0x1.f92416c464255p-1"]
    assert (res.iterations, res.converged, res.restarts_used) == (28, True, 4)
    assert res.empirical_mospa.hex() == "0x1.c5f4c2d712aa6p+6"
    assert [v.hex() for v in res.descent_trace] == [
        "0x1.00b4b2a44ca75p+7", "0x1.db61c7e4349fdp+6", "0x1.cb60899267fdap+6",
        "0x1.c9174e5187f1dp+6", "0x1.c836eb5773724p+6", "0x1.c7886afe457dcp+6",
        "0x1.c70d1ff462234p+6", "0x1.c6c1464382fbdp+6", "0x1.c68dc1b86c294p+6",
        "0x1.c66cc61ecf14cp+6", "0x1.c651ec444a6cap+6", "0x1.c63e5420801fap+6",
        "0x1.c62cb90030527p+6", "0x1.c61d8fefdf7cap+6", "0x1.c61370bc6b8abp+6",
        "0x1.c60bdddaf7541p+6", "0x1.c60500cdf2950p+6", "0x1.c5fdbb6c027eap+6",
        "0x1.c5f800c236608p+6", "0x1.c5f652182330ap+6", "0x1.c5f5b9dc048bap+6",
        "0x1.c5f59bab9ff8bp+6", "0x1.c5f5178e3facep+6", "0x1.c5f4da01ab09cp+6",
        "0x1.c5f4c7888f738p+6", "0x1.c5f4c45630df4p+6", "0x1.c5f4c2d712aa6p+6",
        "0x1.c5f4c2d712aa6p+6"]
    assert mospa_mc(emp, res.estimate).value.hex() == res.empirical_mospa.hex()


def test_weighted_mospa_mc_is_pinned():
    # the weighted scenario's d = 2 block costs under its slot forms; bits
    # recorded from the einsum kernel
    sc = parse_scenario(WEIGHTED_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, sc.sample_count)
    est = mospa_mc(emp, StackedState(2, 2, [-2.0, 1.0, 2.0, -1.0]), q=sc.q_matrix)
    assert (est.value.hex(), est.std_error.hex()) == ("0x1.07d1ec0edf326p+2", "0x1.9f72af9357707p-6")


def _record_starts(monkeypatch):
    """Spy on the per-restart descent; returns the list its arguments go to."""
    calls = []
    descend = estimation._lloyd_run

    def spy(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(estimation, "_lloyd_run", spy)
    return calls


def _count_sweeps(monkeypatch):
    """Spy on the descent step; returns the list of the swept estimates' bytes."""
    calls = []
    sweep = estimation._step

    def counting(*args):
        calls.append(args[2].tobytes())
        return sweep(*args)

    monkeypatch.setattr(estimation, "_step", counting)
    return calls


def _unmerged(points, weights, x0, n, d, q, forms, cfg):
    """The descent of one restart with every step swept: (estimate, trace,
    converged)."""
    xh = np.asarray(x0, dtype=float).reshape(-1)
    obj_prev, src = _reference_alignment(points, weights, xh, n, d, q)
    trace, converged = [], False
    for _ in range(cfg.max_iters):
        xh = _average_step(points, weights, src, n, d, forms).reshape(-1)
        obj, src = _reference_alignment(points, weights, xh, n, d, q)
        trace.append(obj)
        if obj_prev - obj < estimation._TOL:
            converged = True
            break
        obj_prev = obj
    return xh, trace, converged


def _degenerate_samples(rng, n, d, kind):
    # quarter-integer coordinates and weights 1/32 keep every mean exact
    if kind == "constant":  # zero std: every restart starts at the mean
        points = np.tile(rng.integers(-12, 12, size=n * d) / 4, (32, 1))
    else:  # four distinct points, each repeated
        points = np.repeat(rng.integers(-12, 12, size=(4, n * d)) / 4, 8, axis=0)
    return EmpiricalMeasure(n, d, points, np.full(32, 1 / 32))


@pytest.mark.parametrize("kind", ["mixture", "constant", "duplicates"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
def test_mmospa_merged_restarts_match_the_unmerged_descent(monkeypatch, n, d, weighted, kind):
    rng = np.random.default_rng(100 * n + 10 * d + weighted)
    q = block_diagonal_q(rng, n, d) if weighted else None
    if kind == "mixture":
        emp = gm_sample(random_mixture(rng, n, d, 3), seed=n + d, m=600)
    else:
        emp = _degenerate_samples(rng, n, d, kind)
    starts = _record_starts(monkeypatch)
    sweeps = _count_sweeps(monkeypatch)
    idle = 0
    for max_iters in (1, 2, 3, 100):
        starts.clear()
        sweeps.clear()
        res = mmospa_estimate(emp, config=MmospaConfig(max_iters=max_iters, seed=n * d, restarts=8),
                              q=q)
        runs = [_unmerged(*args[:8]) for args in starts]
        assert len(runs) == 8
        objs = [trace[-1] for _, trace, _ in runs]
        assert [(o.objective, o.iterations, o.converged) for o in res.restart_outcomes] == [
            (obj, len(trace), converged) for obj, (_, trace, converged) in zip(objs, runs)]
        # each distinct estimate is swept once per call
        assert len(set(sweeps)) == len(sweeps) == sum(o.sweeps for o in res.restart_outcomes)
        idle += sum(o.sweeps == 0 for o in res.restart_outcomes)
        win = min(range(8), key=lambda r: (objs[r], r))  # the first of the smallest
        xh, trace, converged = runs[win]
        expected = estimation._canonical_blocks(xh.reshape(n, d)).reshape(-1)
        assert res.estimate.data.tobytes() == expected.tobytes()
        assert res.empirical_mospa.hex() == objs[win].hex()
        assert (res.iterations, res.converged, res.restarts_used) == (len(trace), converged, 8)
        assert res.descent_trace == tuple(trace)
    if kind == "constant":
        assert idle > 0


def test_mmospa_restarts_merge_on_the_readme_shape(monkeypatch):
    # the README mmospa scenario, at fewer samples: after one averaging step
    # every restart but two is at the step-1 estimate of one of those two,
    # and step 2 repeats step 1; unmerged, the 16 restarts swept 48 times
    sc = parse_scenario(README_SCENARIO)
    emp = gm_sample(sc.mixture, sc.seed, 20000)
    sweeps = _count_sweeps(monkeypatch)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=mospa_rng.derive_seed(sc.seed, 11)))
    outcomes = res.restart_outcomes
    assert sum(1 + o.iterations for o in outcomes) == 48
    assert [o.sweeps for o in outcomes] == [2, 1, 2] + [1] * 13
    assert all(o.objective == res.empirical_mospa for o in outcomes)
    assert len(sweeps) == 2 + 2 + 14  # steps 0-1 of the two, step 0 of the rest


def _constant_samples(point):
    # four equal samples with weight 1/4: every average is exact, so one
    # averaging step lands bit for bit on the sample, as do the later starts
    return EmpiricalMeasure(2, 1, np.tile(point, (4, 1)), np.full(4, 0.25))


def test_mmospa_does_not_merge_into_a_truncated_restart(monkeypatch):
    emp = gm_sample(random_mixture(np.random.default_rng(81), 2, 2, 3), seed=2, m=3000)
    starts = _record_starts(monkeypatch)
    mmospa_estimate(emp, config=MmospaConfig(seed=7, restarts=2))
    start1 = starts[1][2]
    # restart 0 begins where restart 1 does and is cut off at max_iters;
    # restart 1 replays its steps without a sweep and is cut off there too
    sweeps = _count_sweeps(monkeypatch)
    res = mmospa_estimate(emp, init=StackedState(2, 2, start1),
                          config=MmospaConfig(seed=7, restarts=2, max_iters=2))
    first, second = res.restart_outcomes
    assert not first.converged and first.iterations == 2
    assert second == RestartOutcome(first.objective, 2, False, 0)
    assert len(sweeps) == 3


def test_mmospa_does_not_merge_at_the_step_an_earlier_restart_stopped():
    point = np.array([-1.0, 2.0])
    emp = _constant_samples(point)
    # restart 0 stops at step 1, on the sample itself; restart 1 starts there
    # (zero std) and still takes one averaging step of its own
    res = mmospa_estimate(emp, init=StackedState(2, 1, point + 1e-6),
                          config=MmospaConfig(restarts=2))
    first, second = res.restart_outcomes
    assert first == RestartOutcome(0.0, 1, True, 2)
    assert second == RestartOutcome(0.0, 1, True, 0)


def test_mmospa_merges_into_a_restart_that_went_on(monkeypatch):
    point = np.array([-1.0, 2.0])
    emp = _constant_samples(point)
    sweeps = _count_sweeps(monkeypatch)
    res = mmospa_estimate(emp, init=StackedState(2, 1, [-3.0, 5.0]),
                          config=MmospaConfig(restarts=2))
    # restart 0: far start, the sample at step 1, the same estimate at step 2
    # (not swept again); restart 1 starts at the sample and sweeps nothing
    first, second = res.restart_outcomes
    assert first == RestartOutcome(0.0, 2, True, 2)
    assert second == RestartOutcome(0.0, 1, True, 0)
    assert res.descent_trace == (0.0, 0.0)
    assert len(sweeps) == 2


def test_mmospa_stops_at_a_visited_estimate_when_its_own_test_fires(monkeypatch):
    delta = 2.0**-20
    point = np.array([-1.0, 2.0])
    # two samples at +-delta: the mean is the midpoint exactly and the std is
    # delta, so restart 1 starts within ~delta of it
    emp = EmpiricalMeasure(2, 1, [point + delta, point - delta], [0.5, 0.5])
    sweeps = _count_sweeps(monkeypatch)
    res = mmospa_estimate(emp, init=StackedState(2, 1, [-3.0, 5.0]),
                          config=MmospaConfig(restarts=2))
    first, second = res.restart_outcomes
    floor = 2 * delta**2
    assert first == RestartOutcome(floor, 2, True, 2)
    # restart 1 reaches the midpoint at step 1, where restart 0 went on; its
    # own stop test fires there, so it ends after one step, not two, and
    # sweeps only its start
    assert second == RestartOutcome(floor, 1, True, 1)
    assert len(sweeps) == 2 + 1


@pytest.mark.parametrize("field, value", [
    ("restarts", 0), ("restarts", -1), ("max_iters", 0),
    ("seed", -1), ("seed", mospa_rng.MAX_SEED + 1),
])
def test_mmospa_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        MmospaConfig(**{field: value})


def test_mmospa_canonicalization_sorts_blocks():
    mix = two_mode_mixture(0.2)
    emp = gm_sample(mix, seed=14, m=2000)
    res = mmospa_estimate(emp, config=MmospaConfig(seed=0))
    blocks = res.estimate.blocks()
    assert blocks[0, 0] <= blocks[1, 0]


def test_scalar_oracle_collapses_swapped_pairs():
    emp = EmpiricalMeasure(2, 1, [[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5])
    oracle = scalar_sort_oracle(emp)
    assert np.array_equal(oracle.data, [1.0, 2.0])


def test_scalar_oracle_identical_samples():
    emp = EmpiricalMeasure(2, 1, np.tile([[-1.5, 0.25]], (6, 1)), np.full(6, 1 / 6))
    oracle = scalar_sort_oracle(emp)
    # exact up to the rounding of the normalized weighted mean
    assert oracle.data == pytest.approx([-1.5, 0.25], rel=1e-14, abs=1e-14)


def test_scalar_oracle_rejects_vector_targets():
    emp = EmpiricalMeasure(1, 2, [[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        scalar_sort_oracle(emp)


def test_mmospa_rejects_an_init_of_another_shape():
    emp = EmpiricalMeasure(2, 1, [[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match="init shape"):
        mmospa_estimate(emp, init=StackedState(1, 2, [0.0, 1.0]))


def test_mospa_dimension_mismatch():
    emp = EmpiricalMeasure(2, 1, [[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        mospa_mc(emp, StackedState(1, 2, [0.0, 1.0]))
