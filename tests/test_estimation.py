import math
import tracemalloc

import numpy as np
import pytest

from conftest import block_diagonal_q, random_mixture, two_mode_mixture
from mospa import (
    EmpiricalMeasure,
    GaussianMixture,
    MmospaConfig,
    StackedState,
    gm_sample,
    mmospa_estimate,
    mospa_mc,
    permutation_apply,
    permutation_enumerate,
    scalar_sort_oracle,
)
from mospa import estimation, quadform, rng as mospa_rng
from mospa.estimation import _alignment_pass
from mospa.quadform import row_chunks
from mospa.states import _atom_index_matrix


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
    # one sweep at the start, then one per averaging step: the sweep that
    # scores an estimate also aligns the samples for the next step
    calls = []
    kernel = estimation.point_cost_matrix

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(estimation, "point_cost_matrix", counting)
    emp = gm_sample(random_mixture(np.random.default_rng(80), 2, 2, 3), seed=6, m=5000)
    assert len(list(row_chunks(len(emp), 2, emp.dim))) == 1  # one cost chunk per sweep
    res = mmospa_estimate(emp, config=MmospaConfig(seed=4, restarts=1))
    assert res.iterations >= 3
    assert calls == [len(emp)] * (1 + res.iterations)


@pytest.mark.parametrize("weighted", [False, True])
def test_alignment_pass_is_independent_of_the_cost_chunk(monkeypatch, weighted):
    rng = np.random.default_rng(90)
    q = block_diagonal_q(rng, 3, 2) if weighted else None
    emp = gm_sample(random_mixture(rng, 3, 2, 3), seed=8, m=5000)
    atoms = rng.normal(size=6)[_atom_index_matrix(3, 2)]
    assert len(list(row_chunks(len(emp), *atoms.shape))) == 1
    obj, best = _alignment_pass(emp.points, emp.weights, atoms, q)
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", 8 * atoms.size * 7)  # 7 rows a chunk
    chunked_obj, chunked_best = _alignment_pass(emp.points, emp.weights, atoms, q)
    assert chunked_obj.hex() == obj.hex()
    assert np.array_equal(chunked_best, best)


def test_mmospa_memory_is_bounded_by_the_chunk():
    # n = 6: 720 atoms, so a sweep of 65536-row cost chunks peaked at 124 MB
    emp = gm_sample(random_mixture(np.random.default_rng(91), 6, 1, 2), seed=3, m=20000)
    tracemalloc.start()
    try:
        res = mmospa_estimate(emp, config=MmospaConfig(restarts=1, max_iters=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert res.empirical_mospa == pytest.approx(mospa_mc(emp, res.estimate).value, rel=1e-9)


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


@pytest.mark.parametrize("field, value", [
    ("restarts", 0), ("restarts", -1), ("max_iters", 0),
    ("tol", -1e-12), ("tol", math.nan), ("tol", math.inf),
    ("restart_scale", -0.5), ("restart_scale", math.nan), ("restart_scale", math.inf),
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


def test_mospa_dimension_mismatch():
    emp = EmpiricalMeasure(2, 1, [[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        mospa_mc(emp, StackedState(1, 2, [0.0, 1.0]))
