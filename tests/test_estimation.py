import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import block_diagonal_q, random_mixture, two_mode_mixture
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
    assert len(list(row_chunks(len(emp), 2, emp.dim))) == 1  # one cost chunk per sweep
    res = mmospa_estimate(emp, config=MmospaConfig(seed=4, restarts=1))
    assert res.iterations >= 3
    assert res.restart_outcomes[0].sweeps == 6
    assert calls == [len(emp)] * 6


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
    """Spy on the sweep; returns the list of the swept atoms' bytes."""
    calls = []
    sweep = estimation._alignment_pass

    def counting(*args):
        calls.append(args[2].tobytes())
        return sweep(*args)

    monkeypatch.setattr(estimation, "_alignment_pass", counting)
    return calls


def _unmerged(points, weights, x0, n, d, atom_idx, inv_perms, q, forms, cfg):
    """The descent of one restart with every step swept: (estimate, trace,
    converged)."""
    xh = np.asarray(x0, dtype=float).reshape(-1)
    obj_prev, best = _alignment_pass(points, weights, xh[atom_idx], q)
    trace, converged = [], False
    for _ in range(cfg.max_iters):
        xh = estimation._average_step(points, weights, inv_perms[best], n, d, forms).reshape(-1)
        obj, best = _alignment_pass(points, weights, xh[atom_idx], q)
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
        runs = [_unmerged(*args[:10]) for args in starts]
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
    sc = parse_scenario(Path(__file__).resolve().parent.parent / "demos" / "scenarios"
                        / "two_iid_normals.json")
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


def test_mospa_dimension_mismatch():
    emp = EmpiricalMeasure(2, 1, [[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        mospa_mc(emp, StackedState(1, 2, [0.0, 1.0]))
