import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_mixture, two_mode_mixture
from mospa import (
    CapacityError,
    DegenerateEstimateWarning,
    DiscreteMeasure,
    EmpiricalMeasure,
    GaussianMixture,
    StackedState,
    TransportPlan,
    build_region_measure,
    estimate_region_masses,
    gm_pdf,
    gm_sample,
)
from mospa import quadform, rng as mospa_rng


def test_gm_rejects_zero_covariance():
    with pytest.raises(np.linalg.LinAlgError, match="component 0"):
        GaussianMixture.from_components(1, 1, [(1.0, [0.0], [[0.0]])])


def test_gm_rejects_near_singular_covariance():
    cov = np.diag([1.0, 1e-14])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        GaussianMixture.from_components(1, 2, [(1.0, [0.0, 0.0], cov)])


def test_gm_rejects_bad_weights():
    with pytest.raises(ValueError):
        GaussianMixture.from_components(1, 1, [(0.6, [0.0], [[1.0]]), (0.5, [1.0], [[1.0]])])


def test_gm_sample_law_of_large_numbers():
    mix = GaussianMixture.from_components(1, 2, [(1.0, [2.0, -1.0], (0.25 * np.eye(2)))])
    m = 40000
    emp = gm_sample(mix, seed=1, m=m)
    bound = 4 * 0.5 / math.sqrt(m)
    assert np.all(np.abs(emp.points.mean(axis=0) - [2.0, -1.0]) < bound)
    assert np.all(emp.weights == 1.0 / m)


def test_gm_sample_component_frequencies():
    mix = GaussianMixture.from_components(2, 1, [
        (0.5, [-4.0, 3.0], (0.01 * np.eye(2))),
        (0.5, [3.0, -4.0], (0.01 * np.eye(2))),
    ])
    m = 20000
    emp = gm_sample(mix, seed=2, m=m)
    near_first = np.sum(emp.points[:, 0] < 0) / m
    assert abs(near_first - 0.5) < 4 * math.sqrt(0.25 / m)


def test_gm_sample_bit_reproducible():
    mix = random_mixture(np.random.default_rng(0), 2, 2, 3)
    a = gm_sample(mix, seed=99, m=512)
    b = gm_sample(mix, seed=99, m=512)
    assert np.array_equal(a.points, b.points)
    c = gm_sample(mix, seed=100, m=512)
    assert not np.array_equal(a.points, c.points)


def test_gm_sample_streams_are_position_independent():
    # sample i depends only on (seed, i), so a shorter run is an exact prefix
    # of a longer one; a sequential generator would interleave draws and fail
    mix = random_mixture(np.random.default_rng(1), 2, 1, 2)
    long = gm_sample(mix, seed=7, m=400)
    short = gm_sample(mix, seed=7, m=150)
    assert np.array_equal(long.points[:150], short.points)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_gm_sample_refuses_a_seed_outside_64_bits(seed):
    # streams are keyed on 64 bits: -1 would alias 2**64 - 1, and 2**64 alias 0
    with pytest.raises(ValueError, match="seed"):
        gm_sample(two_mode_mixture(), seed, 10)


def _whole_sample_draw(mixture, seed, m):
    """Reference draw over whole-sample arrays, one product per component on
    that component's rows (gemv for a one-row component).  Returns (points,
    components)."""
    idx = np.arange(m, dtype=np.uint64)
    thresholds = np.cumsum(mixture.weights)
    thresholds[-1] = 1.0
    comp = np.searchsorted(thresholds, mospa_rng.uniforms(seed, idx, 0), side="left")
    z = mospa_rng.normals(seed, idx, mixture.dim)
    points = np.empty((m, mixture.dim))
    for c in range(mixture.n_components):
        mask = comp == c
        points[mask] = z[mask] @ mixture._chols[c].T + mixture.means[c]
    return points, comp


# dense covariances at dim 4 and 14, with 1, 2 and 3 components
DENSE = [(k, n) for k in (1, 2, 3) for n in (2, 7)]


def _dense_mixture(k, n):
    return random_mixture(np.random.default_rng(10 * k + n), n, 2, k)


@pytest.mark.parametrize("k, n", DENSE)
def test_gm_sample_bytes_do_not_depend_on_the_chunk_budget(monkeypatch, k, n):
    mix = _dense_mixture(k, n)
    default = gm_sample(mix, 11, 301).points.tobytes()
    for rows in (1, 3):
        # gm_sample budgets 2 * dim words a row; 301 rows end in a 1-row chunk
        monkeypatch.setattr(quadform, "_CHUNK_BYTES", rows * 8 * 2 * mix.dim)
        assert gm_sample(mix, 11, 301).points.tobytes() == default


@pytest.mark.parametrize("k, n", DENSE)
def test_gm_sample_prefixes_are_heads_of_a_longer_draw(k, n):
    # a one-row product through gemv once made a 1-sample draw differ
    mix = _dense_mixture(k, n)
    long = gm_sample(mix, 5, 3001).points
    for m in range(1, 18):
        assert gm_sample(mix, 5, m).points.tobytes() == long[:m].tobytes()


@pytest.mark.parametrize("k, n", DENSE)
def test_gm_sample_matches_the_whole_sample_draw(k, n):
    mix = _dense_mixture(k, n)
    expected, comp = _whole_sample_draw(mix, 5, 3001)
    # each component's product ran on >= 2 rows there too, so through gemm
    assert np.bincount(comp, minlength=k).min() >= 2
    assert gm_sample(mix, 5, 3001).points.tobytes() == expected.tobytes()


def test_gm_sample_holds_its_output_and_one_chunk():
    # a chunk budgets 2 * dim words a row and Box-Muller's temporaries add a
    # few more (3.45 MiB here); the whole-sample draw held its index,
    # uniforms, normals, masked copies and a copy of the points (25.6 MiB)
    m = 400_000
    tracemalloc.start()
    try:
        emp = gm_sample(two_mode_mixture(), 3, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - emp.points.nbytes - emp.weights.nbytes < 3 * quadform._CHUNK_BYTES


def test_gm_pdf_standard_normal_at_zero():
    mix = GaussianMixture.from_components(1, 1, [(1.0, [0.0], [[1.0]])])
    x = StackedState(1, 1, [0.0])
    assert gm_pdf(mix, x) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_gm_pdf_duplicate_components_collapse():
    single = GaussianMixture.from_components(1, 2, [(1.0, [1.0, 2.0], np.eye(2))])
    double = GaussianMixture.from_components(1, 2, [
        (0.5, [1.0, 2.0], np.eye(2)),
        (0.5, [1.0, 2.0], np.eye(2)),
    ])
    x = StackedState(1, 2, [0.3, -0.7])
    assert gm_pdf(double, x) == pytest.approx(gm_pdf(single, x), rel=1e-12)


def test_gm_pdf_far_tail_stays_positive():
    mix = GaussianMixture.from_components(2, 2, [(1.0, np.zeros(4), np.eye(4))])
    x = StackedState(2, 2, [5.0, 5.0, 5.0, 5.0])
    val = gm_pdf(mix, x)
    assert val > 0.0 and np.isfinite(val)


def test_gm_pdf_dimension_mismatch():
    mix = GaussianMixture.from_components(1, 2, [(1.0, [0.0, 0.0], np.eye(2))])
    with pytest.raises(ValueError):
        gm_pdf(mix, StackedState(1, 1, [0.0]))


def test_region_masses_point_mass_interior():
    # all samples at a strictly interior point of the identity region
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    interior = np.array([-3.8, 2.9])
    emp = EmpiricalMeasure(2, 1, np.tile(interior, (50, 1)), np.full(50, 1 / 50))
    masses = estimate_region_masses(emp, x_hat)
    assert np.array_equal(masses, [1.0, 0.0])


def test_region_masses_symmetric_mixture():
    mix = two_mode_mixture(1.0)
    m = 20000
    emp = gm_sample(mix, seed=3, m=m)
    masses = estimate_region_masses(emp, StackedState(2, 1, [-4.0, 3.0]))
    assert masses.sum() == 1.0
    assert abs(masses[0] - 0.5) < 4 * math.sqrt(0.25 / m)


def test_region_masses_three_targets():
    mix = random_mixture(np.random.default_rng(5), 3, 1, 2)
    emp = gm_sample(mix, seed=6, m=5000)
    x_hat = StackedState(3, 1, [-2.0, 0.5, 3.0])
    masses = estimate_region_masses(emp, x_hat)
    assert masses.shape == (6,)
    assert masses.sum() == 1.0
    assert np.all(masses >= 0)


def test_region_masses_degenerate_estimate_warns():
    emp = EmpiricalMeasure(2, 1, [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.warns(DegenerateEstimateWarning):
        masses = estimate_region_masses(emp, StackedState(2, 1, [2.0, 2.0]))
    assert masses.sum() == 1.0


def test_region_masses_refuse_nine_targets_before_assigning(monkeypatch):
    # 9 targets have 9! = 362880 regions: refused before any sample is ranked
    from mospa import measures

    def unreachable(*args):
        raise AssertionError("samples were assigned")

    monkeypatch.setattr(measures, "batch_region_ranks", unreachable)
    emp = EmpiricalMeasure(9, 1, np.arange(18.0).reshape(2, 9), [0.5, 0.5])
    with pytest.raises(CapacityError, match="target count 9"):
        estimate_region_masses(emp, StackedState(9, 1, np.arange(9.0)))


def test_region_masses_refuse_a_sample_of_another_shape():
    # 2 targets of dimension 3 share the stacked width 6 with 3 targets of dimension 2
    emp = EmpiricalMeasure(2, 3, np.arange(12.0).reshape(2, 6), [0.5, 0.5])
    with pytest.raises(ValueError, match=r"state shapes differ: \(2,3\) vs \(3,2\)"):
        estimate_region_masses(emp, StackedState(3, 2, np.arange(6.0)))


def test_build_region_measure_single_target():
    nu = build_region_measure(StackedState(1, 2, [1.0, 2.0]), [1.0])
    assert len(nu) == 1
    assert np.array_equal(nu.atoms[0], [1.0, 2.0])


def test_build_region_measure_two_targets(fig_x_hat):
    nu = build_region_measure(fig_x_hat, [0.5, 0.5])
    assert np.array_equal(nu.atoms, [[-4.0, 3.0], [3.0, -4.0]])
    assert np.array_equal(nu.masses, [0.5, 0.5])


def test_build_region_measure_keeps_zero_mass_atom(fig_x_hat):
    nu = build_region_measure(fig_x_hat, [1.0, 0.0])
    assert len(nu) == 2
    assert nu.masses[1] == 0.0


def test_build_region_measure_validation(fig_x_hat):
    with pytest.raises(ValueError):
        build_region_measure(fig_x_hat, [0.7, 0.7])
    with pytest.raises(ValueError):
        build_region_measure(fig_x_hat, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        build_region_measure(StackedState(2, 1, [1.0, 1.0]), [0.5, 0.5])


def test_empirical_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.6])
    with pytest.raises(ValueError):
        EmpiricalMeasure(1, 1, [[0.0], [1.0]], [1.2, -0.2])


def test_empirical_measure_copies_a_writable_array():
    pts, w = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
    emp = EmpiricalMeasure(1, 1, pts, w)
    assert pts.flags.writeable and w.flags.writeable
    pts[0, 0], w[0] = 7.0, 7.0
    assert emp.points[0, 0] == 0.0 and emp.weights[0] == 0.5


def test_empirical_measure_copies_a_read_only_view_of_a_writable_base():
    base = np.array([[0.0], [1.0]])
    view = base.view()
    view.setflags(write=False)
    emp = EmpiricalMeasure(1, 1, view, [0.5, 0.5])
    assert not np.shares_memory(emp.points, base)


def test_empirical_measure_keeps_a_frozen_owning_array():
    pts, w = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
    pts.setflags(write=False)
    w.setflags(write=False)
    emp = EmpiricalMeasure(1, 1, pts, w)
    assert np.shares_memory(emp.points, pts) and np.shares_memory(emp.weights, w)


@pytest.mark.parametrize("points, weights, field", [
    ([[0.0], [math.nan]], [0.5, 0.5], "points"),
    ([[0.0], [1.0]], [1.5, -0.5], "weights"),
    ([[0.0], [1.0]], [1.0, 0.0], "weights"),
], ids=["nan-point", "negative-weight", "zero-weight"])
def test_empirical_measure_checks_a_kept_array(points, weights, field):
    pts, w = np.array(points), np.array(weights)
    pts.setflags(write=False)
    w.setflags(write=False)
    with pytest.raises(ValueError, match=field):
        EmpiricalMeasure(1, 1, pts, w)


# `x <= 0` and `abs(total - 1) > tol` are both False for NaN, and an
# infinite variance passes the Cholesky checks, so each of these was once
# accepted and turned later results into NaN
@pytest.mark.parametrize("build, field", [
    (lambda: EmpiricalMeasure(1, 1, [[0.0], [1.0]], [math.nan, 1.0]), "weights"),
    (lambda: DiscreteMeasure(1, 1, [[0.0], [1.0]], [math.nan, 1.0]), "masses"),
    (lambda: GaussianMixture.from_components(1, 1, [(math.nan, [0.0], [[1.0]])]), "weights"),
    (lambda: GaussianMixture.from_components(1, 1, [(1.0, [math.nan], [[1.0]])]), "means"),
    (lambda: GaussianMixture.from_components(1, 1, [(1.0, [0.0], [[math.inf]])]),
     "covariances"),
    (lambda: build_region_measure(StackedState(2, 1, [0.0, 1.0]), [math.nan, 1.0]), "masses"),
    (lambda: TransportPlan(np.full((2, 2), math.nan), [0.5, 0.5], [0.5, 0.5]), "flows"),
], ids=["empirical-weights", "discrete-masses", "mixture-weights", "mixture-means",
        "mixture-covariances", "region-masses", "plan-flows"])
def test_non_finite_values_are_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: GaussianMixture.from_components(
        1, 2, [(1.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])]), "not symmetric",
        id="asymmetric-covariance"),
    pytest.param(lambda: EmpiricalMeasure(1, 1, [[0.0], [1.0]], [1.0]), "equal length",
                 id="empirical-lengths"),
    pytest.param(lambda: DiscreteMeasure(1, 1, [[0.0], [1.0]], [1.0]), "equal length",
                 id="discrete-lengths"),
    pytest.param(lambda: DiscreteMeasure(1, 1, [[0.0], [1.0]], [1.5, -0.5]), "nonnegative",
                 id="negative-mass"),
    pytest.param(lambda: DiscreteMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.25]), "expected 1 within",
                 id="mass-sum"),
    pytest.param(lambda: TransportPlan([[0.75, -0.25], [-0.25, 0.75]], [0.5, 0.5], [0.5, 0.5]),
                 "nonnegative", id="negative-flows"),
    pytest.param(lambda: gm_sample(two_mode_mixture(), 0, 0), "sample count must be positive",
                 id="no-samples"),
])
def test_an_inconsistent_measure_is_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_discrete_measure_rejects_duplicate_atoms():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 1, [[1.0], [1.0]], [0.5, 0.5])
