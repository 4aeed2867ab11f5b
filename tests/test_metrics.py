import numpy as np
import pytest

from conftest import block_diagonal_q, random_x_hat
from mospa import (
    DegenerateEstimateWarning,
    StackedState,
    UnsupportedMetricError,
    gospa,
    ospa,
    permutation_apply,
    permutation_enumerate,
    region_index,
)
from mospa.metrics import batch_region_ranks


def S(*values):
    values = np.asarray(values, dtype=float)
    return StackedState(len(values), 1, values)


def test_ospa_zero_on_exact_permutation():
    assert ospa(S(-4, 3), S(3, -4)) == 0.0


def test_ospa_symmetric_tie_value():
    assert ospa(S(0, 0), S(-4, 3)) == 25.0


def test_ospa_small_perturbation_uses_identity():
    rng = np.random.default_rng(2)
    x_hat = S(-8.0, 0.0, 9.0)
    eps = rng.uniform(-0.01, 0.01, size=3)
    x = StackedState(3, 1, x_hat.data + eps)
    assert ospa(x, x_hat) == pytest.approx(float(np.sum(eps**2)), rel=1e-12)


def test_ospa_invariant_under_estimate_relabeling():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = StackedState(3, 2, rng.normal(size=6))
        x_hat = StackedState(3, 2, rng.normal(size=6))
        base = ospa(x, x_hat)
        for p in permutation_enumerate(3):
            assert ospa(x, permutation_apply(p, x_hat)) == base


def test_ospa_below_mse():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = StackedState(3, 2, rng.normal(size=6, scale=3))
        x_hat = StackedState(3, 2, rng.normal(size=6, scale=3))
        mse = float((x.data - x_hat.data) @ (x.data - x_hat.data))
        assert ospa(x, x_hat) <= mse + 1e-12


def test_gospa_identity_reduces_to_ospa():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = StackedState(2, 2, rng.normal(size=4))
        y = StackedState(2, 2, rng.normal(size=4))
        assert gospa(x, y, np.eye(4)) == ospa(x, y)


def test_gospa_doubles_exactly():
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = StackedState(2, 2, rng.normal(size=4))
        y = StackedState(2, 2, rng.normal(size=4))
        assert gospa(x, y, 2.0 * np.eye(4)) == 2.0 * ospa(x, y)


def test_gospa_hand_weighted_example():
    q = np.diag([4.0, 1.0])
    assert gospa(S(0, 0), S(-4, 3), q) == 52.0


def test_gospa_rejects_bad_weights():
    x, y = S(0, 1), S(1, 0)
    with pytest.raises(ValueError):
        gospa(x, y, -np.eye(2))
    with pytest.raises(ValueError):
        gospa(x, y, np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(UnsupportedMetricError):
        gospa(x, y, np.array([[2.0, 0.3], [0.3, 2.0]]))
    with pytest.raises(ValueError, match="requires a weight matrix"):
        gospa(x, y, None)


def test_region_examples_from_the_two_target_diagram():
    x_hat = S(-4, 3)
    assert region_index(S(-5, 4), x_hat).index == 0
    assert region_index(S(4, -5), x_hat).index == 1
    assert region_index(S(4, -5), x_hat).permutation.mapping == (1, 0)
    # exactly on the swap boundary: lexicographic tie-break picks identity
    assert region_index(S(1, 1), x_hat).index == 0


def test_region_degenerate_estimate_warns():
    with pytest.warns(DegenerateEstimateWarning):
        label = region_index(S(0.5, 2.0), S(1, 1))
    assert label.index == 0


def test_region_label_consistent_with_rank():
    rng = np.random.default_rng(12)
    x_hat = random_x_hat(rng, 3, 2)
    for _ in range(40):
        x = StackedState(3, 2, rng.normal(size=6, scale=4))
        label = region_index(x, x_hat)
        assert 0 <= label.index < 6
        assert label.permutation.rank() == label.index


def test_region_batch_matches_single():
    rng = np.random.default_rng(13)
    x_hat = random_x_hat(rng, 3, 1)
    points = rng.normal(size=(60, 3), scale=4)
    ranks = batch_region_ranks(points, x_hat)
    for i in range(60):
        assert region_index(StackedState(3, 1, points[i]), x_hat).index == ranks[i]


def test_region_boundaries_carry_no_sample_mass():
    # continuous draws never land exactly on a shared region boundary
    from mospa import gm_sample, permuted_atoms
    from conftest import random_mixture

    rng = np.random.default_rng(15)
    mix = random_mixture(rng, 3, 1, 2)
    emp = gm_sample(mix, seed=16, m=5000)
    x_hat = random_x_hat(rng, 3, 1)
    atoms = permuted_atoms(x_hat)
    diff = emp.points[:, None, :] - atoms[None, :, :]
    costs = np.einsum("mkd,mkd->mk", diff, diff)
    two_best = np.partition(costs, 1, axis=1)
    assert np.all(two_best[:, 1] - two_best[:, 0] > 0.0)


def test_region_invariant_under_positive_weight_scaling():
    rng = np.random.default_rng(14)
    q = block_diagonal_q(rng, 2, 2)
    x_hat = random_x_hat(rng, 2, 2)
    for _ in range(100):
        x = StackedState(2, 2, rng.normal(size=4, scale=4))
        assert region_index(x, x_hat, q).index == region_index(x, x_hat, 2.0 * q).index
        assert gospa(x, x_hat, 2.0 * q) == 2.0 * gospa(x, x_hat, q)
