"""Monte Carlo MOSPA and region masses against the exact two-target closed
forms of two_target_oracle, within the acceptance gate's 4 standard errors.

The mixtures are random (three components, correlated covariances), so a
sampler that draws the wrong covariance, e.g. z @ chol in place of
z @ chol.T, moves both estimates by far more than 4 standard errors."""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import block_diagonal_q, random_mixture, random_x_hat
from mospa import estimate_region_masses, gm_sample, mospa_mc
from two_target_oracle import identity_region_mass, population_mospa

M = 100_000
CASES = [
    pytest.param(1, False, 7, id="d1"),
    pytest.param(1, True, 0, id="d1-q"),
    pytest.param(2, False, 4, id="d2"),
    pytest.param(2, True, 1, id="d2-q"),
]


@lru_cache(maxsize=None)
def _case(d, weighted, seed):
    rng = np.random.default_rng(seed)
    mixture = random_mixture(rng, 2, d, 3, spread=3.0)
    x_hat = random_x_hat(rng, 2, d, spread=3.0)
    q = block_diagonal_q(rng, 2, d) if weighted else None
    return mixture, x_hat, q, gm_sample(mixture, seed, M)


@pytest.mark.parametrize("d, weighted, seed", CASES)
def test_mospa_mc_matches_the_closed_form(d, weighted, seed):
    mixture, x_hat, q, samples = _case(d, weighted, seed)
    est = mospa_mc(samples, x_hat, q)
    assert est.std_error > 0.0
    z = (est.value - population_mospa(mixture, x_hat, q)) / est.std_error
    assert abs(z) <= 4.0


@pytest.mark.parametrize("d, weighted, seed", CASES)
def test_region_masses_match_the_closed_form(d, weighted, seed):
    mixture, x_hat, q, samples = _case(d, weighted, seed)
    p = identity_region_mass(mixture, x_hat, q)
    assert 0.1 < p < 0.9  # both regions carry mass
    masses = estimate_region_masses(samples, x_hat, q)
    z = (masses[0] - p) / math.sqrt(p * (1.0 - p) / M)
    assert abs(z) <= 4.0
