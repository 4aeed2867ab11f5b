"""The paper's MMOSPA theorem, checked by the transport route.

An MMOSPA estimate x̂ is the mass-weighted, un-permuted centroid of the
optimal transport cells from the sample to its region measure ν.  The route
here shares no code with the descent's own step: it solves the transport
problem with the simplex, takes the barycentre of the mass that the plan
sends to each kept atom σ, maps block i of that barycentre back to the x̂
block that σ puts in slot i, and averages by ν_σ.  With a block-diagonal Q
each estimate block solves the slot-form normal equations instead:
Σ_σ ν_σ F_i x_j = Σ_σ ν_σ F_i b_σi over the pairs (σ, i) that send sample
block i to estimate block j, F_i the block of Q at slot i.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import block_diagonal_q, random_mixture
from mospa import (
    DiscreteMeasure,
    build_region_measure,
    estimate_region_masses,
    gm_sample,
    mmospa_estimate,
    parse_scenario,
    solve_transport,
)
from mospa.quadform import target_block_forms
from mospa.states import permutation_array

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

# bound on |x̂ - centroid| / scale; the simplex's flows are exact to rounding,
# and the cases below read at most 2.8e-15
_RTOL = 1e-12


def transport_centroid(samples, x_hat, q=None):
    """x̂ rebuilt from the optimal plan to its own region measure."""
    n, d = x_hat.n_targets, x_hat.state_dim
    nu = build_region_measure(x_hat, estimate_region_masses(samples, x_hat, q))
    # solved on the atoms that carry mass, as solve_transport would keep them:
    # at n = 8 all 8! atoms would exceed its dense cap
    kept = np.flatnonzero(nu.masses > 0)
    support = DiscreteMeasure(n, d, nu.atoms[kept], nu.masses[kept])
    flows = solve_transport(samples, support, q).plan.flows
    inv = np.argsort(permutation_array(n), axis=1)
    forms = np.broadcast_to(np.eye(d), (n, d, d)) if q is None else target_block_forms(q, n, d)
    lhs = np.zeros((n, d, d))
    rhs = np.zeros((n, d))
    for col, p in enumerate(kept):
        bary = (flows[:, col] @ samples.points / flows[:, col].sum()).reshape(n, d)
        # atom p puts x̂ block perm[p][i] in slot i, so x̂ block j meets
        # sample block inv[p][j]
        src = inv[p]
        lhs += nu.masses[p] * forms[src]
        rhs += nu.masses[p] * np.einsum("jde,je->jd", forms[src], bary[src])
    return np.linalg.solve(lhs, rhs[..., None])[..., 0].reshape(-1)


def _scenario_case(name, m, with_q):
    scen = parse_scenario(SCENARIOS / name)
    return gm_sample(scen.mixture, scen.seed, m), scen.q_matrix if with_q else None


def _random_case(seed, n, d, m, with_q):
    rng = np.random.default_rng(seed)
    mix = random_mixture(rng, n, d, 2, spread=3.0)
    return gm_sample(mix, seed, m), block_diagonal_q(rng, n, d) if with_q else None


CASES = {
    "fig1": lambda: _scenario_case("fig1.json", 2000, False),
    "weighted_pair": lambda: _scenario_case("weighted_pair.json", 2000, False),
    "weighted_pair-q": lambda: _scenario_case("weighted_pair.json", 2000, True),
    "n3-d2": lambda: _random_case(31, 3, 2, 600, False),
    "n3-d2-q": lambda: _random_case(32, 3, 2, 600, True),
    "n4-d1": lambda: _random_case(41, 4, 1, 600, False),
    "n4-d2-q": lambda: _random_case(42, 4, 2, 600, True),
    "n5-d1": lambda: _random_case(51, 5, 1, 500, False),
    "n5-d1-q": lambda: _random_case(52, 5, 1, 500, True),
    "eight_targets": lambda: _scenario_case("eight_targets.json", 1000, False),
}


@pytest.mark.parametrize("case", CASES)
def test_mmospa_estimate_is_the_centroid_of_its_transport_cells(case):
    samples, q = CASES[case]()
    result = mmospa_estimate(samples, q=q)
    assert result.converged
    x_hat = result.estimate
    centroid = transport_centroid(samples, x_hat, q)
    scale = np.abs(x_hat.data).max()
    assert np.abs(centroid - x_hat.data).max() <= _RTOL * scale
