import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from conftest import (
    block_diagonal_q,
    normalized_weights,
    random_mixture,
    random_x_hat,
    two_mode_mixture,
)
from mospa import (
    DiscreteMeasure,
    EmpiricalMeasure,
    Scenario,
    StackedState,
    TransportPlan,
    build_region_measure,
    coupling_cost,
    estimate_region_masses,
    gm_sample,
    mospa_mc,
    solve_assignment,
    solve_transport,
    verify_mospa_wasserstein,
    w2_squared,
)
from mospa import transport
from mospa.geometry import WeightedSites, power_costs
from mospa.states import permuted_atoms
from mospa.transport import _transportation_simplex


def linprog_transport_cost(cost, a, b):
    """Independent exact LP oracle (dual simplex on the same instance)."""
    m, k = cost.shape
    row_idx = np.repeat(np.arange(m), k)
    col_idx = np.tile(np.arange(k), m) + m
    var = np.arange(m * k)
    A_eq = sparse.coo_matrix(
        (np.ones(2 * m * k), (np.concatenate([row_idx, col_idx]), np.concatenate([var, var]))),
        shape=(m + k, m * k),
    ).tocsr()
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def random_instance(rng, m, k):
    cost = rng.random((m, k)) * rng.uniform(0.5, 20)
    a = normalized_weights(rng, m)
    b = normalized_weights(rng, k)
    return cost, a, b


def random_feasible_plan(a, b, rng):
    """Northwest-corner fill under random row/column orders: a basic plan."""
    m, k = len(a), len(b)
    rows, cols = rng.permutation(m), rng.permutation(k)
    flows = np.zeros((m, k))
    ra, rb = a.copy(), b.copy()
    i = j = 0
    while i < m and j < k:
        r, c = rows[i], cols[j]
        t = min(ra[r], rb[c])
        flows[r, c] += t
        ra[r] -= t
        rb[c] -= t
        if ra[r] <= rb[c]:
            i += 1
        else:
            j += 1
    return flows


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 3), (4, 4), (6, 4), (7, 5)])
def test_simplex_matches_linprog(shape):
    rng = np.random.default_rng(sum(shape))
    m, k = shape
    for _ in range(40):
        cost, a, b = random_instance(rng, m, k)
        flows, u, v, _ = _transportation_simplex(cost, a, b)
        mine = float(np.sum(flows * cost))
        oracle = linprog_transport_cost(cost, a, b)
        assert abs(mine - oracle) <= 1e-9 * max(1.0, oracle)
        assert np.abs(flows.sum(axis=1) - a).max() <= 1e-9
        assert np.abs(flows.sum(axis=0) - b).max() <= 1e-9
        # strong duality and dual feasibility
        assert abs(float(a @ u + b @ v) - mine) <= 1e-9 * max(1.0, mine)
        assert (cost - u[:, None] - v[None, :]).min() >= -1e-9


def test_simplex_matches_linprog_medium():
    rng = np.random.default_rng(77)
    cost, a, b = random_instance(rng, 400, 12)
    flows, _, _, _ = _transportation_simplex(cost, a, b)
    mine = float(np.sum(flows * cost))
    oracle = linprog_transport_cost(cost, a, b)
    assert abs(mine - oracle) <= 1e-9 * max(1.0, oracle)


def test_simplex_uniform_square_matches_assignment():
    # uniform marginals on n x n: optimal transport = optimal assignment / n
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        cost = rng.random((n, n)) * 10
        a = np.full(n, 1.0 / n)
        flows, _, _, _ = _transportation_simplex(cost, a, a.copy())
        mine = float(np.sum(flows * cost))
        _, assign_cost = solve_assignment(cost)
        assert abs(mine - assign_cost / n) <= 1e-12 * max(1.0, assign_cost)


def test_simplex_tiny_cost_scale():
    # the solver's tolerances are proportional to the cost scale, so problems
    # whose whole objective sits near 1e-9 are still solved exactly; the LP
    # oracle needs the instance rescaled into its absolute-tolerance regime
    rng = np.random.default_rng(88)
    for _ in range(20):
        cost = rng.random((15, 6)) * 1e-8
        a = normalized_weights(rng, 15)
        b = normalized_weights(rng, 6)
        flows, _, _, _ = _transportation_simplex(cost, a, b)
        mine = float(np.sum(flows * cost))
        oracle = linprog_transport_cost(cost * 1e8, a, b) / 1e8
        assert abs(mine - oracle) <= 1e-9 * oracle


def test_simplex_degenerate_uniform_marginals():
    # heavily tied flows: every marginal equal
    rng = np.random.default_rng(66)
    cost = rng.random((64, 8))
    a = np.full(64, 1 / 64)
    b = np.full(8, 1 / 8)
    flows, _, _, _ = _transportation_simplex(cost, a, b)
    assert abs(float(np.sum(flows * cost)) - linprog_transport_cost(cost, a, b)) <= 1e-9


def test_transport_self_coupling_is_free():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 2))
    emp = EmpiricalMeasure(1, 2, pts, np.full(30, 1 / 30))
    nu = DiscreteMeasure(1, 2, pts, np.full(30, 1 / 30))
    sol = solve_transport(emp, nu)
    plan, cost = sol.plan, sol.cost
    assert cost <= 1e-12
    assert np.allclose(plan.flows, np.diag(np.full(30, 1 / 30)), atol=1e-12)


def test_transport_forced_plan():
    emp = EmpiricalMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure(1, 1, [[0.5]], [1.0])
    sol = solve_transport(emp, nu)
    plan, cost = sol.plan, sol.cost
    assert cost == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(plan.flows, [[0.5], [0.5]])


def test_w2_single_atom_formula():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(50, 3), scale=2)
    emp = EmpiricalMeasure(1, 3, pts, np.full(50, 1 / 50))
    atom = np.array([0.5, -1.0, 2.0])
    nu = DiscreteMeasure(1, 3, atom[None, :], [1.0])
    expected = float(emp.weights @ np.einsum("md,md->m", pts - atom, pts - atom))
    assert w2_squared(emp, nu) == pytest.approx(expected, rel=1e-12)


def test_w2_zero_against_itself_as_discrete():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20, 2))
    emp = EmpiricalMeasure(2, 1, pts, np.full(20, 1 / 20))
    nu = DiscreteMeasure(2, 1, pts, np.full(20, 1 / 20))
    assert w2_squared(emp, nu) <= 1e-12


def test_w2_scale_equivariance():
    mix = two_mode_mixture(1.0)
    emp = gm_sample(mix, seed=31, m=400)
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    masses = estimate_region_masses(emp, x_hat)
    nu = build_region_measure(x_hat, masses)
    base = w2_squared(emp, nu)
    emp2 = EmpiricalMeasure(2, 1, 2.0 * emp.points, emp.weights)
    nu2 = DiscreteMeasure(2, 1, 2.0 * nu.atoms, nu.masses)
    assert w2_squared(emp2, nu2) == 4.0 * base


def test_coupling_cost_of_optimal_plan_matches_solver():
    rng = np.random.default_rng(9)
    mix = random_mixture(rng, 2, 1, 2)
    emp = gm_sample(mix, seed=3, m=200)
    x_hat = random_x_hat(rng, 2, 1)
    nu = build_region_measure(x_hat, estimate_region_masses(emp, x_hat))
    sol = solve_transport(emp, nu)
    plan, cost = sol.plan, sol.cost
    assert coupling_cost(plan, emp, nu) == cost


def test_product_coupling_never_beats_optimum():
    rng = np.random.default_rng(10)
    mix = random_mixture(rng, 2, 1, 2)
    emp = gm_sample(mix, seed=4, m=60)
    x_hat = random_x_hat(rng, 2, 1)
    nu = build_region_measure(x_hat, estimate_region_masses(emp, x_hat))
    optimal = solve_transport(emp, nu).cost
    product = TransportPlan(np.outer(emp.weights, nu.masses), emp.weights, nu.masses)
    assert coupling_cost(product, emp, nu) >= optimal - 1e-9


def test_random_feasible_plans_respect_weak_duality():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(25, 2), scale=3)
    emp = EmpiricalMeasure(2, 1, pts, normalized_weights(rng, 25))
    atoms = rng.normal(size=(6, 2), scale=3)
    nu = DiscreteMeasure(2, 1, atoms, normalized_weights(rng, 6))
    optimal = solve_transport(emp, nu).cost
    for _ in range(100):
        flows = random_feasible_plan(emp.weights, nu.masses, rng)
        plan = TransportPlan(flows, emp.weights, nu.masses)
        assert coupling_cost(plan, emp, nu) >= optimal - 1e-9


def test_coupling_cost_rejects_infeasible_plan():
    emp = EmpiricalMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.5])
    bad = TransportPlan(np.eye(2) * 0.5, [0.5, 0.5], [0.5, 0.5])
    skewed = DiscreteMeasure(1, 1, [[0.0], [1.0]], [0.25, 0.75])
    with pytest.raises(ValueError, match="column"):
        coupling_cost(bad, emp, skewed)


def test_transport_marginal_validation():
    emp = EmpiricalMeasure(1, 1, [[0.0]], [1.0])
    with pytest.raises(ValueError):
        solve_transport(emp, DiscreteMeasure(1, 2, [[0.0, 1.0]], [1.0]))


def test_oversize_transport_is_refused_up_front():
    # 1000 x 40320 = 4.0e7 cost entries: five dense arrays would need 1.6 GB
    rng = np.random.default_rng(15)
    x_hat = random_x_hat(rng, 8, 1)
    nu = DiscreteMeasure(8, 1, permuted_atoms(x_hat), np.full(40320, 1 / 40320))
    emp = gm_sample(random_mixture(rng, 8, 1, 1), seed=5, m=1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            solve_transport(emp, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_coupling_cost_applies_the_transport_cap(monkeypatch):
    emp = EmpiricalMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure(1, 1, [[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    plan = TransportPlan(np.outer(emp.weights, nu.masses), emp.weights, nu.masses)
    monkeypatch.setattr(transport, "_MAX_COST_ENTRIES", 5)
    with pytest.raises(ValueError, match="cap"):
        coupling_cost(plan, emp, nu)
    with pytest.raises(ValueError, match="cap"):
        solve_transport(emp, nu)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
def test_sink_potentials_are_power_diagram_weights(n, d):
    # complementary slackness: a sample sends mass only to sinks that
    # minimise c_ij - v_j, so it lies in that sink's cell of the power
    # diagram with sites at the atoms and additive weights -v.  Split samples
    # sit on a cell boundary, so the test compares costs, not cell indices.
    rng = np.random.default_rng(100 + 10 * n + d)
    x_hat = random_x_hat(rng, n, d)
    atoms = permuted_atoms(x_hat)
    masses = rng.dirichlet(np.ones(len(atoms)))
    nu = DiscreteMeasure(n, d, atoms, masses / masses.sum())
    emp = gm_sample(random_mixture(rng, n, d, 2), seed=n + d, m=400)
    sol = solve_transport(emp, nu)
    keep = nu.masses > 0.0
    sites = WeightedSites(atoms[keep], -sol.sink_potentials[keep])
    scores = power_costs(emp.points, sites)
    flows = sol.plan.flows[:, keep]
    best = scores.min(axis=1)
    tol = 1e-9 * max(1.0, np.abs(scores).max())
    i, j = np.nonzero(flows > 0.0)
    assert len(i) >= len(emp)
    assert np.all(scores[i, j] <= best[i] + tol)


def test_same_sample_identity_exact(fig_mixture, fig_x_hat):
    scen = Scenario(2, 1, fig_mixture, seed=20, sample_count=2000)
    report = verify_mospa_wasserstein(scen, fig_x_hat, mode="same-sample")
    assert report.passed
    assert report.rel_diff <= 1e-8
    assert report.abs_diff == abs(report.mospa_value - report.w2_squared)


def test_same_sample_identity_single_target_degenerate():
    mix = random_mixture(np.random.default_rng(12), 1, 2, 2)
    scen = Scenario(1, 2, mix, seed=5, sample_count=500)
    x_hat = StackedState(1, 2, [0.5, -0.5])
    report = verify_mospa_wasserstein(scen, x_hat)
    assert report.abs_diff == 0.0
    assert report.passed


def test_same_sample_identity_weighted(fig_mixture, fig_x_hat):
    rng = np.random.default_rng(13)
    q = block_diagonal_q(rng, 2, 1)
    scen = Scenario(2, 1, fig_mixture, seed=21, sample_count=1000)
    report = verify_mospa_wasserstein(scen, fig_x_hat, q=q)
    assert report.passed
    # cross-check both sides against direct evaluations
    emp = gm_sample(fig_mixture, __import__("mospa.rng", fromlist=["derive_seed"]).derive_seed(21, 1), 1000)
    assert report.mospa_value == mospa_mc(emp, fig_x_hat, q).value


def test_independent_mode_statistical(fig_mixture, fig_x_hat):
    scen = Scenario(2, 1, fig_mixture, seed=22, sample_count=20000)
    report = verify_mospa_wasserstein(scen, fig_x_hat, mode="independent")
    assert report.passed
    assert report.mode == "independent"
    assert report.tolerance > 0
    assert report.w2_std_error is not None


def test_independent_mode_weighted(fig_mixture, fig_x_hat):
    rng = np.random.default_rng(14)
    q = block_diagonal_q(rng, 2, 1)
    scen = Scenario(2, 1, fig_mixture, seed=23, sample_count=20000)
    report = verify_mospa_wasserstein(scen, fig_x_hat, mode="independent", q=q)
    assert report.passed


def test_verify_rejects_unknown_mode(fig_mixture, fig_x_hat):
    scen = Scenario(2, 1, fig_mixture, seed=1, sample_count=100)
    with pytest.raises(ValueError):
        verify_mospa_wasserstein(scen, fig_x_hat, mode="bootstrap")


def test_solution_potentials_certify_optimality():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 2), scale=3)
    emp = EmpiricalMeasure(2, 1, pts, normalized_weights(rng, 40))
    atoms = rng.normal(size=(6, 2), scale=3)
    masses = normalized_weights(rng, 6)
    masses[0] += masses[2]
    masses[2] = 0.0  # dropped before the solve
    nu = DiscreteMeasure(2, 1, atoms, masses)
    sol = solve_transport(emp, nu)
    assert isinstance(sol.pivots, int) and sol.pivots >= 0
    u, v = sol.source_potentials, sol.sink_potentials
    assert u.shape == (40,) and v.shape == (6,)
    assert np.isnan(v[2]) and np.all(np.isfinite(np.delete(v, 2)))
    keep = masses > 0
    cost = ((pts[:, None, :] - atoms[None, keep, :]) ** 2).sum(axis=2)
    assert (cost - u[:, None] - v[None, keep]).min() >= -1e-9
    dual = float(emp.weights @ u + masses[keep] @ v[keep])
    assert abs(dual - sol.cost) <= 1e-9 * max(1.0, sol.cost)
    assert sol.cost == pytest.approx(linprog_transport_cost(cost, emp.weights, masses[keep]),
                                     rel=1e-9)


def test_independent_verify_checks_the_certificate(monkeypatch, fig_mixture, fig_x_hat):
    import mospa.transport as transport

    solve = transport._transportation_simplex

    def shifted_duals(cost, a, b):
        flows, u, v, pivots = solve(cost, a, b)
        return flows, u + 1.0, v, pivots

    scen = Scenario(2, 1, fig_mixture, seed=20, sample_count=500)
    assert verify_mospa_wasserstein(scen, fig_x_hat, mode="independent").passed
    monkeypatch.setattr(transport, "_transportation_simplex", shifted_duals)
    with pytest.raises(RuntimeError, match="certificate"):
        verify_mospa_wasserstein(scen, fig_x_hat, mode="independent")


def _same_sample_instance(seed, n, d, m, with_q):
    rng = np.random.default_rng(seed)
    mixture = random_mixture(rng, n, d)
    x_hat = random_x_hat(rng, n, d)
    q = block_diagonal_q(rng, n, d) if with_q else None
    emp = gm_sample(mixture, seed, m)
    return emp, build_region_measure(x_hat, estimate_region_masses(emp, x_hat, q)), q


def _duplicate_grid_assignment():
    # uniform m = k marginals with repeated sources and integer costs: every
    # basis is degenerate and reduced costs tie exactly
    rng = np.random.default_rng(23)
    sources = rng.integers(0, 4, size=(48, 2)).astype(float)
    sinks = np.stack(np.meshgrid(np.arange(8.0), np.arange(6.0)), axis=-1).reshape(48, 2)
    uniform = np.full(48, 1 / 48)
    return (EmpiricalMeasure(1, 2, sources, uniform),
            DiscreteMeasure(1, 2, sinks, uniform), None)


# pivots and cost.hex() recorded from the full-recomputation simplex: the
# subtree update must follow the same pivot path to the same bits
@pytest.mark.parametrize("build, pivots, cost_hex", [
    (lambda: _same_sample_instance(41, 5, 1, 300, False), 59, "0x1.9eaaa5370e49bp+4"),
    (_duplicate_grid_assignment, 143, "0x1.2c00000000000p+3"),
    (lambda: _same_sample_instance(45, 4, 2, 300, True), 33, "0x1.1d25d4d914b8dp+7"),
], ids=["same-sample-n5d1", "duplicate-grid", "q-weighted-n4d2"])
def test_pivot_path_is_pinned(build, pivots, cost_hex):
    sources, sinks, q = build()
    sol = solve_transport(sources, sinks, q)
    assert (sol.pivots, sol.cost.hex()) == (pivots, cost_hex)
    keep = sinks.masses > 0
    diff = sources.points[:, None, :] - sinks.atoms[None, keep, :]
    qm = np.eye(sources.dim) if q is None else q
    cost = np.einsum("mki,ij,mkj->mk", diff, qm, diff)
    tol = 1e-12 * cost.max()
    slack = cost - sol.source_potentials[:, None] - sol.sink_potentials[None, keep]
    assert np.abs(slack[sol.plan.flows[:, keep] > 0]).max() <= tol
    assert slack.min() >= -tol
    assert 0.0 <= sol.dual_gap <= 1e-7 * max(1.0, sol.cost)
    assert 0.0 < sol.perturbation <= 1e-11 / len(sources) ** 2
