import sys
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
    stop_at_the_start,
    two_mode_mixture,
)
from mospa import (
    DiscreteMeasure,
    EmpiricalMeasure,
    GaussianMixture,
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
from mospa import rng as counter_rng
from mospa import transport
from mospa.geometry import WeightedSites, power_costs
from mospa.quadform import point_cost_matrix
from mospa.states import permuted_atoms
from mospa.transport import (
    _complete_to_tree,
    _perturbation,
    _resolve_tree_flows,
    _transportation_simplex,
)


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


@pytest.mark.parametrize("flows, match", [
    pytest.param(np.full((2, 1), 0.5), "shape", id="shape"),
    pytest.param(np.diag([0.25, 0.75]), "source marginal", id="row"),
    pytest.param(np.diag([0.5, 0.5]), "sink marginal", id="column"),
])
def test_coupling_cost_rejects_infeasible_plan(flows, match):
    # each plan is feasible for its own marginals, not for these measures
    emp = EmpiricalMeasure(1, 1, [[0.0], [1.0]], [0.5, 0.5])
    skewed = DiscreteMeasure(1, 1, [[0.0], [1.0]], [0.25, 0.75])
    plan = TransportPlan(flows, flows.sum(axis=1), flows.sum(axis=0))
    with pytest.raises(ValueError, match=match):
        coupling_cost(plan, emp, skewed)


@pytest.mark.parametrize("q", [
    pytest.param([[1.0, 0.5], [0.0, 1.0]], id="asymmetric"),
    pytest.param([[1.0, 2.0], [2.0, 1.0]], id="indefinite"),
    pytest.param([[-1.0, 0.0], [0.0, -1.0]], id="negative-definite"),
])
def test_both_transport_entry_points_refuse_a_bad_q(q):
    emp = EmpiricalMeasure(1, 2, [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure(1, 2, [[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])
    plan = TransportPlan(np.outer(emp.weights, nu.masses), emp.weights, nu.masses)
    with pytest.raises(ValueError, match="symmetric|positive definite"):
        coupling_cost(plan, emp, nu, np.array(q))
    with pytest.raises(ValueError, match="symmetric|positive definite"):
        solve_transport(emp, nu, np.array(q))


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


def test_the_dense_cap_admits_exactly_its_entries():
    # 8192 x 4096 = 2**25 entries pass the entry check; one source more does
    # not.  The check reads only the sizes: no cost array is built
    sinks = DiscreteMeasure(1, 1, np.arange(4096.0)[:, None], np.full(4096, 1 / 4096))
    at_cap = EmpiricalMeasure(1, 1, np.zeros((8192, 1)), np.full(8192, 1 / 8192))
    transport._check_pair(at_cap, sinks, None)
    over = EmpiricalMeasure(1, 1, np.zeros((8193, 1)), np.full(8193, 1 / 8193))
    with pytest.raises(ValueError, match="cap"):
        transport._check_pair(over, sinks, None)


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


def test_a_zero_cost_solve_passes_its_certificate():
    # every cost is 0, so the certificate's bound, 1e-12 times the largest
    # cost, is 0 too, and an infeasibility of exactly 0 must pass it
    emp = EmpiricalMeasure(1, 1, np.full((4, 1), 2.0), np.full(4, 0.25))
    sol = solve_transport(emp, DiscreteMeasure(1, 1, [[2.0]], [1.0]))
    assert (sol.cost, sol.pivots, sol.dual_infeasibility) == (0.0, 0, 0.0)


def test_a_simplex_stopped_at_its_start_fails_the_certificate(monkeypatch):
    emp, nu, q = _same_sample_instance(41, 5, 1, 300, False)
    sol = solve_transport(emp, nu, q)
    assert sol.pivots == 59 and sol.dual_infeasibility <= 1e-12 * sol.cost
    stop_at_the_start(monkeypatch)
    # the gap check alone passes this tree; its reduced costs do not
    with pytest.raises(RuntimeError, match="optimality certificate failed: reduced cost -"):
        solve_transport(emp, nu, q)


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


def _lone_sink():
    # the far atom's 1e-15 mass stays below the greedy start's rounding
    # slack, so no source reaches it and tree completion must hang it off
    # the cheapest source
    points = np.random.default_rng(5).normal(size=(30, 1))
    return (EmpiricalMeasure(1, 1, points, np.full(30, 1 / 30)),
            DiscreteMeasure(1, 1, [[-1.0], [0.0], [1.0], [50.0]],
                            [0.3, 0.4 - 1e-15, 0.3, 1e-15]), None)


# pivots and cost.hex() recorded from the full-recomputation simplex (the
# lone-sink case from the union-find tree completion): the subtree update
# and the single basis tree must follow the same pivot path to the same bits
@pytest.mark.parametrize("build, pivots, cost_hex", [
    (lambda: _same_sample_instance(41, 5, 1, 300, False), 59, "0x1.9eaaa5370e49bp+4"),
    (_duplicate_grid_assignment, 143, "0x1.2c00000000000p+3"),
    (lambda: _same_sample_instance(45, 4, 2, 300, True), 33, "0x1.1d25d4d914b8dp+7"),
    (_lone_sink, 9, "0x1.795541424983ep-3"),
], ids=["same-sample-n5d1", "duplicate-grid", "q-weighted-n4d2", "lone-sink"])
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
    assert 0.0 <= sol.dual_infeasibility <= tol
    assert sol.dual_infeasibility == pytest.approx(max(0.0, -slack.min()), rel=0, abs=tol)
    assert 0.0 <= sol.dual_gap <= 1e-7 * max(1.0, sol.cost)
    assert 0.0 < sol.perturbation <= 1e-11 / len(sources) ** 2


@pytest.mark.parametrize("seed, n, d, m, with_q", [(41, 5, 1, 300, False),
                                                   (45, 5, 2, 300, True)])
def test_solving_on_the_support_keeps_cost_duals_and_pivots(seed, n, d, m, with_q):
    emp, nu, q = _same_sample_instance(seed, n, d, m, with_q)
    keep = nu.masses > 0
    assert not keep.all()
    support = DiscreteMeasure(n, d, nu.atoms[keep], nu.masses[keep])
    full, kept = solve_transport(emp, nu, q), solve_transport(emp, support, q)
    assert kept.cost.hex() == full.cost.hex() == w2_squared(emp, nu, q).hex()
    assert kept.pivots == full.pivots
    assert np.array_equal(kept.source_potentials, full.source_potentials)
    assert np.array_equal(kept.sink_potentials, full.sink_potentials[keep])
    assert np.array_equal(kept.plan.flows, full.plan.flows[:, keep])


def _masked_greedy_basis(cost, a, b):
    """The greedy start by one masked argmin per arc."""
    m, k = cost.shape
    res = b.copy()
    avail = res > 0
    arc_i, arc_j, flow = [], [], []
    slack = 1e-14 * a.sum()
    for i in range(m):
        need = a[i]
        while need > slack:
            j = int(np.argmin(np.where(avail, cost[i], np.inf)))
            if not avail[j]:
                break
            take = min(need, res[j])
            arc_i.append(i)
            arc_j.append(j)
            flow.append(take)
            res[j] -= take
            need -= take
            if res[j] <= 0:
                res[j] = 0.0
                avail[j] = False
    return arc_i, arc_j, flow


# the reference's own tree walk, on neighbour lists: it shares no tree code
# with the solver's preorder arrays, so it does not run the code it checks
def _hang(top, adj, pred, pot, cost, m):
    """Set pred and potentials below `top`, whose own are already set,
    walking the basis tree top-down away from pred[top]; returns the nodes
    of the subtree, `top` first.  Each potential follows u_i + v_j = c_ij from
    its parent, so it depends only on the node's path to the root.  Leaves
    are not pushed: they have no children to visit."""
    item = cost.item
    nodes = [top]
    stack = [top]
    while stack:
        x = stack.pop()
        px = pred[x]
        pot_x = pot.item(x)
        for y in adj[x]:
            if y != px:
                pred[y] = x
                pot[y] = (item(y, x - m) if x >= m else item(x, y - m)) - pot_x
                nodes.append(y)
                if len(adj[y]) > 1:
                    stack.append(y)
    return nodes


def _path_to_root(node, pred, m):
    path = [node]
    while node != m:
        node = pred[node]
        path.append(node)
    return path


def _cycle_nodes(enter_i, enter_j, pred, m):
    """Node sequence enter_i .. LCA .. (m+enter_j) through the basis tree.
    Both paths end at the root m, so they always meet."""
    path_a = _path_to_root(enter_i, pred, m)
    path_b = _path_to_root(m + enter_j, pred, m)
    pos = {node: idx for idx, node in enumerate(path_a)}
    for bi, node in enumerate(path_b):
        if node in pos:
            return path_a[: pos[node] + 1] + path_b[:bi][::-1]


# the reference's own peel, on its neighbour lists: the solver peels from
# its arcs' degrees and neighbour-id sums, so the comparison checks one
# against the other
def _peel_on_neighbour_lists(adj, a, b, m, k):
    """Unique flows that the spanning basis tree adj carries for the exact
    marginals a (sources) and b (sinks), by peeling leaves; degenerate arcs
    may pick up tiny negatives, which are clamped after a sanity bound."""
    residual = a.tolist() + b.tolist()
    degree = [len(nbrs) for nbrs in adj]
    out = np.zeros((m, k))
    # peel source leaves before sink leaves: a source leaf's arc carries its
    # exact marginal, which keeps star-shaped bases free of subtraction noise
    src_stack = [n for n in range(m) if degree[n] == 1]
    sink_stack = [n for n in range(m, m + k) if degree[n] == 1]
    while src_stack or sink_stack:
        node = src_stack.pop() if src_stack else sink_stack.pop()
        if degree[node] != 1:
            continue
        # peeled neighbours are at degree 0, so this is the one arc left
        other = next(y for y in adj[node] if degree[y])
        if node < m:
            out[node, other - m] = residual[node]
        else:
            out[other, node - m] = residual[node]
        residual[other] -= residual[node]
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            (src_stack if other < m else sink_stack).append(other)
    if out.min(initial=0.0) < -1e-7:
        raise RuntimeError("degenerate basis produced a materially negative flow")
    np.maximum(out, 0.0, out=out)
    return out


def dense_pricing_simplex(cost, a, b):
    """Reference transportation simplex that prices from a dense (m, k)
    reduced-cost matrix: the rows and columns of the re-hung nodes are
    rewritten after each pivot, basis arcs set to 0, and the entering arc is
    the matrix's row-major first minimum.  Same start, perturbation and pivot
    step as the solver; returns (flows, u, v, pivots)."""
    m, k = cost.shape
    reduced_tol = 1e-13 * max(float(cost.max(initial=0.0)), 1e-300)
    unit = counter_rng.uniforms(transport._PERTURB_SEED, np.arange(m, dtype=np.uint64), 0)
    a_p = a + _perturbation(a) * (1.0 + unit)
    b_p = b.copy()
    b_p[int(np.argmax(b_p))] += a_p.sum() - b_p.sum()
    arc_i, arc_j, flow = _masked_greedy_basis(cost, a_p, b_p)
    adj = [[] for _ in range(m + k)]
    for i, j in zip(arc_i, arc_j):
        adj[i].append(m + j)
        adj[m + j].append(i)
    _complete_to_tree(adj, arc_i, arc_j, flow, cost)
    arc_pos = {(i, j): p for p, (i, j) in enumerate(zip(arc_i, arc_j))}
    arc_i = np.asarray(arc_i, dtype=np.intp)
    arc_j = np.asarray(arc_j, dtype=np.intp)
    flows_b = np.asarray(flow, dtype=float)
    pred = [m] * (m + k)
    pot = np.zeros(m + k)
    sub = _hang(m, adj, pred, pot, cost, m)
    reduced = np.empty_like(cost)
    pivots = 0
    while True:
        sub = np.array(sub)
        rows = sub[sub < m]
        cols = sub[sub >= m] - m
        u = pot[:m].copy()
        v = pot[m:].copy()
        reduced[rows] = cost[rows] - u[rows, None] - v[None, :]
        reduced[:, cols] = cost[:, cols] - u[:, None] - v[None, cols]
        reduced[arc_i, arc_j] = 0.0
        ei, ej = divmod(int(np.argmin(reduced)), k)
        if reduced[ei, ej] >= -reduced_tol:
            break
        pivots += 1
        nodes = _cycle_nodes(ei, ej, pred, m)
        cycle_arcs = []
        for t in range(len(nodes) - 1):
            x, y = nodes[t], nodes[t + 1]
            cycle_arcs.append(arc_pos[(x, y - m) if x < m else (y, x - m)])
        theta_pos = min(cycle_arcs[::2], key=lambda p: (flows_b[p], p))
        theta = flows_b[theta_pos]
        for t, p in enumerate(cycle_arcs):
            flows_b[p] += (-1.0 if t % 2 == 0 else 1.0) * theta
        li, lj = int(arc_i[theta_pos]), int(arc_j[theta_pos])
        del arc_pos[(li, lj)]
        arc_i[theta_pos], arc_j[theta_pos] = ei, ej
        flows_b[theta_pos] = theta
        arc_pos[(ei, ej)] = theta_pos
        t = cycle_arcs.index(theta_pos)
        top, parent = (ei, m + ej) if pred[nodes[t]] == nodes[t + 1] else (m + ej, ei)
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        pred[top] = parent
        pot[top] = cost.item(ei, ej) - pot.item(parent)
        sub = _hang(top, adj, pred, pot, cost, m)
    return _peel_on_neighbour_lists(adj, a, b, m, k), u, v, pivots


@pytest.mark.parametrize("build", [
    lambda: random_instance(np.random.default_rng(12), 40, 7),
    lambda: _integer_costs(np.random.default_rng(13), 120, 24),
    lambda: _two_mode_region_problem(7, 5, 600),
], ids=["real", "integer", "region"])
def test_the_peel_does_not_depend_on_the_order_of_the_arcs(monkeypatch, build):
    peel, final = transport._resolve_tree_flows, []

    def recording(*args):
        final.append(args)
        return peel(*args)

    monkeypatch.setattr(transport, "_resolve_tree_flows", recording)
    _transportation_simplex(*build())
    arc_i, arc_j, a, b = final.pop()
    want = peel(arc_i, arc_j, a, b)
    for seed in range(4):
        shuffle = np.random.default_rng(seed).permutation(arc_i.size)
        got = peel(arc_i[shuffle], arc_j[shuffle], a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _two_mode_region_problem(seed, n, m):
    """(cost, a, b) of a same-sample region problem: two equal modes whose
    target blocks are the same points in reverse order, an estimate near the
    first, the regions' masses from the samples themselves."""
    rng = np.random.default_rng(seed)
    mode = np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.1, 0.1, size=n)
    x_hat = StackedState(n, 1, mode + rng.uniform(-0.1, 0.1, size=n))
    mixture = GaussianMixture.from_components(
        n, 1, [(0.5, mode, np.eye(n)), (0.5, mode[::-1], np.eye(n))])
    emp = gm_sample(mixture, seed, m)
    nu = build_region_measure(x_hat, estimate_region_masses(emp, x_hat))
    keep = nu.masses > 0.0
    return point_cost_matrix(emp.points, nu.atoms[keep]), emp.weights, nu.masses[keep]


@pytest.fixture(scope="module")
def region_problem():
    return _two_mode_region_problem(7, 6, 2000)


def _integer_costs(rng, m, k):
    # few distinct integer costs: exact ties among reduced costs everywhere
    return (rng.integers(0, 4, size=(m, k)).astype(float),
            normalized_weights(rng, m), normalized_weights(rng, k))


@pytest.mark.parametrize("m, k", [(1, 1), (1, 6), (9, 1), (5, 12), (40, 7), (120, 24)])
@pytest.mark.parametrize("integer", [False, True], ids=["real", "integer"])
def test_row_pricing_follows_dense_pricing(m, k, integer):
    rng = np.random.default_rng([m, k, integer])
    for _ in range(6):
        problem = _integer_costs(rng, m, k) if integer else random_instance(rng, m, k)
        for mine, ref in zip(_transportation_simplex(*problem), dense_pricing_simplex(*problem)):
            assert np.array_equal(mine, ref)


def test_row_pricing_follows_dense_pricing_on_a_region_problem(region_problem):
    mine = _transportation_simplex(*region_problem)
    ref = dense_pricing_simplex(*region_problem)
    assert ref[3] > 100  # deep re-hangs, not a handful of pivots
    for got, want in zip(mine, ref):
        assert np.array_equal(got, want)


def test_simplex_memory_is_a_few_cost_matrices(region_problem):
    # beside the caller's cost the solve holds cost.T across the pivots, a
    # row recompute one row chunk at a time, however many rows a selection
    # takes, and a column block of the re-hung sinks (2.3x here); a
    # full-size temporary kept alive across the pivots breaks the bound
    cost, a, b = region_problem
    assert 150 <= cost.shape[1] <= 220
    tracemalloc.start()
    try:
        _transportation_simplex(cost, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * cost.nbytes


def _assert_preorder(tree):
    """The basis tree's preorder arrays agree with each other and with its
    arcs: order and at are inverse, size follows pred, every child's slice
    nests inside its parent's after the parent (with the sizes, each subtree
    is one slice), pred's edges are the basis arcs, and the potentials close
    every basis arc."""
    order, at, pred, size = (tree[name] for name in ("order", "at", "pred", "size"))
    m, nodes = tree["m"], order.size
    assert np.array_equal(np.sort(order), np.arange(nodes))
    assert np.array_equal(at[order], np.arange(nodes))
    assert order[0] == m and size[m] == nodes
    child = np.delete(np.arange(nodes), m)
    parent = pred[child]
    children = np.zeros(nodes, dtype=np.intp)
    np.add.at(children, parent, size[child])
    assert np.array_equal(size, 1 + children)
    assert np.all(at[parent] < at[child])
    assert np.all(at[child] + size[child] <= at[parent] + size[parent])
    edges = {(min(x, y), max(x, y)) for x, y in zip(child.tolist(), parent.tolist())}
    assert edges == set(zip(tree["arc_i"].tolist(), (m + tree["arc_j"]).tolist()))
    cost, pot = tree["cost"], tree["pot"]
    slack = cost[tree["arc_i"], tree["arc_j"]] - pot[tree["arc_i"]] - pot[m + tree["arc_j"]]
    assert np.abs(slack).max() <= 1e-12 * max(1.0, float(cost.max()))


def walk_every_basis(monkeypatch):
    """Check the simplex's tree arrays on its first basis and after every
    pivot, through the pricing selection that follows each, which reads them
    from the caller's frame; returns the list that counts the checks."""
    select, checked = transport._select, []

    def checking(*args):
        _assert_preorder(sys._getframe(1).f_locals)
        checked.append(1)
        return select(*args)

    monkeypatch.setattr(transport, "_select", checking)
    return checked


def test_preorder_arrays_hold_after_every_pivot_of_a_region_problem(monkeypatch,
                                                                     region_problem):
    checked = walk_every_basis(monkeypatch)
    pivots = _transportation_simplex(*region_problem)[3]
    assert pivots >= 100 and len(checked) == pivots + 1


@pytest.mark.parametrize("build", [_lone_sink, _duplicate_grid_assignment],
                         ids=["lone-sink", "duplicate-grid"])
def test_preorder_arrays_hold_after_every_pivot(monkeypatch, build):
    checked = walk_every_basis(monkeypatch)
    sol = solve_transport(*build())
    assert sol.pivots > 0 and len(checked) == sol.pivots + 1


def _dense_first_minimum(cost, u, v, arc_i, arc_j):
    """Each row's least reduced cost (c_ij - u_i) - v_j, basis arcs set to
    0.0, and its first column, from the whole matrix."""
    reduced = (cost - u[:, None]) - v
    reduced[arc_i, arc_j] = 0.0
    arg = reduced.argmin(axis=1)
    return reduced[np.arange(arg.size), arg], arg


def _assert_cache(cost, u, v, arc_i, arc_j, row_min, row_arg, fresh):
    """A fresh row holds its dense first minimum and first column, bit for
    bit, and a stale row a bound at or below its dense minimum; returns the
    dense first minima, their columns and the number of stale rows."""
    want_min, want_arg = _dense_first_minimum(cost, u, v, arc_i, arc_j)
    assert np.array_equal(row_min[fresh].view(np.uint64), want_min[fresh].view(np.uint64))
    assert np.array_equal(row_arg[fresh], want_arg[fresh])
    assert np.all(row_min[~fresh] <= want_min[~fresh])
    return want_min, want_arg, int((~fresh).sum())


def check_every_pivot(monkeypatch):
    """Check the row pricing cache against a dense first minimum of the same
    potentials and basis at every selection, as the refresh left it and as
    the selection leaves it, and check that the selected row and its cached
    column are the row-major first minimum of the whole matrix.  Returns a
    record of the run: the side of every refresh (True where the re-hung
    sinks fell and no column was read), the number of selections and the
    number of stale rows whose bound was checked."""
    select, reprice = transport._select, transport._reprice
    run = {"fell": [], "selections": 0, "stale": 0}

    def checking_select(cost, u, v, arc_i, arc_j, row_min, row_arg, fresh):
        cache = (cost, u, v, arc_i, arc_j, row_min, row_arg, fresh)
        run["stale"] += _assert_cache(*cache)[2]
        ei = select(*cache)
        want_min, want_arg, _ = _assert_cache(*cache)
        # the first least row minimum's first column is the matrix's first
        # least entry in row-major order
        first = int(want_min.argmin())
        assert fresh[ei] and (ei, row_arg[ei]) == (first, want_arg[first])
        run["selections"] += 1
        return ei

    def recording_reprice(*args):
        run["fell"].append(args[-2] is not None)
        reprice(*args)

    monkeypatch.setattr(transport, "_select", checking_select)
    monkeypatch.setattr(transport, "_reprice", recording_reprice)
    return run


def test_row_cache_is_exact_or_a_bound_at_every_pivot_of_a_region_problem(
        monkeypatch, region_problem):
    run = check_every_pivot(monkeypatch)
    pivots = _transportation_simplex(*region_problem)[3]
    assert pivots >= 100 and run["selections"] == len(run["fell"]) + 1 == pivots + 1
    # both refresh rules ran many times, and many bounds were checked
    assert min(sum(run["fell"]), pivots - sum(run["fell"])) >= 20
    assert run["stale"] >= pivots


@pytest.mark.parametrize("build", [_lone_sink, _duplicate_grid_assignment],
                         ids=["lone-sink", "duplicate-grid"])
def test_row_cache_is_exact_or_a_bound_at_every_pivot(monkeypatch, build):
    run = check_every_pivot(monkeypatch)
    sol = solve_transport(*build())
    assert sol.pivots > 0 and run["selections"] == sol.pivots + 1
    assert any(run["fell"]) and not all(run["fell"]) and run["stale"] > 0


def test_row_cache_is_exact_or_a_bound_at_every_pivot_on_integer_costs(monkeypatch):
    run = check_every_pivot(monkeypatch)
    rng = np.random.default_rng(31)
    pivots = sum(_transportation_simplex(*_integer_costs(rng, 120, 24))[3] for _ in range(4))
    assert run["selections"] == pivots + 4
    assert any(run["fell"]) and not all(run["fell"]) and run["stale"] > 0


def test_row_cache_is_exact_or_a_bound_at_every_pivot_at_a_tiny_cost_scale(
        monkeypatch):
    # the instances of test_simplex_tiny_cost_scale: the rounding margin is
    # proportional to the costs and potentials, so it stays a bound here
    run = check_every_pivot(monkeypatch)
    rng = np.random.default_rng(88)
    pivots = 0
    for _ in range(20):
        cost = rng.random((15, 6)) * 1e-8
        pivots += _transportation_simplex(cost, normalized_weights(rng, 15),
                                          normalized_weights(rng, 6))[3]
    assert run["selections"] == pivots + 20
    assert any(run["fell"]) and not all(run["fell"]) and run["stale"] > 0


def test_a_source_without_a_finite_cost_stops_at_the_pivot_cap(monkeypatch):
    # an all-infinite row makes reduced costs and bounds NaN; the selection
    # must still recompute such rows and end, so the pivot cap stops the
    # solve, as it did when every row was recomputed at every pivot.  The cap
    # admits exactly 50 (m + k) + 1000 pivots: each completed pivot reprices
    # once, and the one after the last raises
    repriced = []
    reprice = transport._reprice

    def counting(*args):
        repriced.append(1)
        return reprice(*args)

    monkeypatch.setattr(transport, "_reprice", counting)
    rng = np.random.default_rng(0)
    cost = rng.random((7, 3)) * 10
    cost[2] = np.inf
    a, b = normalized_weights(rng, 7), normalized_weights(rng, 3)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="exceeded 1500"):
        _transportation_simplex(cost, a, b)
    assert len(repriced) == 50 * (7 + 3) + 1000


def test_falling_sinks_refresh_the_leaving_row_and_read_no_column():
    # after a crafted pivot: basis arcs (0, 0), (1, 0), (1, 1), (2, 0); the
    # arc (0, 1) left and (1, 1) entered, and sink 1, re-hung from source 1,
    # is the whole subtree; its potential fell to 1.0.  Row 0's cached first
    # minimum lies outside the subtree's column, but the left arc's entry is
    # live now and below it, so its bound must drop to that entry.  Row 1's
    # cached column is the subtree's, so its minimum is only a bound now, and
    # row 2 keeps its cache: its entry in that column lies above its minimum.
    m = 3
    cost = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
    u, v = np.zeros(3), np.array([0.0, 1.0])
    arc_i, arc_j = np.array([0, 1, 1, 2]), np.array([0, 0, 1, 0])
    row_min, row_arg = np.array([0.0, -0.5, 0.0]), np.array([0, 1, 0])
    fresh = np.ones(3, dtype=bool)
    live = cost[0, 1] - u[0] - v[1]
    assert live < row_min[0] and row_arg[0] != 1
    # cost_t is not passed: on this side no column is read
    transport._reprice(np.array([m + 1]), cost, None, u, v, row_min, row_arg, fresh,
                       0, 1, 1.0, 1e-15)
    assert fresh.tolist() == [False, False, True]
    assert (row_min[0], row_min[1]) == (live, -0.5) and (row_min[2], row_arg[2]) == (0.0, 0)
    cache = (cost, u, v, arc_i, arc_j, row_min, row_arg, fresh)
    _assert_cache(*cache)
    assert transport._select(*cache) == 0
    assert fresh[0] and (row_min[0], row_arg[0]) == (live, 1)
    _assert_cache(*cache)
