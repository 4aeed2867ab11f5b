"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    cli_env,
    normalized_weights,
    random_mixture,
    random_scenario,
    random_x_hat,
    two_mode_mixture,
)
from mospa import (
    DiscreteMeasure,
    EmpiricalMeasure,
    GaussianMixture,
    MmospaConfig,
    Scenario,
    StackedState,
    TransportPlan,
    WeightedSites,
    build_region_measure,
    cells_match_regions,
    coupling_cost,
    estimate_region_masses,
    export_diagram_2d,
    gm_sample,
    gospa,
    mmospa_estimate,
    mospa_mc,
    ospa,
    region_index,
    scalar_sort_oracle,
    solve_assignment,
    solve_transport,
    verify_mospa_wasserstein,
)
from mospa.states import permutation_array
from test_transport import random_feasible_plan

FIG = str(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "fig1.json")


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} {status}: {detail}")
    assert ok, detail


def _batched_brute_force(mats):
    """Exhaustive minima for a (batch, n, n) stack, chunked over permutations."""
    batch, n, _ = mats.shape
    perms = permutation_array(n)
    rows = np.arange(n)[None, :]
    best = np.full(batch, np.inf)
    for lo in range(0, perms.shape[0], 720):
        chunk = perms[lo : lo + 720]
        totals = mats[:, rows, chunk].sum(axis=2)
        best = np.minimum(best, totals.min(axis=1))
    return best


def test_criterion_1_assignment_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in range(2, 8):
        mats = rng.random((500, n, n))
        oracle = _batched_brute_force(mats)
        for idx in range(500):
            _, cost = solve_assignment(mats[idx])
            worst = max(worst, abs(cost - oracle[idx]))
    elapsed = time.perf_counter() - started
    _report(1, worst <= 1e-12 and elapsed < 30,
            f"max |solver - brute force| = {worst:.2e} over 3000 matrices "
            f"(N=2..7) in {elapsed:.1f}s")


def _spread_scenarios(count, start_seed, sample_count):
    combos = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    out = []
    for t in range(count):
        n, d = combos[t % len(combos)]
        scen = random_scenario(start_seed + t, n, d, n_components=2,
                               sample_count=sample_count)
        rng = np.random.default_rng(start_seed + 7000 + t)
        out.append((scen, random_x_hat(rng, n, d)))
    return out


def test_criterion_2_identity_same_sample_exactness():
    started = time.perf_counter()
    cases = _spread_scenarios(19, 2101, sample_count=2000)
    fig = Scenario(2, 1, two_mode_mixture(1.0), seed=20, sample_count=2000)
    cases.append((fig, StackedState(2, 1, [-4.0, 3.0])))
    worst = 0.0
    for scen, x_hat in cases:
        report = verify_mospa_wasserstein(scen, x_hat, mode="same-sample", m=2000)
        assert report.passed, (scen.n_targets, scen.state_dim, report)
        worst = max(worst, report.rel_diff)
    elapsed = time.perf_counter() - started
    _report(2, worst <= 1e-8 and elapsed < 120,
            f"20 scenarios, worst relative difference {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_identity_independent_mode():
    started = time.perf_counter()
    worst_ratio = 0.0
    for scen, x_hat in _spread_scenarios(10, 3301, sample_count=100000):
        report = verify_mospa_wasserstein(scen, x_hat, mode="independent", m=100000)
        assert report.passed, (scen.n_targets, scen.state_dim, report)
        worst_ratio = max(worst_ratio, report.abs_diff / report.tolerance)
    elapsed = time.perf_counter() - started
    _report(3, worst_ratio <= 1.0 and elapsed < 300,
            f"10 scenarios at m=1e5, worst |diff|/(4 SE) = {worst_ratio:.2f} "
            f"in {elapsed:.1f}s")


def test_criterion_4_scalar_mmospa_oracle():
    started = time.perf_counter()
    mix = GaussianMixture.from_components(2, 1, [(1.0, [0.0, 0.0], np.eye(2))])
    emp = gm_sample(mix, seed=4004, m=1_000_000)
    result = mmospa_estimate(emp, config=MmospaConfig(seed=5))
    oracle = scalar_sort_oracle(emp)
    target = 1.0 / math.sqrt(math.pi)
    coord_err = np.abs(result.estimate.data - [-target, target]).max()
    value_err = abs(result.empirical_mospa - (2 - 2 / math.pi))
    oracle_gap = np.abs(result.estimate.data - oracle.data).max()
    elapsed = time.perf_counter() - started
    _report(4, coord_err < 0.01 and value_err < 0.01 and oracle_gap < 1e-9
            and elapsed < 120,
            f"m=1e6: coords within {coord_err:.4f} of +-1/sqrt(pi), objective "
            f"within {value_err:.4f} of 2-2/pi, sort-oracle gap {oracle_gap:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_5_power_cells_match_regions():
    rng_master = np.random.default_rng(5500)
    for t in range(10):
        n, d = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)][t % 5]
        scen = random_scenario(5600 + t, n, d, n_components=2, cov_scale=2.0)
        emp = gm_sample(scen.mixture, seed=scen.seed, m=100000)
        x_hat = random_x_hat(rng_master, n, d)
        agreement = cells_match_regions(x_hat, emp)
        assert agreement == 1.0, (n, d, agreement)
    # Perturbing one weight by 0.5 moves the boundary by only
    # 0.5/(2*|p1-p0|) ~ 0.025, and at sigma=1 the modes sit 4.95 sigma from
    # the boundary, leaving ~5e-8 probability in the misclassified slab.
    # Sampling the same two-mode configuration at sigma=3 makes the slab
    # observable (~1e-3 mass) so "strictly below 1.0" can actually bind.
    wide = gm_sample(two_mode_mixture(3.0), seed=5700, m=100000)
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    perturbed = cells_match_regions(x_hat, wide, site_weights=[0.5, 0.0])
    _report(5, perturbed < 1.0,
            f"equal weights: agreement 1.0 on 10 scenarios x 1e5 samples; "
            f"one weight +0.5 drops agreement to {perturbed:.5f}")


def test_criterion_6_two_target_diagram_reproduction():
    sites = WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [0.0, 0.0])
    segs = export_diagram_2d(sites, bbox=(-10.0, 10.0))
    assert len(segs) == 1
    (_, (a, b)) = segs[0]
    on_diag = max(abs(a[0] - a[1]), abs(b[0] - b[1])) <= 1e-9
    ends = sorted([tuple(a), tuple(b)])
    clipped = np.allclose(ends, [(-10.0, -10.0), (10.0, 10.0)])

    delta = 0.5
    shifted = export_diagram_2d(
        WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [0.0, delta]), bbox=(-10.0, 10.0))
    (_, (sa, sb)) = shifted[0]
    gap = math.sqrt(98.0)  # distance between the two sites
    unit = np.array([1.0, -1.0]) / math.sqrt(2.0)
    expected = delta / (2 * gap)
    shift_err = max(abs(float(p @ unit) - expected) for p in (sa, sb))
    _report(6, on_diag and clipped and shift_err <= 1e-9,
            f"equal weights give the x1=x2 segment across the box; weight "
            f"offset {delta} translates it by {expected:.5f} along the normal "
            f"(error {shift_err:.1e})")


def test_criterion_7_weighted_distance_reductions():
    rng = np.random.default_rng(7007)
    identity_exact = True
    scaling_exact = True
    regions_stable = True
    for _ in range(1000):
        n, d = (2, 2) if rng.random() < 0.5 else (3, 1)
        dim = n * d
        x = StackedState(n, d, rng.normal(size=dim, scale=3))
        y = StackedState(n, d, rng.normal(size=dim, scale=3))
        identity_exact &= gospa(x, y, np.eye(dim)) == ospa(x, y)
        q = np.diag(rng.uniform(0.5, 4.0, size=dim))
        scaling_exact &= gospa(x, y, 2.0 * q) == 2.0 * gospa(x, y, q)
        regions_stable &= (region_index(x, y, q).index
                           == region_index(x, y, 2.0 * q).index)
    _report(7, identity_exact and scaling_exact and regions_stable,
            "1000 random inputs: Q=I equals the unweighted distance exactly, "
            "Q->2Q doubles values exactly and leaves every region label unchanged")


def test_criterion_8_conservation_and_order_properties():
    rng = np.random.default_rng(8008)
    # partition of unity, exact
    sums_exact = True
    mospa_bounded = True
    for t in range(6):
        n, d = [(2, 1), (3, 1), (2, 2)][t % 3]
        mix = random_mixture(rng, n, d, 2)
        emp = gm_sample(mix, seed=800 + t, m=4000)
        x_hat = random_x_hat(rng, n, d)
        masses = estimate_region_masses(emp, x_hat)
        sums_exact &= masses.sum() == 1.0
        est = mospa_mc(emp, x_hat)
        diff = emp.points - x_hat.data
        mse = float(emp.weights @ np.einsum("md,md->m", diff, diff))
        mospa_bounded &= est.value <= mse * (1 + 1e-12) + 1e-12

    # weak duality on random feasible couplings
    slack_ok = True
    for t in range(3):
        pts = rng.normal(size=(40, 2), scale=3)
        emp = EmpiricalMeasure(2, 1, pts, normalized_weights(rng, 40))
        atoms = rng.normal(size=(5, 2), scale=3)
        nu = DiscreteMeasure(2, 1, atoms, normalized_weights(rng, 5))
        optimal = solve_transport(emp, nu).cost
        for _ in range(100):
            plan = TransportPlan(random_feasible_plan(emp.weights, nu.masses, rng),
                                 emp.weights, nu.masses)
            slack_ok &= coupling_cost(plan, emp, nu) >= optimal - 1e-9
    _report(8, sums_exact and mospa_bounded and slack_ok,
            "region masses sum to exactly 1, MOSPA never exceeds the Monte "
            "Carlo MSE, and 300 random couplings respect weak duality")


def test_criterion_9_mmospa_descent_and_termination():
    started = time.perf_counter()
    rng = np.random.default_rng(9009)
    max_iters_seen = 0
    for run in range(50):
        n, d = [(2, 1), (2, 2), (3, 1)][run % 3]
        mix = random_mixture(rng, n, d, int(rng.integers(1, 4)))
        emp = gm_sample(mix, seed=900 + run, m=10000)
        res = mmospa_estimate(emp, config=MmospaConfig(seed=run, restarts=4))
        trace = res.descent_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1)), run
        assert res.converged and res.iterations <= 100, run
        max_iters_seen = max(max_iters_seen, res.iterations)
    elapsed = time.perf_counter() - started
    _report(9, True,
            f"50 runs at m=1e4: every descent trace non-increasing (1e-12), "
            f"max iterations {max_iters_seen} <= 100, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    def run(tag, threads, subcommand, extra):
        out = tmp_path / f"{tag}.csv"
        env = cli_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                      MKL_NUM_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-m", "mospa.cli", subcommand, "--scenario", FIG,
             *extra, "--output", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        payload = out.read_bytes()
        sibling = out.with_suffix(".json")
        if sibling.exists():
            payload += sibling.read_bytes()
        return payload

    jobs = [
        ("verify", ["--x-hat=-4,3", "--samples", "1200", "--mode", "same-sample"]),
        ("mmospa", ["--samples", "3000"]),
        ("masses", ["--x-hat=-4,3", "--samples", "3000"]),
    ]
    all_equal = True
    for sub, extra in jobs:
        a = run(f"{sub}_a", "1", sub, extra)
        b = run(f"{sub}_b", "4", sub, extra)
        c = run(f"{sub}_c", "1", sub, extra)
        all_equal &= a == b == c
    _report(10, all_equal,
            "verify/mmospa/masses reruns byte-identical, including across "
            "1-thread and 4-thread BLAS settings")
