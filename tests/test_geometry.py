import tracemalloc

import numpy as np
import pytest

from conftest import random_mixture, random_spd, random_x_hat, two_mode_mixture
from mospa import (
    EmpiricalMeasure,
    Hyperplane,
    StackedState,
    WeightedSites,
    bisector,
    cells_match_regions,
    export_diagram_2d,
    gm_sample,
    permuted_atoms,
    power_cell_index,
    region_index,
)
from mospa import quadform
from mospa.geometry import power_costs

FIG_SITES = WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [0.0, 0.0])


def test_power_cell_hand_example():
    # distances squared: 20 vs 34
    assert power_cell_index(np.array([0.0, 1.0]), FIG_SITES) == 0


def test_lower_additive_weight_wins_on_the_bisector():
    sites = WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [-1.0, 0.0])
    assert power_cell_index(np.array([1.0, 1.0]), sites) == 0
    sites_rev = WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [0.0, -1.0])
    assert power_cell_index(np.array([1.0, 1.0]), sites_rev) == 1


def test_equal_weights_reduce_to_nearest_centroid():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 3), scale=4)
    sites = WeightedSites(pts, np.zeros(8))
    for _ in range(100):
        x = rng.normal(size=3, scale=4)
        nearest = int(np.argmin(((pts - x) ** 2).sum(axis=1)))
        assert power_cell_index(x, sites) == nearest


def test_weight_shift_invariance():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 2), scale=3)
    w = rng.normal(size=5)
    a = WeightedSites(pts, w)
    b = WeightedSites(pts, w + 7.5)
    for _ in range(50):
        x = rng.normal(size=2, scale=3)
        assert power_cell_index(x, a) == power_cell_index(x, b)


def test_q_scaling_argmin_invariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, 2), scale=3)
    w = rng.normal(size=4)
    q = np.array([[2.0, 0.4], [0.4, 1.0]])
    a = WeightedSites(pts, w)
    b = WeightedSites(pts, 2.0 * w)
    for _ in range(50):
        x = rng.normal(size=2, scale=3)
        assert power_cell_index(x, a, q) == power_cell_index(x, b, 2.0 * q)


def test_bisector_two_target_diagram_line():
    h = bisector([-4.0, 3.0], [3.0, -4.0], 0.0, 0.0)
    n = h.normal / np.linalg.norm(h.normal)
    assert np.allclose(np.abs(n), [1.0, 1.0] / np.sqrt(2))
    assert h.offset == 0.0


def test_bisector_weight_offset_shift():
    delta = 0.7
    base = bisector([-4.0, 3.0], [3.0, -4.0], 0.0, 0.0)
    shifted = bisector([-4.0, 3.0], [3.0, -4.0], 0.0, delta)
    assert np.array_equal(shifted.normal, base.normal)
    assert shifted.offset - base.offset == delta


def test_bisector_weighted_normal():
    h = bisector([-4.0, 3.0], [3.0, -4.0], 0.0, 0.0, q=np.diag([4.0, 1.0]))
    assert np.allclose(h.normal, [56.0, -14.0])  # proportional to (28, -7)


def test_bisector_points_balance_weighted_distances():
    rng = np.random.default_rng(6)
    from conftest import random_spd

    for trial in range(20):
        p_i = rng.normal(size=3, scale=2)
        p_j = rng.normal(size=3, scale=2)
        w_i, w_j = rng.normal(size=2)
        q = random_spd(rng, 3) if trial % 2 else None
        h = bisector(p_i, p_j, w_i, w_j, q)
        form = np.eye(3) if q is None else q
        # project random points onto the hyperplane, then compare both powers
        for _ in range(5):
            x = rng.normal(size=3, scale=3)
            x = x - h.normal * ((x @ h.normal - h.offset) / (h.normal @ h.normal))
            assert abs(x @ h.normal - h.offset) <= 1e-9 * np.linalg.norm(h.normal)
            d_i = float((x - p_i) @ form @ (x - p_i)) + w_i
            d_j = float((x - p_j) @ form @ (x - p_j)) + w_j
            assert d_i == pytest.approx(d_j, rel=1e-6, abs=1e-9)


def test_bisector_rejects_coincident_centroids():
    with pytest.raises(ValueError):
        bisector([1.0, 2.0], [1.0, 2.0], 0.0, 0.0)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: WeightedSites([[0.0, 1.0], [1.0, 0.0]], [0.0]), "equal length",
                 id="sites-lengths"),
    pytest.param(lambda: WeightedSites([[0.0, 1.0], [0.0, 1.0]], [0.0, 1.0]),
                 "pairwise distinct", id="coincident-sites"),
    pytest.param(lambda: Hyperplane([0.0, 0.0], 1.0), "positive norm", id="zero-normal"),
    pytest.param(lambda: bisector([0.0, 1.0], [1.0, 0.0, 2.0], 0.0, 0.0), "share a dimension",
                 id="bisector-dimensions"),
])
def test_inconsistent_geometry_is_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_cells_match_regions_is_1_when_every_sample_ties():
    # both samples lie on the swap boundary x0 = x1 of the estimate (-4, 3),
    # inside the tie band, so no sample is left to disagree
    emp = EmpiricalMeasure(2, 1, [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    assert cells_match_regions(StackedState(2, 1, [-4.0, 3.0]), emp) == 1.0


def test_cells_match_regions_equal_weights():
    rng = np.random.default_rng(7)
    for trial in range(3):
        n, d = [(2, 1), (3, 1), (2, 2)][trial]
        mix = random_mixture(rng, n, d, 2, cov_scale=2.0)
        emp = gm_sample(mix, seed=trial, m=10000)
        x_hat = random_x_hat(rng, n, d)
        assert cells_match_regions(x_hat, emp) == 1.0


def test_cells_match_regions_perturbed_weight_disagrees():
    # broaden the modes so the shifted boundary slab actually catches samples
    mix = two_mode_mixture(3.0)
    emp = gm_sample(mix, seed=9, m=20000)
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    agreement = cells_match_regions(x_hat, emp, site_weights=[0.5, 0.0])
    assert agreement < 1.0


@pytest.mark.parametrize("site_weights", [None, [0.5, 0.0]])
def test_cells_match_regions_is_independent_of_the_cost_chunk(monkeypatch, site_weights):
    emp = gm_sample(two_mode_mixture(3.0), seed=10, m=5000)
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    whole = cells_match_regions(x_hat, emp, site_weights=site_weights)
    monkeypatch.setattr(quadform, "_CHUNK_BYTES", 8 * 2 * 2 * 7)  # 7 rows a chunk
    assert cells_match_regions(x_hat, emp, site_weights=site_weights) == whole


def test_cells_match_regions_drops_samples_on_an_unweighted_tie():
    # (1, 1) is equidistant from both atoms of (-4, 3): a weight moves its
    # cell but not its region label, so only the unweighted tie gap drops it
    emp = EmpiricalMeasure(2, 1, [[1.0, 1.0], [-4.0, 3.0]], [0.5, 0.5])
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    assert cells_match_regions(x_hat, emp, site_weights=[0.5, 0.0]) == 1.0
    assert cells_match_regions(x_hat, emp) == 1.0


def test_cells_match_regions_memory_is_bounded_by_the_chunk():
    # n = 6: a whole-batch (m, 720) classifier peaked at 928 MB on this call
    rng = np.random.default_rng(17)
    emp = gm_sample(random_mixture(rng, 6, 1, 2), seed=4, m=40000)
    x_hat = random_x_hat(rng, 6, 1)
    tracemalloc.start()
    try:
        agreement = cells_match_regions(x_hat, emp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert agreement == 1.0


def test_cells_match_regions_single_target():
    emp = gm_sample(two_mode_mixture(1.0), seed=1, m=100)
    single = StackedState(1, 2, [0.0, 0.0])
    one_target = gm_sample(
        random_mixture(np.random.default_rng(0), 1, 2, 1), seed=2, m=100
    )
    assert cells_match_regions(single, one_target) == 1.0


def test_cells_match_regions_refuses_a_sample_of_another_shape():
    # 2 targets of dimension 3 share the stacked width 6 with 3 targets of dimension 2
    emp = EmpiricalMeasure(2, 3, np.arange(12.0).reshape(2, 6), [0.5, 0.5])
    with pytest.raises(ValueError, match=r"state shapes differ: \(2,3\) vs \(3,2\)"):
        cells_match_regions(StackedState(3, 2, np.arange(6.0)), emp)


def test_power_classifier_agrees_with_region_on_atoms(fig_x_hat):
    emp = gm_sample(two_mode_mixture(1.0), seed=10, m=500)
    sites = WeightedSites(permuted_atoms(fig_x_hat), np.zeros(2))
    for i in range(50):
        x = StackedState(2, 1, emp.points[i])
        assert power_cell_index(x, sites) == region_index(x, fig_x_hat).index


def test_export_two_sites_clips_to_box():
    segs = export_diagram_2d(FIG_SITES, bbox=(-10.0, 10.0))
    assert len(segs) == 1
    (i, j), (a, b) = segs[0]
    assert (i, j) == (0, 1)
    ends = sorted([tuple(a), tuple(b)])
    assert np.allclose(ends[0], (-10.0, -10.0))
    assert np.allclose(ends[1], (10.0, 10.0))


def test_export_weight_offset_translates_segment():
    delta = 0.8
    sites = WeightedSites([[-4.0, 3.0], [3.0, -4.0]], [0.0, delta])
    segs = export_diagram_2d(sites, bbox=(-10.0, 10.0))
    (_, (a, b)) = segs[0]
    gap = np.linalg.norm(np.array([-4.0, 3.0]) - np.array([3.0, -4.0]))
    plane = bisector([-4.0, 3.0], [3.0, -4.0], 0.0, delta)
    unit = plane.normal / np.linalg.norm(plane.normal)
    for point in (a, b):
        # perpendicular distance from the unweighted line x1 = x2
        assert (point @ unit) == pytest.approx(delta / (2 * gap), rel=1e-9)


def test_export_three_sites_meet_at_a_point():
    sites = WeightedSites([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], np.zeros(3))
    segs = export_diagram_2d(sites, bbox=(-10.0, 10.0))
    assert len(segs) == 3
    # all three boundary segments share the circumcenter-like corner (2, 2)
    for _, (a, b) in segs:
        assert min(np.linalg.norm(a - [2.0, 2.0]), np.linalg.norm(b - [2.0, 2.0])) <= 1e-9


def test_export_collinear_sites_skip_the_hidden_pair():
    # the (0, 2) bisector x = 2 lies inside cell 1, beyond the (0, 1) line x = 1
    sites = WeightedSites([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]], np.zeros(3))
    segs = export_diagram_2d(sites, bbox=(-10.0, 10.0))
    assert [pair for pair, _ in segs] == [(0, 1), (1, 2)]
    for (_, (a, b)), x in zip(segs, (1.0, 3.0)):
        assert a[0] == pytest.approx(x) and b[0] == pytest.approx(x)
        assert sorted([a[1], b[1]]) == pytest.approx([-10.0, 10.0])


@pytest.mark.parametrize("points", [[[20.0, 0.0], [22.0, 0.0]],     # x = 21
                                    [[20.0, 20.0], [22.0, 22.0]]],  # x + y = 42
                         ids=["parallel-to-a-side", "slanted"])
def test_export_bisector_outside_the_box_is_dropped(points):
    sites = WeightedSites(points, np.zeros(2))
    assert export_diagram_2d(sites, bbox=(-10.0, 10.0)) == []


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_export_matches_a_grid_oracle(weighted):
    # an independent check of the clip: every exported segment lies on a tie
    # of its two sites that no third site undercuts, and every tie of two
    # cells that a grid edge crosses, with no third site near, is exported
    rng = np.random.default_rng(41 + weighted)
    lo, hi = -10.0, 10.0
    ticks = np.linspace(lo, hi, 41)[:-1] + 0.25  # grid strictly inside the box
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1)
    for _ in range(12):
        n = int(rng.integers(3, 7))
        sites = WeightedSites(rng.normal(scale=4.0, size=(n, 2)), rng.normal(scale=3.0, size=n))
        q = random_spd(rng, 2) if weighted else None
        segs = export_diagram_2d(sites, q=q, bbox=(lo, hi))
        pairs = [pair for pair, _ in segs]
        assert len(set(pairs)) == len(pairs) and all(i < j for i, j in pairs)
        for (i, j), (a, b) in segs:
            ends = np.stack([a, b])
            assert np.all((ends >= lo - 1e-9) & (ends <= hi + 1e-9))
            t = np.linspace(0.0, 1.0, 11)[:, None]
            costs = power_costs(a + t * (b - a), sites, q)
            tol = 1e-9 * (1.0 + np.abs(costs).max())
            assert np.all(np.abs(costs[:, i] - costs[:, j]) <= tol)
            assert np.all(np.delete(costs, [i, j], axis=1).min(axis=1) >= costs[:, i] - tol)
        costs = power_costs(grid.reshape(-1, 2), sites, q).reshape(*grid.shape[:2], n)
        cell = np.argmin(costs, axis=2)
        for axis in (0, 1):
            near = [slice(None), slice(None)]
            far = [slice(None), slice(None)]
            near[axis], far[axis] = slice(None, -1), slice(1, None)
            p, p_next = grid[tuple(near)], grid[tuple(far)]
            a, b = cell[tuple(near)], cell[tuple(far)]
            crossed = a != b
            p, p_next, a, b = p[crossed], p_next[crossed], a[crossed], b[crossed]
            c, c_next = costs[tuple(near)][crossed], costs[tuple(far)][crossed]
            rows = np.arange(len(a))
            # cost differences are affine along a grid edge: tie of a and b
            f0 = c[rows, a] - c[rows, b]
            f1 = c_next[rows, a] - c_next[rows, b]
            tie = p + (f0 / (f0 - f1))[:, None] * (p_next - p)
            at_tie = power_costs(tie, sites, q)
            order, ranked = np.argsort(at_tie, axis=1), np.sort(at_tie, axis=1)
            for k in np.flatnonzero(ranked[:, 2] - ranked[:, 1] > 1e-6):
                assert set(order[k, :2]) == {a[k], b[k]}
                assert (min(a[k], b[k]), max(a[k], b[k])) in pairs


def test_export_single_site_is_empty():
    sites = WeightedSites([[1.0, 1.0]], [0.0])
    assert export_diagram_2d(sites, bbox=(-5.0, 5.0)) == []


@pytest.mark.parametrize("bbox", [(-np.inf, np.inf), (-10.0, np.inf), (np.nan, 10.0),
                                  (5.0, -5.0)])
def test_export_rejects_a_non_finite_or_empty_box(bbox):
    # an infinite box used to return no segment at all
    with pytest.raises(ValueError, match="bbox must be finite with lo < hi"):
        export_diagram_2d(FIG_SITES, bbox=bbox)


def test_export_rejects_other_dimensions():
    sites = WeightedSites([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        export_diagram_2d(sites, bbox=(-5.0, 5.0))


def test_power_costs_validates_dimensions():
    with pytest.raises(ValueError):
        power_costs(np.zeros((3, 3)), FIG_SITES)
