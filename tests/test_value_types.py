"""One ownership rule for every value type: each stores read-only float64
arrays, copies a caller's writable array, keeps an array that is already
frozen, float64, C-contiguous and owns its data, and refuses NaN and +-inf."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import two_mode_mixture
from mospa import (
    DiscreteMeasure,
    EmpiricalMeasure,
    GaussianMixture,
    Hyperplane,
    Scenario,
    StackedState,
    TransportPlan,
    WeightedSites,
    bisector,
    gm_sample,
    solve_transport,
)

# name: (build from a dict of arrays, the arrays by field, in their stored shape)
VALUE_TYPES = {
    "StackedState": (lambda a: StackedState(2, 1, a["data"]), {"data": [0.0, 1.0]}),
    "GaussianMixture": (
        lambda a: GaussianMixture(1, 2, a["weights"], a["means"], a["covariances"]),
        {"weights": [0.25, 0.75], "means": [[0.0, 1.0], [2.0, 3.0]],
         "covariances": [np.eye(2), 2.0 * np.eye(2)]}),
    "EmpiricalMeasure": (lambda a: EmpiricalMeasure(2, 1, a["points"], a["weights"]),
                         {"points": [[0.0, 1.0], [2.0, 3.0]], "weights": [0.5, 0.5]}),
    "DiscreteMeasure": (lambda a: DiscreteMeasure(2, 1, a["atoms"], a["masses"]),
                        {"atoms": [[0.0, 1.0], [1.0, 0.0]], "masses": [0.25, 0.75]}),
    "WeightedSites": (lambda a: WeightedSites(a["points"], a["weights"]),
                      {"points": [[0.0, 1.0], [1.0, 0.0]], "weights": [0.0, -1.0]}),
    "Hyperplane": (lambda a: Hyperplane(a["normal"], 1.0), {"normal": [1.0, 2.0]}),
    "TransportPlan": (
        lambda a: TransportPlan(a["flows"], a["source_marginal"], a["sink_marginal"]),
        {"flows": [[0.5, 0.0], [0.0, 0.5]], "source_marginal": [0.5, 0.5],
         "sink_marginal": [0.5, 0.5]}),
    "Scenario": (lambda a: Scenario(2, 1, two_mode_mixture(), 0, 10, a["q_matrix"]),
                 {"q_matrix": [[2.0, 0.0], [0.0, 1.0]]}),
}


def _arrays(name, frozen=False):
    arrays = {field: np.array(v, dtype=float) for field, v in VALUE_TYPES[name][1].items()}
    for arr in arrays.values():
        arr.setflags(write=not frozen)
    return arrays


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_a_writable_array_is_copied_and_left_writable(name):
    arrays = _arrays(name)
    value = VALUE_TYPES[name][0](arrays)
    for field, arr in arrays.items():
        assert arr.flags.writeable, field
        assert not np.shares_memory(getattr(value, field), arr), field


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_a_frozen_owning_array_is_kept(name):
    arrays = _arrays(name, frozen=True)
    value = VALUE_TYPES[name][0](arrays)
    for field, arr in arrays.items():
        assert getattr(value, field) is arr, field


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_every_array_field_is_read_only(name):
    value = VALUE_TYPES[name][0](_arrays(name))
    fields = {k: v for k, v in vars(value).items() if isinstance(v, np.ndarray)}
    assert set(VALUE_TYPES[name][1]) <= set(fields)
    for field, arr in fields.items():
        assert not arr.flags.writeable, field
        with pytest.raises(ValueError):
            arr.flat[0] = 7.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", VALUE_TYPES)
def test_a_non_finite_entry_is_refused(name, bad):
    for field in VALUE_TYPES[name][1]:
        arrays = _arrays(name)
        arrays[field].flat[0] = bad
        with pytest.raises(ValueError):
            VALUE_TYPES[name][0](arrays)


def test_solve_transport_hands_over_a_read_only_solution():
    emp = gm_sample(two_mode_mixture(), 3, 50)
    nu = DiscreteMeasure(2, 1, [[-4.0, 3.0], [3.0, -4.0], [0.0, 0.0]], [0.5, 0.5, 0.0])
    sol = solve_transport(emp, nu)
    assert np.isnan(sol.sink_potentials[2])
    for arr in (sol.plan.flows, sol.plan.source_marginal, sol.plan.sink_marginal,
                sol.source_potentials, sol.sink_potentials):
        assert not arr.flags.writeable
    # the plan keeps the frozen flows uncopied, and the marginals of the measures
    assert sol.plan.source_marginal is emp.weights


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_offset_is_refused(bad):
    with pytest.raises(ValueError, match="offset"):
        Hyperplane([1.0, 0.0], bad)
    with pytest.raises(ValueError, match="offset"):
        bisector([0.0, 0.0], [1.0, 1.0], bad, 0.0)


def test_empirical_measure_checks_finiteness_without_a_mask():
    # n = 7, d = 2: a boolean (m, dim) mask alone would take 5.3 MiB
    m = 400_000
    pts = np.full((m, 14), 0.5)
    w = np.full(m, 1.0 / m)
    for arr in (pts, w):
        arr.setflags(write=False)
    tracemalloc.start()
    try:
        EmpiricalMeasure(7, 2, pts, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_rewrapping_an_empirical_measure_copies_nothing():
    emp = gm_sample(two_mode_mixture(), 5, 100)
    again = EmpiricalMeasure(emp.n_targets, emp.state_dim, emp.points, emp.weights)
    assert again.points is emp.points and again.weights is emp.weights
