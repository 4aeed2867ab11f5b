import json
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

import numpy as np
import pytest

from mospa import Scenario, ScenarioParseError, parse_scenario, scenario_digest
from mospa.scenarios import scenario_to_dict

MINIMAL = {
    "n_targets": 1,
    "state_dim": 1,
    "seed": 0,
    "sample_count": 10,
    "mixture": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}],
}


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_minimal_scenario(tmp_path):
    scen = parse_scenario(write_scenario(tmp_path, MINIMAL))
    assert scen.dim == 1
    assert scen.sample_count == 10
    assert scen.q_matrix is None


def test_weight_sum_violation_names_field(tmp_path):
    bad = dict(MINIMAL)
    bad["mixture"] = [
        {"weight": 0.6, "mean": [0.0], "cov": [[1.0]]},
        {"weight": 0.5, "mean": [1.0], "cov": [[1.0]]},
    ]
    with pytest.raises(ScenarioParseError, match="mixture.weights"):
        parse_scenario(write_scenario(tmp_path, bad))


def test_seed_limited_to_64_bits(tmp_path):
    # the sampler keys on 64 bits, so 2**64 would alias seed 0
    ok = dict(MINIMAL, seed=2**64 - 1)
    assert parse_scenario(write_scenario(tmp_path, ok)).seed == 2**64 - 1
    with pytest.raises(ScenarioParseError, match="seed"):
        parse_scenario(write_scenario(tmp_path, dict(MINIMAL, seed=2**64)))


def test_missing_field_names_path(tmp_path):
    bad = {k: v for k, v in MINIMAL.items() if k != "sample_count"}
    with pytest.raises(ScenarioParseError, match="sample_count"):
        parse_scenario(write_scenario(tmp_path, bad))
    bad2 = dict(MINIMAL)
    bad2["mixture"] = [{"weight": 1.0, "mean": [0.0]}]
    with pytest.raises(ScenarioParseError, match=r"mixture\[0\]\.cov"):
        parse_scenario(write_scenario(tmp_path, bad2))


def test_non_pd_covariance_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["mixture"] = [{"weight": 1.0, "mean": [0.0], "cov": [[-1.0]]}]
    with pytest.raises(ScenarioParseError, match="mixture"):
        parse_scenario(write_scenario(tmp_path, bad))


def test_bad_q_matrix_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["q_matrix"] = [[-1.0]]
    with pytest.raises(ScenarioParseError, match="q_matrix"):
        parse_scenario(write_scenario(tmp_path, bad))


@pytest.mark.parametrize("field, value, path", [
    ("weight", "a", r"mixture\[0\]\.weight"),
    ("weight", None, r"mixture\[0\]\.weight"),
    ("weight", True, r"mixture\[0\]\.weight"),
    ("weight", float("nan"), r"mixture\[0\]\.weight"),
    ("mean", ["x"], r"mixture\[0\]\.mean"),
    ("mean", [float("nan")], r"mixture\[0\]\.mean"),
    ("mean", [False], r"mixture\[0\]\.mean"),
    ("mean", [0.0, 1.0], r"mixture\[0\]\.mean"),
    ("cov", [[float("inf")]], r"mixture\[0\]\.cov"),
    ("cov", [[None]], r"mixture\[0\]\.cov"),
    ("cov", [["1"]], r"mixture\[0\]\.cov"),
    ("q_matrix", [["a"]], "q_matrix"),
    ("q_matrix", {"a": 1}, "q_matrix"),
    ("q_matrix", [["1"]], "q_matrix"),
    ("q_matrix", [[1.0, 0.0]], "q_matrix"),
])
def test_malformed_field_names_its_path(tmp_path, field, value, path):
    bad = json.loads(json.dumps(MINIMAL))
    if field == "q_matrix":
        bad[field] = value
    else:
        bad["mixture"][0][field] = value
    with pytest.raises(ScenarioParseError, match=path):
        parse_scenario(write_scenario(tmp_path, bad))


def test_fig_scenario_parses():
    scen = parse_scenario(SCENARIO_DIR / "fig1.json")
    assert scen.dim == 2
    assert scen.mixture.n_components == 2
    assert np.array_equal(scen.mixture.means[0], [-4.0, 3.0])


def test_digest_stable_across_reserialization(tmp_path):
    scen = parse_scenario(SCENARIO_DIR / "fig1.json")
    digest = scenario_digest(scen)
    round_trip = write_scenario(tmp_path, scenario_to_dict(scen), "rt.json")
    assert scenario_digest(parse_scenario(round_trip)) == digest


def test_digest_sensitive_to_content(tmp_path):
    scen = parse_scenario(write_scenario(tmp_path, MINIMAL))
    other = scen.with_overrides(seed=1)
    assert scenario_digest(other) != scenario_digest(scen)


def test_overrides():
    scen = parse_scenario(SCENARIO_DIR / "fig1.json")
    out = scen.with_overrides(seed=7, sample_count=55)
    assert (out.seed, out.sample_count) == (7, 55)
    assert scen.seed == 20  # original untouched


def test_scenario_validates_mixture_shape():
    from conftest import random_mixture

    mix = random_mixture(np.random.default_rng(0), 2, 1, 1)
    with pytest.raises(ValueError):
        Scenario(3, 1, mix, seed=0, sample_count=5)
