"""Scenario files: the JSON schema feeding every analysis.

Schema (UTF-8 JSON object):
    n_targets: int >= 1        state_dim: int >= 1
    seed: int in [0, 2**64)    sample_count: int >= 1
    mixture: [{"weight": w, "mean": [...], "cov": [[...]]}, ...]
    q_matrix: [[...]]          (optional, symmetric positive definite)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .measures import GaussianMixture
from .quadform import validate_spd
from .states import _frozen_array


class ScenarioParseError(ValueError):
    """Scenario file rejected; message carries the offending field path."""


@dataclass(frozen=True, eq=False)
class Scenario:
    n_targets: int
    state_dim: int
    mixture: GaussianMixture
    seed: int
    sample_count: int
    q_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.mixture.n_targets, self.mixture.state_dim) != (self.n_targets, self.state_dim):
            raise ValueError("mixture dimensions do not match the scenario")
        if not 0 <= self.seed <= rng.MAX_SEED:
            raise ValueError("seed must be an integer in [0, 2**64 - 1]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.q_matrix is not None:
            q = _frozen_array(self.q_matrix, "q_matrix")
            validate_spd(q, self.dim, name="q_matrix")
            object.__setattr__(self, "q_matrix", q)

    @property
    def dim(self) -> int:
        return self.n_targets * self.state_dim

    def with_overrides(self, seed=None, sample_count=None) -> "Scenario":
        out = self
        if seed is not None:
            out = replace(out, seed=int(seed))
        if sample_count is not None:
            out = replace(out, sample_count=int(sample_count))
        return out


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioParseError(f"missing field {path}{key}")
    return obj[key]


def _as_int(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioParseError(f"{path} must be an integer >= {minimum}")
    return value


def _finite(value, path: str, shape: tuple, what: str) -> np.ndarray:
    """JSON number(s) of the given shape as floats; strings, bools, nulls and
    non-finite values are rejected with the field path."""
    try:
        arr = np.asarray(value, dtype=object)
        if arr.shape == shape and all(type(v) in (int, float) for v in arr.flat):
            out = arr.astype(float)
            if np.all(np.isfinite(out)):
                return out
    except (ValueError, OverflowError):
        pass
    raise ScenarioParseError(f"{path} must be {what}")


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; all measure invariants are checked
    at load time and violations name the offending field."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioParseError("top level must be a JSON object")

    n_targets = _as_int(_require(raw, "n_targets", ""), "n_targets", 1)
    state_dim = _as_int(_require(raw, "state_dim", ""), "state_dim", 1)
    seed = _as_int(_require(raw, "seed", ""), "seed", 0)
    sample_count = _as_int(_require(raw, "sample_count", ""), "sample_count", 1)
    dim = n_targets * state_dim

    mixture_raw = _require(raw, "mixture", "")
    if not isinstance(mixture_raw, list) or not mixture_raw:
        raise ScenarioParseError("mixture must be a nonempty array of components")
    weights, means, covs = [], [], []
    for c, comp in enumerate(mixture_raw):
        prefix = f"mixture[{c}]."
        if not isinstance(comp, dict):
            raise ScenarioParseError(f"mixture[{c}] must be an object")
        weights.append(float(_finite(_require(comp, "weight", prefix),
                                     f"{prefix}weight", (), "a finite number")))
        means.append(_finite(_require(comp, "mean", prefix), f"{prefix}mean", (dim,),
                             f"a length-{dim} array of finite numbers"))
        covs.append(_finite(_require(comp, "cov", prefix), f"{prefix}cov", (dim, dim),
                            f"a {dim}x{dim} array of finite numbers"))

    try:
        mixture = GaussianMixture(n_targets, state_dim, np.asarray(weights), means, covs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ScenarioParseError(f"mixture invalid: {exc}") from None

    q = raw.get("q_matrix")
    if q is not None:
        q = _finite(q, "q_matrix", (dim, dim), f"a {dim}x{dim} array of finite numbers")
    try:
        return Scenario(n_targets, state_dim, mixture, seed, sample_count, q)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "n_targets": scenario.n_targets,
        "state_dim": scenario.state_dim,
        "seed": scenario.seed,
        "sample_count": scenario.sample_count,
        "mixture": [
            {
                "weight": float(scenario.mixture.weights[c]),
                "mean": [float(v) for v in scenario.mixture.means[c]],
                "cov": [[float(v) for v in row] for row in scenario.mixture.covariances[c]],
            }
            for c in range(scenario.mixture.n_components)
        ],
    }
    if scenario.q_matrix is not None:
        out["q_matrix"] = [[float(v) for v in row] for row in scenario.q_matrix]
    return out


def scenario_digest(scenario: Scenario) -> str:
    """sha256 over the canonical serialization; stable across re-parsing."""
    canon = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
