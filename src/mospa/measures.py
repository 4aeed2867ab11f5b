"""Probability measures on the stacked state space.

GaussianMixture is the joint posterior over all targets; EmpiricalMeasure is a
finite weighted sample of it; DiscreteMeasure carries finitely many atoms,
most importantly the measure whose atoms are the permutations of an estimate
weighted by the probability mass of their regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .assignment import _check_compatible
from .metrics import batch_region_ranks, has_duplicate_blocks
from .quadform import row_chunks
from .states import StackedState, _check_target_count, _frozen_array, permuted_atoms


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Gaussian mixture on R^(n_targets*state_dim).

    weights: (k,) in (0, 1], summing to 1 within 1e-12.
    means: (k, dim).  covariances: (k, dim, dim), each symmetric positive
    definite; factorizations are validated eagerly and cached.
    """

    n_targets: int
    state_dim: int
    weights: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    covariances: np.ndarray = field(repr=False)
    _chols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.n_targets * self.state_dim
        w = _frozen_array(self.weights, "mixture weights", (-1,))
        mu = _frozen_array(self.means, "mixture means", (len(w), dim))
        cov = _frozen_array(self.covariances, "mixture covariances", (len(w), dim, dim))
        if not np.all((w > 0) & (w <= 1)):
            raise ValueError("mixture weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1 within 1e-12")
        chols = np.empty_like(cov)
        for c in range(len(w)):
            if not np.array_equal(cov[c], cov[c].T):
                raise ValueError(f"covariance of component {c} is not symmetric")
            try:
                chols[c] = np.linalg.cholesky(cov[c])
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"covariance of component {c} is not positive definite"
                ) from None
            pivots = np.diag(chols[c]) ** 2
            if pivots.min() < 1e-12 * pivots.max():
                raise np.linalg.LinAlgError(
                    f"covariance of component {c} is numerically singular "
                    "(smallest pivot < 1e-12 x largest)"
                )
        chols.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "_chols", chols)

    @classmethod
    def from_components(cls, n_targets, state_dim, components) -> "GaussianMixture":
        """components: iterable of (weight, mean, covariance) triples."""
        ws, mus, covs = zip(*components)
        return cls(n_targets, state_dim, np.asarray(ws), np.asarray(mus), np.asarray(covs))

    @property
    def dim(self) -> int:
        return self.n_targets * self.state_dim

    @property
    def n_components(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted sample points, one stacked state per row of points."""

    n_targets: int
    state_dim: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = _frozen_array(self.points, "sample points", (len(self.points), self.dim))
        w = _frozen_array(self.weights, "sample weights", (-1,))
        if len(w) != pts.shape[0]:
            raise ValueError("points and weights must have equal length")
        if not np.all(w > 0):
            raise ValueError("sample weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"sample weights sum to {w.sum()!r}, expected 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.n_targets * self.state_dim


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported measure; atoms are stacked states, pairwise distinct."""

    n_targets: int
    state_dim: int
    atoms: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        atoms = _frozen_array(self.atoms, "atoms", (len(self.atoms), self.dim))
        masses = _frozen_array(self.masses, "masses", (-1,))
        if len(masses) != atoms.shape[0]:
            raise ValueError("atoms and masses must have equal length")
        if not np.all(masses >= 0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {masses.sum()!r}, expected 1 within 1e-12")
        if len(np.unique(atoms, axis=0)) < atoms.shape[0]:
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.n_targets * self.state_dim


def gm_sample(mixture: GaussianMixture, seed: int, m: int) -> EmpiricalMeasure:
    """m independent draws with uniform weights 1/m.

    Sample i is a pure function of (seed, i): draw 0 of its stream selects the
    component by weight, the following draws feed the component's Cholesky
    factor.  Rows are drawn in quadform.row_chunks, and each chunk, padded to
    at least two rows, is multiplied whole by every component's factor, so
    every product runs through BLAS gemm, whose bits for a row do not depend
    on the row count (a one-row product would go to gemv, whose bits differ).
    The output is therefore bit-identical for a fixed seed no matter how the
    index range is split up.  Points and weights are frozen here, so
    EmpiricalMeasure keeps them uncopied.
    """
    if m < 1:
        raise ValueError("sample count must be positive")
    if not 0 <= seed <= rng.MAX_SEED:
        raise ValueError(f"seed must lie in [0, {rng.MAX_SEED}]")
    thresholds = np.cumsum(mixture.weights)
    thresholds[-1] = 1.0  # uniforms are <= 1.0: each finds a component despite rounding
    points = np.empty((m, mixture.dim))
    for lo, hi in row_chunks(m, 2 * mixture.dim):
        idx = np.arange(lo, max(hi, lo + 2), dtype=np.uint64)
        comp = np.searchsorted(thresholds, rng.uniforms(seed, idx[:hi - lo], 0), side="left")
        z = rng.normals(seed, idx, mixture.dim)
        for c in range(mixture.n_components):
            y = z @ mixture._chols[c].T
            y += mixture.means[c]
            np.copyto(points[lo:hi], y[:hi - lo], where=(comp == c)[:, None])
    weights = np.full(m, 1.0 / m)
    for arr in (points, weights):
        arr.setflags(write=False)
    return EmpiricalMeasure(mixture.n_targets, mixture.state_dim, points, weights)


def gm_pdf(mixture: GaussianMixture, x: StackedState) -> float:
    """Mixture density at x, evaluated in the log domain."""
    if x.dim != mixture.dim:
        raise ValueError(f"state dim {x.dim} != mixture dim {mixture.dim}")
    log_terms = np.empty(mixture.n_components)
    for c in range(mixture.n_components):
        chol = mixture._chols[c]
        y = np.linalg.solve(chol, x.data - mixture.means[c])
        maha = float(y @ y)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        log_terms[c] = (
            math.log(mixture.weights[c])
            - 0.5 * (maha + log_det + mixture.dim * math.log(2.0 * math.pi))
        )
    return float(np.exp(np.logaddexp.reduce(log_terms)))


def estimate_region_masses(samples: EmpiricalMeasure, x_hat: StackedState, q=None) -> np.ndarray:
    """Sample weight captured by each permutation region, canonical order.

    Returns n_targets! masses summing to exactly 1.0 (the largest mass absorbs
    the final-ulp rounding of the float partition).  Raises CapacityError
    for n_targets > MAX_TARGETS before any sample is assigned, and
    ValueError for samples of another shape than x_hat.
    """
    _check_target_count(x_hat.n_targets)
    _check_compatible(samples, x_hat)
    ranks = batch_region_ranks(samples.points, x_hat, q)
    n_regions = math.factorial(x_hat.n_targets)
    masses = np.bincount(ranks, weights=samples.weights, minlength=n_regions)
    masses[np.argmax(masses)] += 1.0 - masses.sum()
    return masses


def build_region_measure(x_hat: StackedState, masses) -> DiscreteMeasure:
    """Discrete measure with atoms pi(x_hat) in canonical permutation order.

    Zero-mass atoms are retained so atom position k always corresponds to the
    k-th permutation in the lexicographic enumeration.
    """
    masses = np.array(masses, dtype=float).reshape(-1)
    n_regions = math.factorial(x_hat.n_targets)
    if len(masses) != n_regions:
        raise ValueError(f"expected {n_regions} masses, got {len(masses)}")
    if not np.all(masses >= 0):
        raise ValueError("masses must be nonnegative")
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"masses sum to {total!r}, expected 1 within 1e-9")
    if has_duplicate_blocks(x_hat):
        raise ValueError("estimate has duplicate target blocks; atoms would coincide")
    masses = masses / total
    return DiscreteMeasure(x_hat.n_targets, x_hat.state_dim, permuted_atoms(x_hat), masses)
