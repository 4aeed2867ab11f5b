"""Monte Carlo MOSPA evaluation and MMOSPA estimation.

MOSPA of an estimate is the expected label-free squared distance under the
joint posterior; the Monte Carlo version averages per-sample assignment
distances.  The MMOSPA estimator runs an alternating descent: align every
sample to the current estimate with its optimal permutation, then move each
estimate block to the weighted average of the sample blocks assigned to it.
Both steps are non-increasing in the empirical objective and the assignment
step takes finitely many values, so the iteration terminates.

One sweep over the samples yields both the objective and each sample's
alignment, so one sweep of an estimate X gives its objective and the next
estimate N(X).  Both are pure functions of X, so each mmospa_estimate call
memoizes X -> (objective, N(X)) by X's bytes: restarts that reach a bit-equal
estimate share its future, and each distinct estimate is swept once per call.
A sweep keeps only each sample's best atom and its cost, one
quadform.row_chunks chunk at a time, and sums the objective over fixed
blocks of _CHUNK samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .assignment import batch_optimal_permutations
from .measures import EmpiricalMeasure
from .quadform import point_cost_matrix, row_chunks, target_block_forms, validate_spd
from .states import StackedState, _atom_index_matrix, permutation_array

_CHUNK = 1 << 16
# A run stops once an averaging step lowers the objective by less than this.
_TOL = 1e-10


@dataclass(frozen=True)
class MospaEstimate:
    value: float
    std_error: float
    sample_count: int


@dataclass(frozen=True)
class MmospaConfig:
    max_iters: int = 100
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if not 0 <= self.seed <= rng.MAX_SEED:
            raise ValueError(f"seed must lie in [0, {rng.MAX_SEED}]")


@dataclass(frozen=True)
class RestartOutcome:
    """Where one restart of the descent ended.

    sweeps counts the estimates on its path that no earlier step of the
    call had swept (0 when every one of them had been).
    """
    objective: float
    iterations: int
    converged: bool
    sweeps: int


@dataclass(frozen=True)
class MmospaResult:
    estimate: StackedState
    empirical_mospa: float
    iterations: int
    restarts_used: int
    converged: bool
    descent_trace: tuple[float, ...] = field(repr=False)
    restart_outcomes: tuple[RestartOutcome, ...] = field(repr=False)


def mospa_mc(samples: EmpiricalMeasure, x_hat: StackedState, q=None) -> MospaEstimate:
    """Weighted average of per-sample assignment distances to x_hat.

    std_error is the unbiased weighted standard deviation of the per-sample
    distances scaled by sqrt(sum of squared weights); for uniform weights this
    is s/sqrt(m).
    """
    if (samples.n_targets, samples.state_dim) != (x_hat.n_targets, x_hat.state_dim):
        raise ValueError("sample and estimate shapes differ")
    _, costs = batch_optimal_permutations(samples.points, x_hat, q, want_mappings=False)
    w = samples.weights
    value = float(np.sum(w * costs))
    m = len(samples)
    sw2 = float(np.sum(w * w))
    if m >= 2 and sw2 < 1.0:
        var = float(np.sum(w * (costs - value) ** 2)) / (1.0 - sw2)
        std_error = float(np.sqrt(max(var, 0.0) * sw2))
    else:
        std_error = 0.0
    return MospaEstimate(value, std_error, m)


def scalar_sort_oracle(samples: EmpiricalMeasure) -> StackedState:
    """Exact empirical MMOSPA for scalar targets: per-rank weighted means.

    Sorting each sample's scalars is the optimal alignment to any sorted
    estimate, so the global optimum is the vector of expected order
    statistics.
    """
    if samples.state_dim != 1:
        raise ValueError("scalar oracle requires state_dim == 1")
    ranked = np.sort(samples.points, axis=1)
    means = _weighted_column_sum(samples.weights, ranked) / np.sum(samples.weights)
    return StackedState(samples.n_targets, 1, means)


def _weighted_column_sum(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i w[i] * rows[i], accumulated over fixed-size chunks in index order."""
    acc = np.zeros(rows.shape[1:])
    for lo in range(0, len(w), _CHUNK):
        hi = min(lo + _CHUNK, len(w))
        acc += np.einsum("m,m...->...", w[lo:hi], rows[lo:hi])
    return acc


def _alignment_pass(points, weights, atoms, q):
    """One sweep over the samples: the objective and the best atom per sample."""
    m = points.shape[0]
    best = np.empty(m, dtype=np.intp)
    low = np.empty(m)
    for lo, hi in row_chunks(m, *atoms.shape):
        costs = point_cost_matrix(points[lo:hi], atoms, q)
        best[lo:hi] = costs.argmin(axis=1)  # first minimum = lexicographic
        # the minima, read at the argmin: cheaper than a min over a short axis
        low[lo:hi] = costs[np.arange(hi - lo), best[lo:hi]]
    obj = 0.0  # summed over fixed blocks, whatever the cost chunks were
    for lo in range(0, m, _CHUNK):
        obj += float(np.sum(weights[lo:lo + _CHUNK] * low[lo:lo + _CHUNK]))
    return obj, best


def _average_step(points, weights, src, n_targets, state_dim, forms):
    """New estimate blocks: weighted average of the sample blocks assigned to
    each slot (normal equations when a slot weight matrix is present)."""
    m = points.shape[0]
    blocks = points.reshape(m, n_targets, state_dim)
    gathered = blocks[np.arange(m)[:, None], src]
    if forms is None:
        return _weighted_column_sum(weights, gathered) / np.sum(weights)
    new_blocks = np.empty((n_targets, state_dim))
    for j in range(n_targets):
        lhs = np.zeros((state_dim, state_dim))
        rhs = np.zeros(state_dim)
        for i in range(n_targets):
            mask = src[:, j] == i
            if not np.any(mask):
                continue
            wsum = float(np.sum(weights[mask]))
            xsum = _weighted_column_sum(weights[mask], blocks[mask, i])
            lhs += wsum * forms[i]
            rhs += forms[i] @ xsum
        new_blocks[j] = np.linalg.solve(lhs, rhs)
    return new_blocks


def _canonical_blocks(blocks: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically by coordinate values."""
    order = np.lexsort(tuple(blocks[:, c] for c in reversed(range(blocks.shape[1]))))
    return blocks[order]


def mmospa_estimate(samples: EmpiricalMeasure, init: StackedState | None = None,
                    config: MmospaConfig | None = None, q=None) -> MmospaResult:
    """Alternating-descent minimizer of the empirical MOSPA objective.

    Runs config.restarts starts (the first from `init` or the per-target mean,
    the rest from the mean plus the per-coordinate sample standard deviation
    times a standard normal draw) and keeps the run with the smallest
    empirical objective.  A run stops once an averaging step lowers the
    objective by less than _TOL, or after config.max_iters steps.  An
    estimate that an earlier step of the call already swept is not swept
    again (see the module docstring), which changes no returned field.  The
    returned estimate is canonicalized by sorting target blocks
    lexicographically; the objective is invariant under that reorder.
    """
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    cfg = config or MmospaConfig()
    n, d = samples.n_targets, samples.state_dim
    if init is not None and (init.n_targets, init.state_dim) != (n, d):
        raise ValueError("init shape does not match samples")
    if q is not None:
        validate_spd(q, samples.dim)
    forms = None if q is None else target_block_forms(q, n, d)

    points, weights = samples.points, samples.weights
    atom_idx = _atom_index_matrix(n, d)
    inv_perms = np.argsort(permutation_array(n), axis=1)

    total = float(np.sum(weights))
    mean = _weighted_column_sum(weights, points) / total
    centered_sq = _weighted_column_sum(weights, (points - mean) ** 2) / total
    std = np.sqrt(np.maximum(centered_sq, 0.0))

    memo: dict[bytes, tuple[float, np.ndarray]] = {}
    outcomes: list[RestartOutcome] = []
    best_run = None
    for r in range(cfg.restarts):
        if r == 0:
            x0 = init.data.copy() if init is not None else mean.copy()
        else:
            eta = rng.normals(rng.derive_seed(cfg.seed, 101, r), np.zeros(1, dtype=np.uint64), n * d)[0]
            x0 = mean + std * eta
        xh, trace, outcome = _lloyd_run(points, weights, x0, n, d, atom_idx, inv_perms, q,
                                        forms, cfg, memo)
        if not np.isfinite(outcome.objective):
            raise RuntimeError("MMOSPA objective became non-finite")
        outcomes.append(outcome)
        if best_run is None or outcome.objective < best_run[2].objective:
            best_run = xh, trace, outcome

    xh, trace, won = best_run
    estimate = StackedState(n, d, _canonical_blocks(xh.reshape(n, d)).reshape(-1))
    return MmospaResult(
        estimate=estimate,
        empirical_mospa=won.objective,
        iterations=won.iterations,
        restarts_used=cfg.restarts,
        converged=won.converged,
        descent_trace=tuple(trace),
        restart_outcomes=tuple(outcomes),
    )


def _lloyd_run(points, weights, x0, n, d, atom_idx, inv_perms, q, forms, cfg, memo):
    """One restart's descent from x0: (last estimate, trace, outcome).

    memo maps the bytes of every estimate swept in this mmospa_estimate call
    to its objective and the next estimate; only a miss sweeps.
    """
    def step(xh):
        key = xh.tobytes()
        if key not in memo:
            obj, best = _alignment_pass(points, weights, xh[atom_idx], q)
            memo[key] = obj, _average_step(points, weights, inv_perms[best], n, d, forms).reshape(-1)
        return memo[key]

    swept_before = len(memo)
    xh = np.asarray(x0, dtype=float).reshape(-1)
    obj_prev, nxt = step(xh)
    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        xh = nxt
        obj, nxt = step(xh)
        trace.append(obj)
        if obj_prev - obj < _TOL:
            converged = True
            break
        obj_prev = obj
    return xh, trace, RestartOutcome(obj, len(trace), converged, len(memo) - swept_before)
