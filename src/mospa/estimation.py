"""Monte Carlo MOSPA evaluation and MMOSPA estimation.

MOSPA of an estimate is the expected label-free squared distance under the
joint posterior; the Monte Carlo version averages per-sample assignment
distances.  The MMOSPA estimator runs an alternating descent: align every
sample to the current estimate with its optimal permutation, then move each
estimate block to the weighted average of the sample blocks assigned to it.
Both steps are non-increasing in the empirical objective and the assignment
step takes finitely many values, so the iteration terminates.

One pass over the samples, a step, gives an estimate X's objective and the
next estimate N(X).  Both are pure functions of X, so each mmospa_estimate
call memoizes X -> (objective, N(X)) by X's bytes: restarts that reach a
bit-equal estimate share its future, and each distinct estimate is swept once
per call.  A step walks fixed blocks of _CHUNK samples; each block aligns
its samples with the batched assignment kernel (batch_optimal_permutations,
and its tie rule), then adds its weighted minima to the objective and its
aligned sample blocks to the average (with slot weight matrices, to the sums
of its normal equations), so it keeps nothing per sample.  At two targets
(the paper's canonical case) one comparison of the costs to the two
permuted estimates aligns a sample, several times faster than the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .assignment import _check_compatible, batch_optimal_permutations
from .measures import EmpiricalMeasure
from .quadform import point_cost_matrix, target_block_forms
from .states import StackedState, _atom_index_matrix

_CHUNK = 1 << 16
# At two targets, slot j takes sample block _PAIR_SOURCES[a, j] at atom a.
_PAIR_SOURCES = np.array([[0, 1], [1, 0]])
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
    _check_compatible(samples, x_hat)
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


def _weighted_column_sum(w: np.ndarray, rows: np.ndarray, center=None) -> np.ndarray:
    """sum_i w[i] * rows[i], or of (rows[i] - center) ** 2 when center is
    given, accumulated over fixed-size chunks in index order."""
    acc = np.zeros(rows.shape[1:])
    for lo in range(0, len(w), _CHUNK):
        hi = min(lo + _CHUNK, len(w))
        block = rows[lo:hi] if center is None else (rows[lo:hi] - center) ** 2
        acc += np.einsum("m,m...->...", w[lo:hi], block)
    return acc


def _step(points, weights, xh, n, d, q, forms):
    """One descent step: the objective of the flat estimate xh and the next
    estimate, flat.

    One pass over fixed blocks of _CHUNK samples.  A block aligns each sample
    to xh and adds its weighted minimum costs to the objective.  Except at
    two targets the mappings and costs are batch_optimal_permutations's, and
    slot j takes the sample block that the inverse mapping names.  At two
    targets one point_cost_matrix call scores the block against both
    permuted estimates; the index is 1 where not c1 >= c0 and c0 is not NaN:
    a tie and a NaN c0 go to atom 0 and a NaN c1 alone to atom 1, argmin's
    rule (its first minimum, or its first NaN).
    Without slot weight matrices F_i it adds its weighted aligned sample
    blocks to the average.  With them it adds to the weight sum W_ji and the
    weighted block sum S_ji of the samples whose block i it assigns to slot
    j; after the pass slot j solves sum_i W_ji F_i x = sum_i F_i S_ji.
    """
    m = points.shape[0]
    rows = points.reshape(m * n, d)
    if n == 2:
        atoms = xh[_atom_index_matrix(2, d)]
    else:
        estimate = StackedState(n, d, xh)
    obj = 0.0
    acc = np.zeros((n, d))
    wsum = np.zeros((n, n))
    xsum = np.zeros((n, n, d))
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        if n == 2:
            costs = point_cost_matrix(points[lo:hi], atoms, q)
            c0, c1 = costs.T
            arg = ~(c1 >= c0) & (c0 == c0)  # argmin's index by one comparison
            low = costs.take(arg + 2 * np.arange(hi - lo))
            src = _PAIR_SOURCES.take(arg, axis=0)
        else:
            mappings, low = batch_optimal_permutations(points[lo:hi], estimate, q)
            src = np.empty((hi - lo, n), dtype=np.intp)  # the inverse mappings
            np.put_along_axis(src, mappings, np.arange(n), axis=1)
        w_blk = weights[lo:hi]
        obj += float(np.sum(w_blk * low))
        if forms is None:
            src += (n * np.arange(lo, hi))[:, None]
            acc += np.einsum("m,m...->...", w_blk, rows.take(src, axis=0))
            continue
        blocks = points[lo:hi].reshape(hi - lo, n, d)
        for j in range(n):
            for i in range(n):
                mask = src[:, j] == i
                wsum[j, i] += float(np.sum(w_blk[mask]))
                xsum[j, i] += np.einsum("m,m...->...", w_blk[mask], blocks[mask, i])
    if forms is None:
        return obj, (acc / np.sum(weights)).reshape(-1)
    for j in range(n):
        lhs = np.zeros((d, d))
        rhs = np.zeros(d)
        for i in range(n):
            lhs += wsum[j, i] * forms[i]
            rhs += forms[i] @ xsum[j, i]
        acc[j] = np.linalg.solve(lhs, rhs)
    return obj, acc.reshape(-1)


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
    cfg = config or MmospaConfig()
    n, d = samples.n_targets, samples.state_dim
    if init is not None and (init.n_targets, init.state_dim) != (n, d):
        raise ValueError("init shape does not match samples")
    forms = None if q is None else target_block_forms(q, n, d)

    points, weights = samples.points, samples.weights

    total = float(np.sum(weights))
    mean = _weighted_column_sum(weights, points) / total
    centered_sq = _weighted_column_sum(weights, points, center=mean) / total
    std = np.sqrt(centered_sq)

    memo: dict[bytes, tuple[float, np.ndarray]] = {}
    outcomes: list[RestartOutcome] = []
    best_run = None
    for r in range(cfg.restarts):
        if r == 0:
            x0 = init.data.copy() if init is not None else mean.copy()
        else:
            eta = rng.normals(rng.derive_seed(cfg.seed, 101, r), np.zeros(1, dtype=np.uint64), n * d)[0]
            x0 = mean + std * eta
        xh, trace, outcome = _lloyd_run(points, weights, x0, n, d, q, forms, cfg, memo)
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


def _lloyd_run(points, weights, x0, n, d, q, forms, cfg, memo):
    """One restart's descent from x0: (last estimate, trace, outcome).

    memo maps the bytes of every estimate swept in this mmospa_estimate call
    to its objective and the next estimate; only a miss sweeps.
    """
    def step(xh):
        key = xh.tobytes()
        if key not in memo:
            memo[key] = _step(points, weights, xh, n, d, q, forms)
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
