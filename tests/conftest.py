import os
from pathlib import Path

import numpy as np
import pytest

from mospa import GaussianMixture, Scenario, StackedState, transport

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env(**extra):
    """os.environ plus `extra`, with this checkout's src first on PYTHONPATH,
    so that `python -m mospa.cli` children import it without an install."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def random_spd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    m = a @ a.T + 0.3 * dim * np.eye(dim)
    return scale * (m + m.T) / 2.0


def normalized_weights(rng, k):
    w = rng.random(k) + 0.2
    w = w / w.sum()
    w[np.argmax(w)] += 1.0 - w.sum()
    return w


def random_mixture(rng, n_targets, state_dim, n_components=2, spread=5.0, cov_scale=1.0):
    dim = n_targets * state_dim
    weights = normalized_weights(rng, n_components)
    means = rng.uniform(-spread, spread, size=(n_components, dim))
    covs = np.stack([random_spd(rng, dim, cov_scale) for _ in range(n_components)])
    return GaussianMixture(n_targets, state_dim, weights, means, covs)


def random_x_hat(rng, n_targets, state_dim, spread=5.0):
    return StackedState(n_targets, state_dim,
                        rng.uniform(-spread, spread, size=n_targets * state_dim))


def random_scenario(seed, n_targets, state_dim, n_components=2, sample_count=2000,
                    cov_scale=1.0, with_q=False):
    rng = np.random.default_rng(seed)
    mixture = random_mixture(rng, n_targets, state_dim, n_components, cov_scale=cov_scale)
    q = None
    if with_q:
        q = block_diagonal_q(rng, n_targets, state_dim)
    return Scenario(n_targets, state_dim, mixture, seed=seed, sample_count=sample_count,
                    q_matrix=q)


def block_diagonal_q(rng, n_targets, state_dim):
    """Random PD weight that decomposes over target slots."""
    dim = n_targets * state_dim
    q = np.zeros((dim, dim))
    for i in range(n_targets):
        sl = slice(i * state_dim, (i + 1) * state_dim)
        q[sl, sl] = random_spd(rng, state_dim, 0.5 + rng.random())
    return q


def assignment_case(kind, n, d, m, seed):
    """(points, x_hat, q) for the batched assignment kernel, by kind:
    continuous, tied (coordinates in {-1, 0, 1}: integer costs with many
    exact ties), duplicate (repeated estimate blocks), near-tie (tied
    coordinates moved by multiples of 2**-44, so that many alternatives sit
    within the kernel's tie tolerance without being exact ties) or weighted
    (a block-diagonal Q)."""
    rng = np.random.default_rng(seed)
    if kind in ("tied", "near-tie"):
        points = rng.integers(-1, 2, size=(m, n * d)).astype(float)
        blocks = rng.integers(-1, 2, size=(n, d)).astype(float)
        if kind == "near-tie":
            points += rng.integers(-2, 3, size=points.shape) * 2.0**-44
    else:
        points = rng.normal(size=(m, n * d))
        blocks = rng.normal(size=(n, d))
        if kind == "duplicate":
            blocks[n // 2:] = blocks[0]
    q = block_diagonal_q(rng, n, d) if kind == "weighted" else None
    return points, StackedState.from_blocks(blocks), q


def two_mode_mixture(sigma=1.0):
    """Symmetric pair of modes at the block swap of (-4, 3)."""
    cov = (sigma**2 * np.eye(2))
    return GaussianMixture.from_components(2, 1, [
        (0.5, [-4.0, 3.0], cov),
        (0.5, [3.0, -4.0], cov),
    ])


@pytest.fixture
def fig_mixture():
    return two_mode_mixture(1.0)


@pytest.fixture
def fig_x_hat():
    return StackedState(2, 1, [-4.0, 3.0])


def stop_at_the_start(monkeypatch):
    """Patch the simplex's pricing to find no entering arc, so a solve stops
    at its greedy start: a feasible basis tree, whose duals close the gap
    but are not feasible."""
    reprice = transport._reprice

    def no_entering_arc(*args):
        reprice(*args)
        args[7][:] = 0.0  # row_min

    monkeypatch.setattr(transport, "_reprice", no_entering_arc)
