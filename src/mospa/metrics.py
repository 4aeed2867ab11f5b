"""Label-free squared distances and region classification.

The squared distance between two stacked states is the assignment minimum of
per-target squared distances (no square root, no normalization, no cutoff).
Space decomposes into one region per permutation: a point belongs to the
region of the permutation that optimally aligns the estimate to it, with
boundary ties resolved to the lexicographically smallest permutation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assignment import batch_optimal_permutations, optimal_permutation
from .errors import DegenerateEstimateWarning
from .states import Permutation, StackedState, batch_permutation_ranks


@dataclass(frozen=True)
class RegionLabel:
    """Permutation whose region contains a point, plus its lexicographic rank."""

    permutation: Permutation
    index: int


def ospa(x: StackedState, x_hat: StackedState) -> float:
    """min over pi of (x - pi(x_hat))^T (x - pi(x_hat))."""
    return optimal_permutation(x, x_hat)[1]


def gospa(x: StackedState, x_hat: StackedState, q) -> float:
    """min over pi of (x - pi(x_hat))^T Q (x - pi(x_hat)).

    Q must be positive definite and block-diagonal over target slots; reduces
    exactly to ospa for Q = I.
    """
    if q is None:
        raise ValueError("gospa requires a weight matrix; use ospa for Q = I")
    return optimal_permutation(x, x_hat, q)[1]


def has_duplicate_blocks(x_hat: StackedState) -> bool:
    blocks = x_hat.blocks()
    return len(np.unique(blocks, axis=0)) < x_hat.n_targets


def _warn_if_degenerate(x_hat: StackedState) -> None:
    if has_duplicate_blocks(x_hat):
        warnings.warn(
            "estimate has duplicate target blocks; regions degenerate and "
            "labels fall back to the lexicographic tie-break",
            DegenerateEstimateWarning,
            stacklevel=3,
        )


def region_index(x: StackedState, x_hat: StackedState, q=None) -> RegionLabel:
    """Label of the region containing x, computed via the assignment solver."""
    _warn_if_degenerate(x_hat)
    perm, _ = optimal_permutation(x, x_hat, q)
    return RegionLabel(perm, perm.rank())


def batch_region_ranks(points: np.ndarray, x_hat: StackedState, q=None) -> np.ndarray:
    """Region ranks for a (m, dim) batch of points (assignment per point)."""
    _warn_if_degenerate(x_hat)
    mappings, _ = batch_optimal_permutations(points, x_hat, q)
    return batch_permutation_ranks(mappings)
