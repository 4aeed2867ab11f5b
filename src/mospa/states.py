"""Stacked multi-target states and block permutations.

A stacked state is the concatenation of N per-target state vectors into a
single point of R^(N*n_x); target i occupies the contiguous slice
[i*n_x, (i+1)*n_x).  Permutations act block-wise on that vector.  All
enumeration everywhere in the package is in lexicographic order of the
permutation mapping, and every argmin tie resolves to the lexicographically
smallest permutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError

# Full enumeration is factorial in the number of targets; 8! = 40320 atoms is
# the largest size the discrete-measure machinery is allowed to materialize.
MAX_TARGETS = 8


def _check_target_count(n: int) -> None:
    if not 1 <= n <= MAX_TARGETS:
        raise CapacityError(
            f"target count {n} outside [1, {MAX_TARGETS}]; enumeration is "
            f"factorial ({MAX_TARGETS}! = {math.factorial(MAX_TARGETS)} permutations)"
        )


@dataclass(frozen=True, eq=False)
class StackedState:
    """Point in R^(n_targets * state_dim) holding one block per target."""

    n_targets: int
    state_dim: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_targets < 1 or self.state_dim < 1:
            raise ValueError("n_targets and state_dim must be positive")
        data = np.array(self.data, dtype=float, copy=True).reshape(-1)
        if data.size != self.n_targets * self.state_dim:
            raise ValueError(
                f"data length {data.size} != n_targets*state_dim = "
                f"{self.n_targets * self.state_dim}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("stacked state entries must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_blocks(cls, blocks) -> "StackedState":
        blocks = np.atleast_2d(np.asarray(blocks, dtype=float))
        return cls(blocks.shape[0], blocks.shape[1], blocks.reshape(-1))

    @property
    def dim(self) -> int:
        return self.n_targets * self.state_dim

    def block(self, i: int) -> np.ndarray:
        return self.data[i * self.state_dim : (i + 1) * self.state_dim]

    def blocks(self) -> np.ndarray:
        """View of the data as an (n_targets, state_dim) array."""
        return self.data.reshape(self.n_targets, self.state_dim)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; index i maps to mapping[i]."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"mapping {mapping} is not a bijection on 0..{len(mapping) - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation c with apply(c, x) == apply(self, apply(other, x)).

        Block i of apply(other, x) is x[other(i)], so block i of the chained
        application is x[other(self(i))]: c(i) = other(self(i)).
        """
        if len(self) != len(other):
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.mapping[v] for v in self.mapping))

    def rank(self) -> int:
        """Position of this permutation in the lexicographic enumeration."""
        return int(batch_permutation_ranks(np.array([self.mapping], dtype=np.intp))[0])


def permutation_apply(pi: Permutation, x: StackedState) -> StackedState:
    """Reorder the target blocks of x: output block i is input block pi(i)."""
    if len(pi) != x.n_targets:
        raise ValueError(f"permutation size {len(pi)} != n_targets {x.n_targets}")
    blocks = x.blocks()[list(pi.mapping)]
    return StackedState(x.n_targets, x.state_dim, blocks.reshape(-1))


@lru_cache(maxsize=None)
def permutation_enumerate(n: int) -> tuple[Permutation, ...]:
    """All n! permutations of {0..n-1} in lexicographic mapping order."""
    return tuple(Permutation(p) for p in permutation_array(n).tolist())


@lru_cache(maxsize=None)
def permutation_array(n: int) -> np.ndarray:
    """(n!, n) int array of all mappings, lexicographic row order, read-only."""
    _check_target_count(n)
    arr = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _atom_index_matrix(n_targets: int, state_dim: int) -> np.ndarray:
    """(n!, n*state_dim) gather indices so that data[idx[p]] == perm_p applied."""
    perms = permutation_array(n_targets)
    offsets = np.arange(state_dim, dtype=np.intp)
    idx = (perms[:, :, None] * state_dim + offsets[None, None, :]).reshape(perms.shape[0], -1)
    idx.setflags(write=False)
    return idx


def permuted_atoms(x_hat: StackedState) -> np.ndarray:
    """(n!, dim) array whose row p is permutation p of x_hat, canonical order."""
    idx = _atom_index_matrix(x_hat.n_targets, x_hat.state_dim)
    return x_hat.data[idx]


def batch_permutation_ranks(mappings: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of an (m, n) batch of permutation mappings."""
    mappings = np.asarray(mappings)
    m, n = mappings.shape
    if n > 20:  # 21! - 1 does not fit in int64
        raise CapacityError(f"ranks of permutations of {n} > 20 elements overflow int64")
    ranks = np.zeros(m, dtype=np.intp)
    for i in range(n):
        smaller_later = (mappings[:, i + 1 :] < mappings[:, i : i + 1]).sum(axis=1)
        ranks += smaller_later * math.factorial(n - 1 - i)
    return ranks
