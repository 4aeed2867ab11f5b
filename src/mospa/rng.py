"""Stateless counter-based random streams.

Every draw is a pure function of (seed, sample index, draw index), so sampling
is bit-reproducible no matter how the sample axis is chunked or parallelized.
The generator is a SplitMix64-style finalizer over a keyed counter; Box-Muller
turns pairs of uniforms into normals.  Statistical quality is far beyond what
the 4-standard-error Monte Carlo tolerances in this package can resolve.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_STREAM = np.uint64(0xD1B54A32D192ED03)
_DRAW = np.uint64(0x8BB84B93962EACC9)
_TWO_NEG53 = 2.0 ** -53


def _mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # modular uint64 wraparound is the whole point; silence overflow warnings
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX_A
        x ^= x >> np.uint64(27)
        x *= _MIX_B
        x ^= x >> np.uint64(31)
    return x


# streams are keyed on 64 bits: a larger seed would alias seed & MAX_SEED
MAX_SEED = 0xFFFF_FFFF_FFFF_FFFF


def derive_seed(seed: int, *path: int) -> int:
    """Fold a sequence of stream labels into a sub-seed, deterministically."""
    h = np.uint64(seed & MAX_SEED)
    with np.errstate(over="ignore"):
        for p in path:
            h = _mix64(h ^ (np.uint64(p & MAX_SEED) * _STREAM))
    return int(h)


def _keyed_words(seed: int, index: np.ndarray, draw: int) -> np.ndarray:
    base = _mix64(np.uint64(seed & MAX_SEED))
    with np.errstate(over="ignore"):
        counters = base + index.astype(np.uint64) * _STREAM + np.uint64(draw) * _DRAW
    return _mix64(counters)


def uniforms(seed: int, index: np.ndarray, draw: int) -> np.ndarray:
    """Uniforms on (0, 1], one per entry of index, for stream (seed, draw)."""
    w = _keyed_words(seed, index, draw)
    return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53


def normals(seed: int, index: np.ndarray, n_draws: int) -> np.ndarray:
    """(len(index), n_draws) standard normals via per-draw Box-Muller pairs.

    Draw j of sample i consumes the uniform pair (2j+1, 2j+2) of stream
    (seed, i); draw 0 of every stream is reserved for the caller (component
    selection in the mixture sampler).
    """
    out = np.empty((index.size, n_draws))
    for j in range(n_draws):
        u1 = uniforms(seed, index, 2 * j + 1)
        u2 = uniforms(seed, index, 2 * j + 2)
        out[:, j] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out
