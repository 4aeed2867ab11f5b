import math

import numpy as np
import pytest

from mospa import CapacityError, Permutation, StackedState, permutation_apply, permutation_enumerate
from mospa.states import batch_permutation_ranks, permutation_array, permuted_atoms


def test_identity_apply_is_noop():
    x = StackedState(3, 2, np.arange(6.0))
    out = permutation_apply(Permutation.identity(3), x)
    assert np.array_equal(out.data, x.data)


def test_swap_two_scalar_blocks():
    x = StackedState(2, 1, [-4.0, 3.0])
    out = permutation_apply(Permutation((1, 0)), x)
    assert np.array_equal(out.data, [3.0, -4.0])


def test_cyclic_shift_of_two_dim_blocks():
    x = StackedState(3, 2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = permutation_apply(Permutation((1, 2, 0)), x)
    assert np.array_equal(out.data, [3.0, 4.0, 5.0, 6.0, 1.0, 2.0])


def test_apply_leaves_input_unchanged():
    x = StackedState(2, 2, [1.0, 2.0, 3.0, 4.0])
    before = x.data.copy()
    permutation_apply(Permutation((1, 0)), x)
    assert np.array_equal(x.data, before)


def test_apply_rejects_size_mismatch():
    x = StackedState(2, 1, [0.0, 1.0])
    with pytest.raises(ValueError):
        permutation_apply(Permutation((0, 2, 1)), x)


def test_compose_rejects_size_mismatch():
    with pytest.raises(ValueError, match="different sizes"):
        Permutation((1, 0)).compose(Permutation((0, 2, 1)))


def test_stacked_state_refuses_no_targets():
    with pytest.raises(ValueError, match="must be positive"):
        StackedState(0, 1, [])


def test_stacked_state_flattens_a_column_of_blocks():
    x = StackedState(2, 1, [[0.0], [1.0]])
    assert x.data.shape == (2,) and np.array_equal(x.data, [0.0, 1.0])


def test_enumerate_small_cases():
    assert [p.mapping for p in permutation_enumerate(1)] == [(0,)]
    assert [p.mapping for p in permutation_enumerate(2)] == [(0, 1), (1, 0)]
    six = permutation_enumerate(3)
    assert len(six) == 6
    assert six[0].mapping == (0, 1, 2)
    assert six[-1].mapping == (2, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumerate_counts_and_distinct(n):
    perms = permutation_enumerate(n)
    assert len(perms) == math.factorial(n)
    assert len({p.mapping for p in perms}) == len(perms)
    # lexicographic ordering of the mappings
    mappings = [p.mapping for p in perms]
    assert mappings == sorted(mappings)


def test_enumerate_cap():
    with pytest.raises(CapacityError, match="40320"):
        permutation_enumerate(9)


def test_composition_convention():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = Permutation(tuple(rng.permutation(n)))
        b = Permutation(tuple(rng.permutation(n)))
        x = StackedState(n, 2, rng.normal(size=2 * n))
        chained = permutation_apply(a, permutation_apply(b, x))
        composed = permutation_apply(a.compose(b), x)
        assert np.array_equal(chained.data, composed.data)


def test_apply_preserves_block_multiset():
    rng = np.random.default_rng(3)
    x = StackedState(5, 3, rng.normal(size=15))
    out = permutation_apply(Permutation(tuple(rng.permutation(5))), x)
    got = {tuple(b) for b in out.blocks()}
    want = {tuple(b) for b in x.blocks()}
    assert got == want


def test_inverse_and_rank_roundtrip():
    for n in (2, 3, 4):
        for k, p in enumerate(permutation_enumerate(n)):
            assert p.rank() == k
            assert p.compose(p.inverse()).mapping == tuple(range(n))
    ranks = batch_permutation_ranks(permutation_array(4))
    assert np.array_equal(ranks, np.arange(24))


def test_rank_refuses_int64_overflow():
    assert Permutation(tuple(range(20))[::-1]).rank() == math.factorial(20) - 1
    with pytest.raises(CapacityError):
        Permutation(tuple(range(21))).rank()


def test_permuted_atoms_matches_apply():
    x = StackedState(3, 2, np.arange(6.0))
    atoms = permuted_atoms(x)
    for k, p in enumerate(permutation_enumerate(3)):
        assert np.array_equal(atoms[k], permutation_apply(p, x).data)


def test_stacked_state_validation():
    with pytest.raises(ValueError):
        StackedState(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        StackedState(1, 2, [np.nan, 0.0])
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_stacked_state_data_is_frozen():
    x = StackedState(2, 1, [1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 5.0
