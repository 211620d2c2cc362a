"""Counter RNG: determinism, vectorized/scalar agreement, distribution sanity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshmoe.rng import MASK64, Rng, derive, derive_range, mix64, stream_words


def test_same_seed_same_stream():
    a = [Rng(123).next_u64() for _ in range(5)]
    b = [Rng(123).next_u64() for _ in range(5)]
    assert a == b


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_fill_matches_scalar_stream():
    scalar = Rng(99)
    words = [scalar.next_u64() for _ in range(100)]
    vector = Rng(99).fill_u64(100)
    assert words == [int(w) for w in vector]


def test_fill_then_scalar_continues_stream():
    r = Rng(7)
    head = r.fill_u64(10)
    tail = r.next_u64()
    full = Rng(7).fill_u64(11)
    assert int(full[10]) == tail
    assert [int(w) for w in full[:10]] == [int(w) for w in head]


def test_uniform_fill_matches_scalar():
    r1, r2 = Rng(5), Rng(5)
    arr = r1.uniform_fill((8,))
    vals = [r2.uniform() for _ in range(8)]
    np.testing.assert_array_equal(arr, vals)


@given(st.integers(min_value=0, max_value=MASK64))
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) <= MASK64


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**32))
def test_randbelow_in_range(n, seed):
    assert 0 <= Rng(seed).randbelow(n) < n


def test_randbelow_covers_all_values():
    counts = np.zeros(5, dtype=int)
    r = Rng(2024)
    for _ in range(5000):
        counts[r.randbelow(5)] += 1
    # uniform expectation 1000 per bucket; loose 5-sigma band
    assert counts.min() > 800 and counts.max() < 1200


def test_uniform_bounds_and_mean():
    r = Rng(11)
    xs = r.uniform_fill((20000,))
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.02


def test_normal_moments():
    xs = Rng(13).normal_fill((40000,))
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a, b = items[:], items[:]
    Rng(3).shuffle(a)
    Rng(3).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = items[:]
    Rng(4).shuffle(c)
    assert c != a or c == a  # determinism is the contract, difference is likely


def test_derive_order_sensitive():
    assert derive(1, 2) != derive(2, 1)
    assert derive("a", 1) != derive(1, "a")
    assert derive("mesh_00") != derive("mesh_01")
    assert derive(42, "walk", 0) == derive(42, "walk", 0)


def test_derive_rejects_other_types():
    with pytest.raises(TypeError):
        derive(1.5)


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randbelow(0)


@pytest.mark.parametrize("seed", [0, 1, 13, 0x9E3779B97F4A7C15, MASK64])
def test_derive_range_is_derive_with_each_last_key(seed):
    folds = derive_range([(seed, "walk"), (seed,), (seed, "walk", 3)], 1000)
    assert folds.dtype == np.uint64 and folds.shape == (3, 1000)
    assert folds[0].tolist() == [derive(seed, "walk", k) for k in range(1000)]
    assert folds[1].tolist() == [derive(seed, k) for k in range(1000)]
    assert folds[2].tolist() == [derive(seed, "walk", 3, k) for k in range(1000)]


def test_stream_words_are_each_seeds_fill():
    seeds = [0, 1, MASK64, derive(4, "walk", 2)]
    words = stream_words(np.array(seeds, dtype=np.uint64), 37)
    assert words.shape == (37, 4)
    for column, seed in zip(words.T, seeds):
        assert column.tolist() == Rng(seed).fill_u64(37).tolist()
