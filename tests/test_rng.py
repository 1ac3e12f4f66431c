import zlib

import numpy as np
import pytest

from byzfl.rng import _key_prefix, _pools, substream, substreams

# Master seeds of one to four 32-bit words; indices of one or two words, and
# keys with no index or several.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30]
INDICES = [(), (0,), (1,), (2**32 - 1,), (2**32,), (2**40,), (3, 2**40, 0)]


def spawn_key_generator(seed, purpose, *indices):
    """The reference: numpy's own SeedSequence spawn key (tag, *indices)."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, *indices)))


@pytest.mark.parametrize(
    "key",
    [(0, "grad"), (7, "grad", 3, 2), (123456789, "attack", 0), (2**40, "data-x", 99)]
    + [(seed, "grad", *indices) for seed in SEEDS for indices in INDICES],
)
def test_substream_is_the_hand_built_seed_sequence(key):
    seed, purpose, *indices = key
    expected = spawn_key_generator(seed, purpose, *indices)
    for _ in range(2):  # the second call reads the cached tag
        assert substream(seed, purpose, *indices).bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_equal_the_single_keys(seed):
    gens = substreams(seed, "data-x", 40)
    assert len(gens) == 40
    for i, got in enumerate(gens):
        want = spawn_key_generator(seed, "data-x", i)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.standard_normal((2, 3)), want.standard_normal((2, 3)))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 5, 10**30])
@pytest.mark.parametrize("n", [0, 1, 100])
def test_vectorised_pools_equal_seed_sequence_pools(seed, n):
    prefix = _key_prefix(seed, "data-x")
    entropy = np.empty((n, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n)
    pools = _pools(entropy)
    assert pools.dtype == np.uint32 and pools.shape == (n, 4)
    for row, pool in zip(entropy, pools):
        assert pool.tolist() == np.random.SeedSequence(row).pool.tolist()


@pytest.mark.parametrize("length", [4, 5, 9])
def test_vectorised_pools_of_arbitrary_words(length):
    # Rows that differ in every word, the pool-sized rows (no words after the
    # first four) and the extreme words included.
    entropy = np.random.default_rng(length).integers(0, 2**32, (30, length), dtype=np.uint32)
    entropy[0], entropy[1] = 0, 2**32 - 1
    for row, pool in zip(entropy, _pools(entropy)):
        assert pool.tolist() == np.random.SeedSequence(row).pool.tolist()


def test_substreams_of_none_is_empty():
    assert substreams(3, "data-x", 0) == []


def test_substream_rejects_negative_indices():
    with pytest.raises(ValueError):
        substream(0, "grad", 1, -1)
    with pytest.raises(ValueError):
        substream(-1, "grad")
    with pytest.raises(ValueError):
        substreams(0, "data-x", -1)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (40, 10), (100, 20)])
def test_block_draws_are_row_prefixes_of_larger_blocks(rows, cols):
    # Generators fill blocks in C order, so a smaller block is a row prefix
    # of a larger one. No oracle relies on this: each stochastic step moves
    # its generator past the whole (M, .) block, so that the steps sharing a
    # round's generator read the same blocks whatever the batch. A draw
    # trimmed to a leading range would stay bitwise right only for a
    # generator used once.
    for stop in (0, 1, rows // 2, rows):
        full = substream(5, "prefix", rows, cols)
        part = substream(5, "prefix", rows, cols)
        assert np.array_equal(part.random((stop, cols)), full.random((rows, cols))[:stop])
        full = substream(6, "prefix", rows, cols)
        part = substream(6, "prefix", rows, cols)
        assert np.array_equal(part.standard_normal((stop, cols)), full.standard_normal((rows, cols))[:stop])
