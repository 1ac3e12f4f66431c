import zlib

import numpy as np
import pytest

from byzfl.rng import substream


@pytest.mark.parametrize("key", [(0, "grad"), (7, "grad", 3, 2), (123456789, "attack", 0), (2**40, "data-x", 99)])
def test_substream_is_the_hand_built_seed_sequence(key):
    seed, purpose, *indices = key
    tag = zlib.crc32(purpose.encode("utf-8"))
    expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, *indices)))
    for _ in range(2):  # the second call reads the cached tag
        assert substream(seed, purpose, *indices).bit_generator.state == expected.bit_generator.state


def test_substream_rejects_negative_indices():
    with pytest.raises(ValueError):
        substream(0, "grad", 1, -1)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (40, 10), (100, 20)])
def test_block_draws_are_row_prefixes_of_larger_blocks(rows, cols):
    # Generators fill blocks in C order, so a smaller block is a row prefix
    # of a larger one. No oracle relies on this: each stochastic step draws
    # its whole (M, .) block, so that the steps sharing a round's generator
    # read the same blocks whatever the batch. A draw trimmed to a leading
    # range would stay bitwise right only for a generator used once.
    for stop in (0, 1, rows // 2, rows):
        full = substream(5, "prefix", rows, cols)
        part = substream(5, "prefix", rows, cols)
        assert np.array_equal(part.random((stop, cols)), full.random((rows, cols))[:stop])
        full = substream(6, "prefix", rows, cols)
        part = substream(6, "prefix", rows, cols)
        assert np.array_equal(part.standard_normal((stop, cols)), full.standard_normal((rows, cols))[:stop])
