"""Keyed random-number substreams for order-independent reproducibility.

Every random draw in a simulation is produced by a generator derived from
``(master_seed, purpose, *indices)``, where ``purpose`` is a short string
naming the draw site (e.g. ``"grad"``, ``"attack"``) and the indices
locate the draw (the round for gradient and attack draws, the user for
data draws). A generator serves a whole draw site: a round's local steps
read successive blocks of its ``"grad"`` stream, and each block holds a
fixed row per client. Because the generator is a pure function of the
key, the same draw is obtained no matter which order clients are
evaluated in, and across runs with the same master seed.

Key to entropy: the key's generator is numpy's ``PCG64`` seeded from
``SeedSequence(master_seed, spawn_key=(tag, *indices))``, where ``tag`` is
the purpose's CRC-32. That SeedSequence mixes the 32-bit words (least
significant first; one word 0 for 0) of the master seed, zero-padded to
four words, then the tag's word, then each index's words. Both functions
here mix that assembled array directly, which gives the same pool, so
every generator equals the spawn-key one state for state.
"""

import zlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "substreams"]

_MASK32 = 0xFFFFFFFF


def _output_hash_constants() -> tuple[np.ndarray, np.ndarray]:
    """The constants ``SeedSequence.generate_state`` xors into, then multiplies by, each of 8 output words.

    They do not depend on the pool: INIT_B times successive powers of MULT_B.
    """
    h = [0x8B51F9DD]
    for _ in range(8):
        h.append(h[-1] * 0x58F38DED & _MASK32)
    return np.array(h[:8], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


_HASH_XOR, _HASH_MUL = _output_hash_constants()


class _StateWords(ISeedSequence):
    """Seeds one ``PCG64`` with its four precomputed state words; cannot spawn."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the four uint64 words PCG64 asks for")
        return self.words


@lru_cache(maxsize=None)
def _tag(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence coerces an integer."""
    if n < 0:
        raise ValueError(f"substream seeds and indices must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _key_prefix(master_seed: int, purpose: str) -> list[int]:
    """The assembled entropy words before the indices: the seed's, padded to four, then the tag."""
    words = _words(int(master_seed))
    return words + [0] * (4 - len(words)) + [_tag(purpose)]


def substream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return a fresh generator for the draw identified by the key.

    The purpose string is folded to a 32-bit tag with CRC-32 (stable across
    runs and platforms, unlike ``hash``; cached per purpose), and the key's
    entropy words are assembled as the module docstring states.

    Parameters:

        master_seed: experiment-level seed, shared by all substreams.
        purpose: name of the draw site.
        indices: integer coordinates of the draw (round, user, ...).

    Returns:

        numpy.random.Generator seeded purely from the key.
    """
    entropy = _key_prefix(master_seed, purpose)
    for i in indices:
        entropy += _words(int(i))
    seq = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def substreams(master_seed: int, purpose: str, n: int) -> list[np.random.Generator]:
    """The generators ``substream(master_seed, purpose, i)`` for i in range(n), built as one batch.

    numpy's SeedSequence mixes each key's pool; the 8 output words of all
    pools are then hashed in one vectorised pass, as
    ``SeedSequence.generate_state(4, np.uint64)`` hashes one pool, and each
    ``PCG64`` is seeded from its row. The generators cannot ``spawn``.
    """
    prefix = _key_prefix(master_seed, purpose)
    entropy = np.empty((n, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(n)
    pools = np.array([np.random.SeedSequence(e).pool for e in entropy], dtype=np.uint32).reshape(n, 4)
    out = np.tile(pools, 2) ^ _HASH_XOR
    out *= _HASH_MUL
    out ^= out >> np.uint32(16)
    state = out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << np.uint64(32)
    return [np.random.Generator(np.random.PCG64(_StateWords(words))) for words in state]
