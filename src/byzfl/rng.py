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
"""

import zlib
from functools import lru_cache

import numpy as np

__all__ = ["substream"]


@lru_cache(maxsize=None)
def _tag(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def substream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return a fresh generator for the draw identified by the key.

    The purpose string is folded to a 32-bit tag with CRC-32 (stable across
    runs and platforms, unlike ``hash``; cached per purpose) and combined
    with the indices into a ``SeedSequence`` spawn key.

    Parameters:

        master_seed: experiment-level seed, shared by all substreams.
        purpose: name of the draw site.
        indices: integer coordinates of the draw (round, user, ...).

    Returns:

        numpy.random.Generator seeded purely from the key.
    """
    key = (_tag(purpose), *map(int, indices))
    if min(key) < 0:
        raise ValueError(f"substream indices must be nonnegative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))
