"""Deterministic random streams.

Every stochastic step derives its generator from a master seed plus a
structured key (stream id, repetition, scenario index, ...), so results are
reproducible and independent of execution order and of batch composition.

:func:`rng` is one stream: a ``SeedSequence(master_seed, spawn_key=key)``
seeding a PCG64 generator (NumPy NEP 19). :func:`rngs` gives the same
generators for the N rows of an ``(N, k)`` key array. It computes
SeedSequence's pool hash for all rows in one pass of uint32 arithmetic and
its PCG64 seed words with it, then starts one PCG64 per row on those words
as the caller asks for it. Row i's generator draws bitwise what ``rng(master_seed, *keys[i])``
draws. Its ``seed_sequence`` only hands out the seed words; it cannot spawn.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

# stream ids; keep stable, they are part of the reproducibility contract
STREAM_SCENARIO = 1
STREAM_MEASUREMENT = 2
STREAM_ANN = 3
STREAM_FAULT = 4

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))


def rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(master_seed, *key))


@cache
def _seed_words_type():
    """The seed sequence a PCG64 takes its four precomputed seed words from.

    Defined on first use: importing ``numpy.random`` here would add to every
    command's start-up.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError("only the PCG64 seed words are held")
            return self.words

    return SeedWords


def rngs(master_seed: int, keys) -> Iterator[np.random.Generator]:
    """Yield the generator ``rng(master_seed, *row)`` of each row of the
    non-negative integer key array ``keys`` ``(N, k)``, bitwise.

    The seed words of every row are computed before the first is yielded;
    each generator is made as it is asked for, so a caller that draws from
    one at a time holds one at a time.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or (keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0)):
        raise ValueError("keys must be an (N, k) array of non-negative integers")
    keys = keys.astype(np.uint64)
    # a key entry is one 32-bit word below 2**32 and two from there on, so
    # rows are hashed in groups of one word layout
    wide = keys >= 2**32
    words = np.empty((len(keys), 4), dtype=np.uint64)
    if wide.any():
        layouts, group = np.unique(wide, axis=0, return_inverse=True)
        for g, layout in enumerate(layouts):
            rows = np.flatnonzero(group.ravel() == g)
            words[rows] = _seed_words(master_seed, keys[rows], layout)
    else:
        words[:] = _seed_words(master_seed, keys, np.zeros(keys.shape[1], dtype=bool))
    seed_words = _seed_words_type()
    return (np.random.Generator(np.random.PCG64(seed_words(row))) for row in words)


def _seed_words(master_seed: int, keys: np.ndarray, wide) -> np.ndarray:
    """PCG64's four uint64 seed words for each row of ``keys``, whose entry j
    is two 32-bit words where ``wide[j]`` and one otherwise: SeedSequence's
    entropy assembly, pool mixing and ``generate_state(4, np.uint64)``, one
    uint32 column at a time."""
    n = len(keys)
    seed = int(master_seed)
    if seed < 0:
        raise ValueError("master_seed must be non-negative")
    columns = []
    while True:  # the seed's little-endian 32-bit words, at least one
        columns.append(np.full(n, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    if keys.shape[1] and len(columns) < _POOL_SIZE:
        # a spawn key pads the seed's words out to the pool size
        columns += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(columns))
    for j, is_wide in enumerate(wide):
        columns.append((keys[:, j] & _MASK32).astype(np.uint32))
        if is_wide:
            columns.append((keys[:, j] >> 32).astype(np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for column in columns[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(column))

    hash_const = _INIT_B
    state = np.empty((n, 8), dtype=np.uint32)
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)
