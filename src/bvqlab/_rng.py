"""numpy's ``default_rng(seed).uniform(low, high, n)`` in integer Python.

The seeded catalog fields take a few dozen to a few thousand draws, and
importing ``numpy.random`` for them costs each process more memory and time
than the draws.  This reproduces numpy's stream bit for bit from its three
parts: SeedSequence pool hashing of the seed's 32-bit words, PCG64 seeding
and XSL-RR 128/64 stepping (O'Neill, "PCG: a family of simple fast
space-efficient statistically good algorithms", 2014), and the 53-bit double
``low + (high - low) * ((x >> 11) * 2**-53)``.  A draw costs about 1 µs,
so past some 1.5-3 * 10^4 draws the import would be the cheaper of the two.
The draws are written into one float64 array, 8 bytes each.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's default pool size, in 32-bit words


def _seed_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64's 128-bit
    initial state and stream selector."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = []
    while seed or not entropy:
        entropy.append(seed & _M32)
        seed >>= 32

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    # little-endian pairs of 32-bit words are the four 64-bit state words
    u64 = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


def uniform(seed: int, low: float, high: float, n: int) -> np.ndarray:
    """``numpy.random.default_rng(seed).uniform(low, high, n)``, bit for bit,
    for a finite ``high - low >= 0`` (numpy refuses any other)."""
    initstate, initseq = _seed_state(seed)
    return np.fromiter(_stream(initstate, initseq, low, high - low), np.float64, count=n)


def _stream(initstate: int, initseq: int, low: float, span: float):
    # PCG64 seeding: from state 0 with an odd increment, step, add the
    # initial state, step; each draw steps, then outputs the new state
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        r = state >> 122
        x = (x >> r | x << (64 - r)) & _M64
        yield low + span * ((x >> 11) * 2**-53)
