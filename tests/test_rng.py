"""The seeded fields' generator against numpy.random, bit for bit.

``bvqlab._rng.uniform`` reproduces ``numpy.random.default_rng(seed).uniform``
so that the runtime never imports ``numpy.random``; here numpy's generator is
the oracle, compared through the float64 bit patterns.
"""

import math
import random

import numpy as np
import pytest

from bvqlab import _rng

RANGES = [(0.0, 1.0), (0.0, 2 * math.pi), (-3.5, 7.25), (1e-3, 1e3)]

_bits = random.Random(2014)
# one to five 32-bit words: SeedSequence hashes a fifth word after the pool mix
SEEDS = [
    *range(300), 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 1,
    *(_bits.getrandbits(_bits.randint(1, 130)) for _ in range(200)),
]


def _bit_patterns(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("low,high", RANGES, ids=["unit", "two-pi", "signed", "decades"])
def test_uniform_matches_default_rng_bit_for_bit(low, high):
    mismatched = [
        seed for seed in SEEDS
        if not np.array_equal(
            _bit_patterns(_rng.uniform(seed, low, high, 37)),
            _bit_patterns(np.random.default_rng(seed).uniform(low, high, 37)),
        )
    ]
    assert mismatched == []


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**127 + 1])
def test_long_stream_matches_default_rng(seed):
    # 12^2 levels of the packing config and a stream long enough to wrap the
    # rotation count through all 64 values many times
    for n in (1, 145, 5000):
        ours = _bit_patterns(_rng.uniform(seed, -3.5, 7.25, n))
        assert np.array_equal(ours, _bit_patterns(np.random.default_rng(seed).uniform(-3.5, 7.25, n)))


def test_zero_draws_and_an_empty_range():
    assert _rng.uniform(3, 0.0, 1.0, 0).shape == (0,)
    assert _rng.uniform(3, 2.5, 2.5, 4).tolist() == [2.5] * 4


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        _rng.uniform(seed, 0.0, 1.0, 3)
