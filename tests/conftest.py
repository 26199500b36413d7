from functools import partial

import numpy as np
import pytest

from bvqlab import DomainMask, Grid, SampledField, make_field, sample_analytic
from bvqlab.kernels import _power_from_sq, _window_sum


@pytest.fixture
def line_grid():
    return Grid.for_box([-1.0], [1.0], [1024])


@pytest.fixture
def line_mask(line_grid):
    return DomainMask.full(line_grid)


@pytest.fixture
def step_field(line_mask):
    return sample_analytic(make_field("step-1d", position=0.0), line_mask)


@pytest.fixture
def square_grid():
    return Grid.for_box([0.0, 0.0], [1.0, 1.0], [96, 96])


@pytest.fixture
def square_mask(square_grid):
    return DomainMask.full(square_grid)


def random_block_field(mask: DomainMask, seed: int, blocks: int = 6, lo=0.0, hi=1.0) -> SampledField:
    """Seeded blockwise-constant field directly on a mask."""
    rng = np.random.default_rng(seed)
    g = mask.grid
    vals = rng.uniform(lo, hi, size=(blocks,) * g.dim)
    idx = []
    for a in range(g.dim):
        cells = np.minimum((np.arange(g.extents[a]) * blocks) // g.extents[a], blocks - 1)
        shape = [1] * g.dim
        shape[a] = -1
        idx.append(np.broadcast_to(cells.reshape(shape), g.extents))
    return SampledField(mask, vals[tuple(idx)][..., None])


def single_pair_sum(u: SampledField, x_inside, off, q: float) -> float:
    """One displacement's pair sum, summed on its own and uncropped: the
    reference for the mirrored and cropped ``pair_power_sums`` loop."""
    cost = partial(_power_from_sq, q=q)
    total = _window_sum(u, x_inside, [(np.asarray(off).tolist(), 1.0)], cost)
    return 0.0 if total is None else total
