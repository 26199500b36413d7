"""Block sampling against one evaluation at every cell centre, and the memory
that sampling and field validation take.

``sample_analytic`` and ``sample_gradient`` evaluate over C-ordered blocks
of whole axis-0 rows (``grid._sample_rows``).  Every catalog evaluation
acts point by point, so each block's values are the floats one evaluation
at all centres gives: the comparisons here are bit for bit, with the block
size patched so that blocks split axis 0 and the last block is short, and
at the library's own block size.
"""

import math
import tracemalloc

import numpy as np
import pytest

import bvqlab.grid as grid_module
from bvqlab import DomainMask, Grid, SampledField, make_field, sample_analytic, sample_gradient
from conftest import reference_points, reference_sample

# (kind, params) per dimension: every catalog kind that has that dimension
CATALOG = {
    1: [
        ("constant", {"value": [2.5]}),
        ("linear", {"slope": [1.3], "offset": 0.2}),
        ("step-1d", {"position": 0.37}),
        ("ball-indicator", {"center": [0.41], "radius": 0.2}),
        ("piecewise-constant-multi", {}),
        ("block-random", {"dim": 1, "seed": 2}),
        ("hoelder", {"s": 0.6, "seed": 3}),
        ("ramp", {}),
        ("sine-1d", {"cycles": 3}),
        ("pyramid-eikonal", {"lo": [-1.0], "hi": [1.0]}),
        ("cone-eikonal", {"center": [0.1], "radius0": 0.5}),
        ("zigzag-eikonal", {"dim": 1}),
    ],
    2: [
        ("constant", {"value": [1.0, -2.0], "dim": 2}),
        ("linear", {"slope": [0.7, -1.1], "offset": 0.3}),
        ("half-plane-indicator", {"normal": [0.6, 0.8], "offset": 0.5}),
        ("polygon-indicator", {}),
        ("ball-indicator", {}),
        ("block-random", {"seed": 5}),
        ("pyramid-eikonal", {}),
        ("cone-eikonal", {}),
        ("zigzag-eikonal", {}),
    ],
    3: [
        ("constant", {"value": [0.5], "dim": 3}),
        ("linear", {"slope": [1.0, 2.0, -3.0]}),
        ("ball-indicator", {"center": [0.5, 0.47, 0.52], "radius": 0.3}),
        ("block-random", {"dim": 3, "seed": 7}),
        ("pyramid-eikonal", {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}),
        ("cone-eikonal", {"center": [0.5, 0.47, 0.52]}),
        ("zigzag-eikonal", {"dim": 3}),
    ],
}
CASES = [(dim, kind, params) for dim, entries in CATALOG.items() for kind, params in entries]
CASE_IDS = [f"{kind}-{dim}d" for dim, kind, _ in CASES]

# grids whose first extent is not a multiple of the patched block rows, and
# the patched block size in cells: 7 blocks of 5 rows and one of 2 in 1D,
# 4 of 3 rows and one of 1 in 2D, 3 of 2 rows and one of 1 in 3D
SPLIT = {1: ((37,), 5), 2: ((13, 11), 33), 3: ((7, 5, 6), 60)}


def _box(n, lo=None) -> Grid:
    """A grid of ``n`` cells with spacing 1/n[0] from ``lo`` (the origin by
    default; [-1, 1] for a 1D grid, where the 1D kinds have their jumps)."""
    if lo is None:
        lo = [-1.0] if len(n) == 1 else [0.0] * len(n)
    h = (2.0 if len(n) == 1 else 1.0) / n[0]
    return Grid.for_box(lo, [a + e * h for a, e in zip(lo, n)], list(n))


def _split_grid(dim, monkeypatch):
    n, block = SPLIT[dim]
    monkeypatch.setattr(grid_module, "_BLOCK_CELLS", block)
    g = _box(n)
    rows = block // math.prod(n[1:])
    assert 1 < rows < n[0] and n[0] % rows  # several blocks, the last one short
    return g


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _has_gradient(spec, grid) -> bool:
    try:
        spec.gradient(reference_points(grid)[:1])
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("dim, kind, params", CASES, ids=CASE_IDS)
def test_block_sampling_matches_one_evaluation(dim, kind, params, monkeypatch):
    g = _split_grid(dim, monkeypatch)
    spec = make_field(kind, **params)
    mask = DomainMask.full(g)
    assert _same_bits(sample_analytic(spec, mask).values, reference_sample(spec, g))
    if _has_gradient(spec, g):
        grad = sample_gradient(spec, mask)
        assert _same_bits(grad.values, reference_sample(spec, g, gradient=True))
    else:
        with pytest.raises(ValueError, match="no analytic gradient"):
            sample_gradient(spec, mask)


@pytest.mark.parametrize("kind, params, n", [
    ("half-plane-indicator", {"normal": [0.6, 0.8], "offset": 0.5}, [300, 301]),
    ("linear", {"slope": [0.7, -1.1], "offset": 0.3}, [300, 301]),
    ("cone-eikonal", {}, [300, 301]),
    ("ball-indicator", {"center": [0.5, 0.47, 0.52], "radius": 0.3}, [40, 41, 43]),
    ("hoelder", {"seed": 4}, [40000]),
])
def test_block_sampling_at_the_library_block_size(kind, params, n):
    g = _box(n, [0.0] * len(n))
    assert math.prod(n) > grid_module._BLOCK_CELLS  # several blocks
    spec = make_field(kind, **params)
    mask = DomainMask.full(g)
    assert _same_bits(sample_analytic(spec, mask).values, reference_sample(spec, g))
    if _has_gradient(spec, g):
        assert _same_bits(sample_gradient(spec, mask).values, reference_sample(spec, g, gradient=True))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_predicate_calls_the_predicate_once_on_all_centres(dim, monkeypatch):
    g = _split_grid(dim, monkeypatch)
    centre = np.linspace(0.41, 0.53, dim)
    calls = []

    def disc(p):
        # not point by point: it reads the largest coordinate of all centres
        calls.append(p.shape)
        return ((p - centre) ** 2).sum(axis=1) < (0.3 * p.max()) ** 2

    m = DomainMask.from_predicate(g, disc)
    assert calls == [(math.prod(g.extents), dim)]
    expect = np.asarray(disc(reference_points(g)), dtype=bool).reshape(g.extents)
    assert m.inside.dtype == bool and np.array_equal(m.inside, expect)
    assert 0 < m.count < math.prod(g.extents)


def test_points_are_the_meshgrid_centres_and_not_kept():
    g = _box([5, 7, 6], [0.0, -1.0, 2.0])
    pts = g.points()
    assert _same_bits(pts, reference_points(g))
    assert g.points() is not pts  # built on each call


# --------------------------------------------------------------------------
# Memory, by tracemalloc: sampling holds the values plus one block.
# --------------------------------------------------------------------------


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def _one_shot_sampling(spec, mask):
    """Sampling as one evaluation over all centres: the centre mesh kept
    with the grid, the stacked points, and a gather of the inside values
    for the finite check."""
    g = mask.grid
    mesh = np.meshgrid(*[g.axis_centers(a) for a in range(g.dim)], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = spec.evaluate(pts, h=g.spacing).reshape(g.extents + (spec.d,))
    assert np.isfinite(vals[mask.inside]).all()
    return vals


MEMORY_GRIDS = {1: [65536], 2: [256, 256], 3: [48, 48, 48]}


@pytest.mark.parametrize("dim, kind, params", CASES, ids=CASE_IDS)
def test_sampling_memory_at_or_below_one_evaluation(dim, kind, params):
    n = MEMORY_GRIDS[dim]
    g = Grid.for_box([0.0] * dim, [1.0] * dim, n)
    spec = make_field(kind, **params)
    mask = DomainMask.full(g)
    sample_analytic(spec, DomainMask.full(Grid.for_box([0.0] * dim, [1.0] * dim, [4] * dim)))
    ours, u = _peak(lambda: sample_analytic(spec, mask))
    one_shot, vals = _peak(lambda: _one_shot_sampling(spec, mask))
    assert _same_bits(u.values, vals)
    assert ours <= one_shot, (ours / vals.nbytes, one_shot / vals.nbytes)


@pytest.mark.parametrize("kind, params, n", [
    ("half-plane-indicator", {}, [512, 512]),
    ("ball-indicator", {"center": [0.5, 0.47, 0.52], "radius": 0.3}, [64, 64, 64]),
])
def test_sampling_memory_is_the_values_plus_one_block(kind, params, n):
    g = Grid.for_box([0.0] * len(n), [1.0] * len(n), n)
    spec = make_field(kind, **params)
    sample_analytic(spec, DomainMask.full(Grid.for_box([0.0] * len(n), [1.0] * len(n), [4] * len(n))))
    mask = DomainMask.full(g)
    peak, u = _peak(lambda: sample_analytic(spec, mask))
    # one evaluation at all centres took 8x (512^2) and 13x (64^3)
    assert peak < 3.0 * u.values.nbytes, peak / u.values.nbytes


@pytest.mark.parametrize("masked", [False, True])
def test_validating_a_field_gathers_nothing(masked):
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    mask = DomainMask.full(g)
    if masked:
        mask = DomainMask.from_predicate(g, lambda p: ((p - 0.5) ** 2).sum(axis=1) < 0.2)
    vals = np.random.default_rng(0).normal(size=g.extents + (1,))
    SampledField(DomainMask.full(Grid.for_box([0.0], [1.0], [4])), np.zeros(4))
    peak, u = _peak(lambda: SampledField(mask, vals))
    assert u.values is vals  # a contiguous float64 array is taken as it is
    # a boolean gather of the inside values took 1.1x: a copy plus int64 indices
    assert peak < 0.5 * vals.nbytes, peak / vals.nbytes


@pytest.mark.parametrize("d", [1, 3])
def test_validation_refuses_exactly_the_non_finite_inside_cells(d):
    g = _box([9, 8])
    inside = np.ones(g.extents, dtype=bool)
    inside[2:5, 3:7] = False
    mask = DomainMask(g, inside)
    rng = np.random.default_rng(d)
    for bad in (np.nan, np.inf, -np.inf):
        for cell in [(0, 0), (8, 7), (3, 2), (3, 3), (4, 6)]:
            for comp in range(d):
                vals = rng.normal(size=g.extents + (d,))
                vals[cell + (comp,)] = bad
                if inside[cell]:
                    with pytest.raises(ValueError, match="non-finite values inside"):
                        SampledField(mask, vals, d=d)
                else:
                    SampledField(mask, vals, d=d)  # outside cells are not checked
