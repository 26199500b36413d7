import math

import numpy as np
import pytest

from bvqlab import DomainMask, EmptyMaskError, Grid, GridRadius, SampledField
from bvqlab.grid import _clear_of


def test_cell_center_convention():
    g = Grid.for_box([-1.0], [1.0], [8])
    assert g.spacing == 0.25
    np.testing.assert_allclose(g.axis_centers(0)[0], -1.0 + 0.125)
    np.testing.assert_allclose(g.axis_centers(0)[-1], 1.0 - 0.125)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(dim=1, origin=(0.0,), spacing=-1.0, extents=(8,))
    with pytest.raises(ValueError):
        Grid(dim=1, origin=(0.0,), spacing=0.1, extents=(3,))
    with pytest.raises(ValueError):
        Grid.for_box([0.0, 0.0], [1.0, 2.0], [10, 10])  # non-uniform spacing


def test_grid_stores_tuples_whatever_sequences_it_is_given():
    # a grid built from lists equals, hashes and masks like the one for_box
    # builds from tuples (a mask's shape is a tuple, never a list)
    g = Grid(2, [0.0, 0.0], 1 / 32, [32, 32])
    ref = Grid.for_box([0, 0], [1, 1], [32, 32])
    assert g.origin == (0.0, 0.0) and all(type(o) is float for o in g.origin)
    assert g.extents == (32, 32) and all(type(e) is int for e in g.extents)
    assert g == ref and hash(g) == hash(ref)
    assert DomainMask.full(g).inside.shape == (32, 32)
    with pytest.raises(ValueError, match="extent must be an integer"):
        Grid(1, [0.0], 0.1, [8.0])


@pytest.mark.parametrize("lo, hi", [([0.0], [float("inf")]), ([float("-inf")], [0.0]),
                                    ([0.0, 0.0], [float("inf"), float("inf")])])
def test_for_box_refuses_an_infinite_box(lo, hi):
    # the spacing comes out inf or nan: no finite cell centre exists
    with pytest.raises(ValueError):
        Grid.for_box(lo, hi, [8] * len(lo))


@pytest.mark.parametrize("origin, spacing", [((float("inf"),), 0.1), ((float("nan"),), 0.1),
                                             ((0.0,), float("inf")), ((0.0,), float("nan"))])
def test_grid_refuses_a_non_finite_origin_or_spacing(origin, spacing):
    with pytest.raises(ValueError, match="finite|positive"):
        Grid(dim=1, origin=origin, spacing=spacing, extents=(8,))


@pytest.mark.parametrize("n", [[1024.7], [64.0], [True], [64, True], 64.5, np.array([64.0])])
def test_for_box_refuses_a_cell_count_that_is_not_an_integer(n):
    # int() would truncate 1024.7 to 1024 cells, and read True as 1
    dims = np.size(n)
    with pytest.raises(ValueError, match="cell count must be an integer"):
        Grid.for_box([0.0] * dims, [1.0] * dims, n)


@pytest.mark.parametrize("n", [[64], (64, 64), 64, np.int64(64), [np.int32(64), 64], np.array([64, 64], dtype=np.uint16)])
def test_for_box_takes_python_and_numpy_integers(n):
    g = Grid.for_box([0.0] * np.size(n), [1.0] * np.size(n), n)
    assert g.extents == (64,) * np.size(n) and all(type(e) is int for e in g.extents)


def test_mask_area_tracks_box():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    m = DomainMask.full(g)
    assert m.area() == pytest.approx(1.0)


def test_ball_mask_area_first_order():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    r = 0.3123
    m = DomainMask.from_predicate(
        g, lambda p: ((p - 0.5) ** 2).sum(axis=1) < r * r
    )
    assert abs(m.area() - np.pi * r * r) < 3 * g.spacing


def test_empty_mask_rejected():
    g = Grid.for_box([0.0], [1.0], [8])
    with pytest.raises(EmptyMaskError):
        DomainMask(g, np.zeros(8, dtype=bool))


def test_erosion_matches_brute_force():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [48, 48])
    rng = np.random.default_rng(3)
    inside = np.ones(g.extents, dtype=bool)
    inside[10:14, 20:30] = False  # a hole
    m = DomainMask(g, inside)
    delta = 4.7 * g.spacing  # not an exact cell distance: no boundary ties
    eroded = m.erode(delta)
    pts = g.points().reshape(g.extents + (2,))
    outside_pts = pts[~inside]
    for _ in range(200):
        i, j = rng.integers(0, 48, size=2)
        p = pts[i, j]
        face = min(p[0], 1 - p[0], p[1], 1 - p[1])
        d_out = np.sqrt(((outside_pts - p) ** 2).sum(axis=1)).min()
        expect = inside[i, j] and min(face, d_out) > delta
        assert eroded.inside[i, j] == expect


def _brute_sq_cells(target: np.ndarray) -> np.ndarray:
    """Squared cell distance to the nearest target cell, one target at a time."""
    idx = np.indices(target.shape)
    best = np.full(target.shape, np.iinfo(np.int64).max)
    for t in np.argwhere(target):
        np.minimum(best, sum((i - c) ** 2 for i, c in zip(idx, t)), out=best)
    return best


@pytest.mark.parametrize("shape", [(61,), (13, 17), (6, 7, 9)])
@pytest.mark.parametrize("density", [0.03, 0.4, 0.9])
def test_clear_of_matches_brute_force(shape, density):
    rng = np.random.default_rng(len(shape) * 100 + int(100 * density))
    target = rng.random(shape) < density
    target.flat[rng.integers(target.size)] = True
    d2 = _brute_sq_cells(target)
    # every radius at which the answer can change, then one past every extent
    radii = [*range(1, int(d2.max()) + 2), 10_000]
    # the whole grid, and an inner box that touches no grid edge
    for box in (tuple((0, e) for e in shape), tuple((2, e - 1) for e in shape)):
        at = tuple(slice(lo, hi) for lo, hi in box)
        for m2 in radii:
            clear = _clear_of(target, m2, box)
            assert clear.dtype == bool
            assert np.array_equal(clear, d2[at] > m2), (box, m2)


@pytest.mark.parametrize("shape", [(64,), (24, 20), (10, 12, 9)])
def test_erosion_at_exact_cell_radii_matches_integer_rule(shape):
    # delta at an exact cell distance ties in floating point; the integer
    # rule keeps a cell iff its squared distance to every outside cell
    # exceeds m2 and its face distance exceeds delta
    rng = np.random.default_rng(sum(shape))
    g = Grid.for_box([0.0] * len(shape), [float(e) / 96 for e in shape], list(shape))
    inside = rng.random(shape) < 0.97
    m = DomainMask(g, inside)
    d2 = _brute_sq_cells(~inside)
    for m2 in (1, 2, 4, 5, 8, 9):
        delta = GridRadius(m2).length(g.spacing)
        expect = inside & (d2 > m2) & (g.face_distance() > delta)
        if expect.any():
            assert np.array_equal(m.erode(delta).inside, expect), m2


def test_disc_erosion_drops_every_cell_at_exactly_the_radius():
    # the disc |x|^2 < 0.8 on [-1, 1]^2 at 96^2 has 136 cells exactly 5
    # cells from the nearest outside cell; "distance > delta" is false there
    g = Grid.for_box([-1.0, -1.0], [1.0, 1.0], [96, 96])
    disc = DomainMask.from_predicate(g, lambda p: (p * p).sum(axis=1) < 0.8)
    on_radius = disc.inside & (_brute_sq_cells(~disc.inside) == 25)
    assert on_radius.sum() == 136
    eroded = disc.erode(GridRadius.from_cells(5).length(g.spacing))
    assert not (eroded.inside & on_radius).any()
    assert eroded.count == int((disc.inside & (_brute_sq_cells(~disc.inside) > 25)).sum())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_distance_matches_scipy_edt(n):
    from scipy import ndimage

    g = Grid.for_box([-1.0] * n, [1.0] * n, [48 if n < 3 else 20] * n)
    ball = DomainMask.from_predicate(g, lambda p: (p * p).sum(axis=1) < 0.6)
    edt = ndimage.distance_transform_edt(ball.inside, sampling=[g.spacing] * n)
    distance = np.minimum(g.face_distance(), edt)
    for m in (1, 3, 5):
        delta = (m + 0.25) * g.spacing  # between cell radii: no distance ties
        assert np.array_equal(ball.erode(delta).inside, ball.inside & (distance > delta)), m


@pytest.mark.parametrize("delta", [math.inf, 1e200, math.nan])
def test_radius_without_a_finite_cell_count_is_refused(delta):
    # these were an OverflowError or a bare int() error wherever a radius
    # became cells, and a NaN erosion of a full mask "emptied the mask"
    from bvqlab import RegimeError, build_mollifier, make_field, mollify, sample_analytic, sample_gradient
    from bvqlab.kernels import bbm_value, directional_value

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [32, 32])
    full = DomainMask.full(g)
    disc = DomainMask.from_predicate(g, lambda p: ((p - 0.5) ** 2).sum(axis=1) < 0.16)
    error, match = (ValueError, "got nan") if math.isnan(delta) else (EmptyMaskError, "emptied")
    for mask in (full, disc):
        with pytest.raises(error, match=match):
            mask.erode(delta)
    spec = make_field("pyramid-eikonal")
    u, grad = sample_analytic(spec, full), sample_gradient(spec, full)
    for call in (
        lambda: bbm_value(u, 2.0, delta),
        lambda: directional_value(u, 2.0, delta, [1.0, 0.0]),
        lambda: mollify(grad, build_mollifier("polynomial-bump", 2, k=2), delta),
    ):
        with pytest.raises(RegimeError, match="not a finite number of cells"):
            call()


def test_erosion_can_empty(line_mask):
    with pytest.raises(EmptyMaskError):
        line_mask.erode(2.0)


def test_field_requires_finite(line_mask):
    vals = np.zeros(line_mask.grid.extents)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        SampledField(line_mask, vals)


def test_translation_helper(line_mask):
    vals = np.arange(1024.0)
    f = SampledField(line_mask, vals)
    t = f.translated([5])
    assert t.values[5 + 10, 0] == vals[10]
    assert not t.mask.inside[:5].any()
