"""Bit-for-bit pins of the shifted-difference sums against the plain numpy
expressions in ``conftest`` (fresh temporaries per window, a boolean gather
per masked window, no count path).

The buffer path writes every step of those expressions into one buffer per
pass, in the same order; the count path returns the pair counts of a {0, 1}
field from FFT correlations.  Both must give the reference's floats exactly, so
the comparisons here are on bytes and ``float.hex``, never at a tolerance.
"""

import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    EmptyMaskError,
    Grid,
    GridRadius,
    PowerPairCost,
    RegimeError,
    SampledField,
    ag_chain_reports,
    bbm_ladder,
    bbm_ladders,
    bbm_sweep,
    bbm_sweeps,
    build_mollifier,
    check_ag_upper_bound,
    directional_value,
    directional_w_limit,
    make_field,
    sample_analytic,
    sample_gradient,
)
from bvqlab import _correlation, kernels
from bvqlab.kernels import lattice_offsets, pair_power_sums
from conftest import (
    SmoothRationalPairCost,
    reference_directional,
    reference_pair_power_sums,
    reference_power,
    reference_shift_stencil,
)

KAPPA = 2.0  # tiny grids need radii of a few cells
QS = [1.0, 1.5, 2.0, 3.0, 4.0]
GRIDS = {1: (41,), 2: (19, 16), 3: (9, 8, 10)}
RADII = {1: 36, 2: 10, 3: 5}  # squared cells


def _grid(dim):
    ext = GRIDS[dim]
    return Grid.for_box([0.0] * dim, [e / 10.0 for e in ext], list(ext))


def _mask(g, kind, seed=0):
    idx = np.indices(g.extents)
    c = [(e - 1) / 2.0 for e in g.extents]
    r2 = sum((i - ci) ** 2 for i, ci in zip(idx, c))
    rad2 = (min(g.extents) / 2.0) ** 2
    rng = np.random.default_rng(seed + 11)
    if kind == "full":
        inside = np.ones(g.extents, dtype=bool)
    elif kind == "disc":
        inside = r2 < rad2
    elif kind == "holed":
        inside = (r2 > 0.1 * rad2) & (rng.random(g.extents) > 0.15)
    else:  # random
        inside = rng.random(g.extents) < 0.8
    inside.flat[g.extents[-1] // 2] = True  # never empty
    return DomainMask(g, inside)


def _values(mask, d, kind, seed):
    """Values on every cell, outside ones included (sampled fields keep
    them): normal noise, or a two-level field of the given levels."""
    rng = np.random.default_rng(seed)
    shape = mask.grid.extents + (d,)
    if kind == "normal":
        return rng.normal(size=shape)
    lo, hi = {"01": (0.0, 1.0), "02": (0.0, 2.0), "01ulp": (0.0, 1.0 + 2.0**-52)}[kind]
    return np.where(rng.random(shape) < 0.45, hi, lo)


def _x_mask(u, kind, seed=0):
    if kind is None:
        return None
    if kind == "eroded":
        return u.mask.erode(2.0 * u.grid.spacing)
    rng = np.random.default_rng(seed + 23)
    pick = rng.random(u.grid.extents) < 0.6
    if kind == "random":  # inside the field mask
        pick &= u.mask.inside
    else:  # "loose": also cells outside the field mask
        pick[~u.mask.inside] = True
    pick.flat[np.flatnonzero(u.mask.inside)[0]] = True
    return DomainMask(u.grid, pick)


def _field(dim, d, mask_kind, value_kind, seed):
    mask = _mask(_grid(dim), mask_kind, seed)
    return SampledField(mask, _values(mask, d, value_kind, seed), d=d)


def _spy_windows(monkeypatch):
    calls = []
    real = kernels._window_sum

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "_window_sum", spy)
    return calls


CASES = [
    (dim, d, mask_kind, x_kind)
    for dim in (1, 2, 3)
    for d in ((1, 2) if dim < 3 else (1, 3))
    for mask_kind in ("full", "disc", "holed", "random")
    for x_kind in (None, "eroded", "random", "loose")
]


@pytest.mark.parametrize("dim, d, mask_kind, x_kind", CASES)
def test_pair_sums_equal_the_reference_bit_for_bit(dim, d, mask_kind, x_kind, monkeypatch):
    calls = _spy_windows(monkeypatch)
    offs, _ = lattice_offsets(dim, RADII[dim])
    seed = 100 * dim + 10 * d + len(mask_kind)
    for value_kind in ("normal", "01", "02", "01ulp"):
        u = _field(dim, d, mask_kind, value_kind, seed)
        try:
            x_mask = _x_mask(u, x_kind, seed)
        except EmptyMaskError:  # an erosion that empties a small mask
            continue
        for q in QS:
            calls.clear()
            got = pair_power_sums(u, offs, q, x_mask)
            ref = reference_pair_power_sums(u, offs, q, x_mask)
            assert got.tobytes() == ref.tobytes(), (value_kind, q)
            # exactly the {0, 1} fields skip the windows
            assert (not calls) == (d == 1 and value_kind == "01"), (value_kind, q)


def _request_lists(u, x_mask, seed):
    """(q, x mask) lists for one pass: one request, masked and unmasked
    mixes, and one to three distinct q (repeated q included)."""
    other = _x_mask(u, "random", seed + 1)
    lists = [
        [(3.0, x_mask)],
        [(3.0, x_mask), (3.0, None)],
        [(1.5, x_mask), (4.0, x_mask)],
        [(2.0, None), (1.0, x_mask), (3.0, other), (1.0, other)],
        [(4.0, other), (1.5, x_mask), (4.0, x_mask)],
    ]
    return lists


@pytest.mark.parametrize("dim, d, mask_kind, x_kind", CASES)
def test_one_pass_serves_every_request_bit_for_bit(dim, d, mask_kind, x_kind, monkeypatch):
    # a multi-request pass equals each request's own pair_power_sums; a
    # symmetric list takes one window per offset of its first half, an
    # asymmetric one (no mirror) one per offset, a {0, 1} field none
    calls = _spy_windows(monkeypatch)
    lattice, _ = lattice_offsets(dim, RADII[dim])
    skew = lattice[::3]
    assert not np.array_equal(skew[::-1], -skew)
    seed = 400 * dim + 10 * d + len(mask_kind)
    for value_kind in ("normal", "01"):
        u = _field(dim, d, mask_kind, value_kind, seed)
        try:
            x_mask = _x_mask(u, x_kind, seed)
        except EmptyMaskError:
            continue
        indicator = d == 1 and value_kind == "01"
        for offs, windows in ((lattice, len(lattice) // 2), (skew, len(skew))):
            for requests in _request_lists(u, x_mask, seed):
                calls.clear()
                got = kernels._pair_sums(u, offs, requests)
                assert len(calls) == (0 if indicator else windows), (value_kind, requests)
                for sums, (q, m) in zip(got, requests, strict=True):
                    ref = pair_power_sums(u, offs, q, m)
                    assert [v.hex() for v in sums] == [v.hex() for v in ref], (value_kind, q, m is None)
                    assert sums.tobytes() == reference_pair_power_sums(u, offs, q, m).tobytes()


def test_ladders_and_sweeps_of_several_requests_are_each_requests_own():
    u = _field(2, 2, "disc", "normal", seed=9)
    x_mask = u.mask.erode(2.0 * u.grid.spacing)
    h = u.grid.spacing
    ladder = [c * h for c in (3.0, 2.5, 2.0)]
    requests = [(3.0, x_mask), (3.0, None), (4.0, x_mask)]
    ladders = bbm_ladders(u, requests, ladder, kappa=KAPPA)
    sweeps = bbm_sweeps(u, requests, ladder, "constant", kappa=KAPPA)
    for (q, m), values, sweep in zip(requests, ladders, sweeps, strict=True):
        assert values == bbm_ladder(u, q, ladder, m, kappa=KAPPA)
        assert sweep.values == bbm_sweep(u, q, ladder, "constant", m, kappa=KAPPA).values
    with pytest.raises(ValueError, match="q must be >= 1"):
        bbm_ladders(u, [(3.0, None), (0.5, x_mask)], ladder, kappa=KAPPA)


def test_benchmark_ag_configs_window_each_offset_once(monkeypatch):
    # the pyramid chain (a masked and an unmasked q = 3 sweep) and the cone
    # upper bound (q = 3 and p = 4 under one mask) on 64^2 at 16, 12 and 9
    # cells: one window per offset of the half list at 16 cells, 398 each,
    # where separate passes took 796 + 398 and 2 x 796
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    mask = DomainMask.full(g)
    ladder = [GridRadius.from_cells(m) for m in (16, 12, 9)]
    eta = build_mollifier("polynomial-bump", 2, k=2)
    assert len(lattice_offsets(2, 16 * 16)[0]) == 2 * 398
    calls = _spy_windows(monkeypatch)
    spec = make_field("pyramid-eikonal")
    reports = ag_chain_reports(sample_gradient(spec, mask), eta, ladder, spec.jump_spec(g))
    assert len(reports) == 2 and len(calls) == 398
    calls.clear()
    check_ag_upper_bound(sample_gradient(make_field("cone-eikonal"), mask), eta, 3.0, 4.0, ladder)
    assert len(calls) == 398


def test_count_path_refuses_a_correlation_off_an_integer(monkeypatch):
    # on a disc both C (call 1) and N (call 2) are rounded correlations
    u = _field(2, 1, "disc", "01", seed=3)
    offs, _ = lattice_offsets(2, 10)
    real = _correlation._correlation_values
    for which in (1, 2):
        calls = []

        def off_by(*args):
            calls.append(1)
            return real(*args) + (0.3 if len(calls) == which else 0.0)

        monkeypatch.setattr(_correlation, "_correlation_values", off_by)
        with pytest.raises(RuntimeError, match="from an integer"):
            pair_power_sums(u, offs, 2.0)
        assert len(calls) == which


def test_count_path_reads_offsets_past_the_grid_as_zero():
    u = _field(1, 1, "full", "01", seed=4)
    offs = np.array([[-50], [-3], [3], [41], [50]])
    got = pair_power_sums(u, offs, 1.5)
    assert got.tobytes() == reference_pair_power_sums(u, offs, 1.5).tobytes()
    assert got[0] == got[-1] == got[-2] == 0.0 and math.copysign(1.0, got[0]) == 1.0


@pytest.mark.parametrize("mask_kind", ["full", "random"])
@pytest.mark.parametrize("kind", ["half", "past"])
@pytest.mark.parametrize("dim", [2, 3])
def test_unmasked_count_path_on_asymmetric_offset_lists(dim, kind, mask_kind, monkeypatch):
    # without an x mask one correlation C serves v and -v, S(v) = C(v) + C(-v),
    # which must hold for lists that do not hold -v with v
    calls = _spy_windows(monkeypatch)
    ext = np.array(GRIDS[dim])
    first, last = (0,) * dim, tuple(ext - 1)  # the one pair of v = ext - 1
    u = _field(dim, 1, mask_kind, "01", seed=40 + dim)
    vals = u.values.copy()
    vals[last] = 1.0 - vals[first]
    u = SampledField(u.mask, vals)
    assert u.mask.inside[first] and u.mask.inside[last]
    offs, _ = lattice_offsets(dim, RADII[dim])
    if kind == "half":  # the first half of a lattice list: no -v of any v
        offs = offs[: len(offs) // 2]
    else:  # every third lattice offset, the longest one that pairs cells, and three past the grid
        past = np.array([ext - 1, -ext, (ext[0] + 3) * np.eye(dim, dtype=int)[0]])
        offs = np.concatenate([offs[::3], past])
    assert not np.array_equal(offs[::-1], -offs)
    for q in (1.0, 2.0, 3.0):
        got = pair_power_sums(u, offs, q)
        assert got.tobytes() == reference_pair_power_sums(u, offs, q).tobytes(), q
    assert not calls
    if kind == "past":
        assert got[-3] == 1.0 and got[-2] == got[-1] == 0.0


# --------------------------------------------------------------------------
# The count pass S = (N - C) / 2, branch by branch, against the window path:
# C as an autocorrelation (no x mask) or a cross product (x mask), N in
# closed form (both masks fill their bounding boxes) or as a correlation of
# the 0/1 masks.
# --------------------------------------------------------------------------


def _box(g, lo, hi):
    """The cells with lo <= index < hi on every axis (lo, hi per axis or one
    number for all)."""
    idx = np.indices(g.extents)
    lo, hi = np.broadcast_to(lo, g.dim), np.broadcast_to(hi, g.dim)
    return DomainMask(g, np.logical_and.reduce([(i >= a) & (i < b) for i, a, b in zip(idx, lo, hi)]))


def _disc(g):
    """The disc mask; in 1D, where a disc fills its box, with a gap."""
    inside = _mask(g, "disc").inside.copy()
    if g.dim == 1:
        inside[g.extents[0] // 3] = False
    return DomainMask(g, inside)


def _branch_masks(g, kind):
    """(field mask, x mask or None, the correlations and N the pass takes):
    1 is an autocorrelation, 2 a cross product, "box" the closed-form N."""
    ext = np.array(g.extents)
    if kind == "auto-full":
        return DomainMask.full(g), None, [1, "box"]
    if kind == "auto-box":
        return _box(g, 1, ext - 1), None, [1, "box"]
    if kind == "auto-disc":
        return _disc(g), None, [1, 1]
    if kind == "cross-eroded-box":
        full = DomainMask.full(g)
        return full, full.erode(2.0 * g.spacing), [2, "box"]
    if kind == "cross-box-outside":  # X sticks out of Y on every axis
        return _box(g, 2, ext), _box(g, 0, ext // 2 + 1), [2, "box"]
    if kind == "cross-disc":
        disc = _disc(g)
        return disc, disc.erode(g.spacing), [2, 2]
    # "cross-loose": a random X that holds cells outside the disc Y
    disc = _disc(g)
    pick = np.random.default_rng(g.dim).random(g.extents) < 0.6
    pick[~disc.inside] = True
    return disc, DomainMask(g, pick), [2, 2]


BRANCHES = ["auto-full", "auto-box", "auto-disc", "cross-eroded-box", "cross-box-outside", "cross-disc", "cross-loose"]


def _offset_list(dim, kind):
    offs, _ = lattice_offsets(dim, RADII[dim])
    ext = np.array(GRIDS[dim])
    if kind == "lattice":
        return offs
    if kind == "half":  # no -v of any v
        return offs[: len(offs) // 2]
    if kind == "below":  # v_0 < 0 only: an autocorrelation reads each as -v
        return offs[offs[:, 0] < 0]
    if kind == "level":  # v_0 = 0 only (in 1D the zero offset)
        level = offs[offs[:, 0] == 0]
        return level if len(level) else np.zeros((1, dim), dtype=offs.dtype)
    # every third lattice offset, the longest one that pairs cells, and
    # three that pair none: -ext, and past the grid on the first axis and
    # on the last
    past = np.array([ext - 1, -ext, (ext[0] + 3) * np.eye(dim, dtype=int)[0], -(ext[-1] + 1) * np.eye(dim, dtype=int)[-1]])
    return np.concatenate([offs[::3], past])


@pytest.mark.parametrize("block_cells", [None, 16])
@pytest.mark.parametrize("offset_kind", ["lattice", "half", "below", "level", "past"])
@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_count_pass_branches_equal_the_window_path(dim, branch, offset_kind, block_cells, monkeypatch):
    # block_cells = 16 cuts the small spectra into 5 (2D) and 7 (3D) column
    # blocks fed from one-row blocks, as a large grid's are
    if block_cells is not None:
        monkeypatch.setattr(_correlation, "_BLOCK_CELLS", block_cells)
    g = _grid(dim)
    mask, x_mask, expect = _branch_masks(g, branch)
    rng = np.random.default_rng(7 * dim + len(branch))
    u = SampledField(mask, (rng.random(g.extents) < 0.45).astype(float))
    offs = _offset_list(dim, offset_kind)
    taken = []
    real_corr, real_box = _correlation._correlation_values, _correlation._box_overlaps

    def corr(shape, reach, offsets, fills):
        taken.append(len(fills))
        return real_corr(shape, reach, offsets, fills)

    def box(*args):
        taken.append("box")
        return real_box(*args)

    with monkeypatch.context() as m:
        m.setattr(_correlation, "_correlation_values", corr)
        m.setattr(_correlation, "_box_overlaps", box)
        counts = pair_power_sums(u, offs, 2.0, x_mask)
    assert taken == expect
    with monkeypatch.context() as m:
        m.setattr(kernels, "_is_indicator", lambda field: False)
        for q in (1.0, 2.0, 3.0):
            assert counts.tobytes() == pair_power_sums(u, offs, q, x_mask).tobytes(), q
    if offset_kind == "past":
        assert counts[-3:].tobytes() == np.zeros(3).tobytes()


@pytest.mark.parametrize("block_cells", [None, 16])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_counts_without_an_x_mask_are_even(dim, block_cells, monkeypatch):
    # one filler, an autocorrelation: counts(v) == counts(-v) bit for bit
    if block_cells is not None:
        monkeypatch.setattr(_correlation, "_BLOCK_CELLS", block_cells)
    offs, _ = lattice_offsets(dim, RADII[dim])
    for mask_kind in ("full", "disc", "holed"):
        u = _field(dim, 1, mask_kind, "01", 5 * dim + len(mask_kind))
        counts = pair_power_sums(u, offs, 2.0)
        assert counts.tobytes() == pair_power_sums(u, -offs, 2.0).tobytes(), mask_kind
        assert counts.any(), mask_kind


@pytest.mark.parametrize("dim", [2, 3])
def test_an_autocorrelation_lag_table_keeps_the_rows_v0_at_least_0(dim, monkeypatch):
    tables = []
    real = _correlation._lag_table

    def spy(shape, reach, low, fills):
        table = real(shape, reach, low, fills)
        tables.append((len(fills), table.shape[:-1], reach.tolist()))
        return table

    monkeypatch.setattr(_correlation, "_lag_table", spy)
    mask = _disc(_grid(dim))
    u = SampledField(mask, (np.random.default_rng(dim).random(mask.grid.extents) < 0.45).astype(float))
    offs, _ = lattice_offsets(dim, RADII[dim])
    pair_power_sums(u, offs, 2.0)  # C and N both autocorrelations
    pair_power_sums(u, offs, 2.0, mask.erode(mask.grid.spacing))  # both cross products
    assert [f for f, _, _ in tables] == [1, 1, 2, 2]
    for fills, rows, reach in tables:
        lead = [2 * r + 1 for r in reach[:-1]]
        if fills == 1:
            lead[0] = reach[0] + 1
        assert list(rows) == lead, (fills, reach)


@pytest.mark.parametrize("eroded", [False, True])
def test_half_plane_jump_count_pass_is_the_window_sum_at_scale(eroded, monkeypatch):
    # the half-plane-jump benchmark field at its finest rung, m = 18 on 512^2
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    mask = DomainMask.full(g)
    u = sample_analytic(make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.50243), mask)
    x_mask = mask.erode(18 * g.spacing) if eroded else None
    offs, _ = lattice_offsets(2, 18 * 18)
    counts = pair_power_sums(u, offs, 2.0, x_mask)
    # a jump across x_1 = c, more than 18 cells from the faces, is straddled
    # by |v_1| rows of pairs times the pairs along axis 1: n - |v_2| on the
    # full box, and the 476 kept cells of the eroded one
    along = 512 - np.abs(offs[:, 1]) if x_mask is None else 476
    assert counts.tobytes() == (np.abs(offs[:, 0]) * along).astype(float).tobytes()
    monkeypatch.setattr(kernels, "_is_indicator", lambda field: False)
    assert counts.tobytes() == pair_power_sums(u, offs, 2.0, x_mask).tobytes()


def _unit(v):
    v = np.asarray(v, dtype=float)
    return (v / np.linalg.norm(v)).tolist()


DIRECTIONS = {
    1: [[1.0], [-1.0]],
    2: [[1.0, 0.0], [0.0, -1.0], _unit([0.8, 0.3]), _unit([-0.35, 0.9]), _unit([3.0, 4.0])],
    3: [[0.0, 0.0, -1.0], _unit([1.0, 0.4, -0.25]), _unit([-0.2, 0.7, 0.6])],
}


@pytest.mark.parametrize("dim, d, mask_kind, x_kind", [c for c in CASES if c[3] != "loose"])
def test_directional_sums_equal_the_reference_bit_for_bit(dim, d, mask_kind, x_kind):
    seed = 200 * dim + 10 * d + len(mask_kind)
    u = _field(dim, d, mask_kind, "normal", seed)
    try:
        x_mask = _x_mask(u, x_kind, seed)
    except EmptyMaskError:
        return
    h = u.grid.spacing
    # 3 and 5 cells fall on the lattice along (3, 4)/5; 2.7 cells never do
    # and are taken at the nearest lattice vector
    for cells, k, q in itertools.product((2.7, 3.0, 5.0), DIRECTIONS[dim], QS):
        eps = cells * h
        got = directional_value(u, q, eps, k, x_mask, kappa=KAPPA)
        ref = reference_directional(u, eps, k, x_mask, partial(reference_power, q=q))
        assert got.hex() == ref.hex(), (cells, k, q)
        if q >= 2.0:
            w = directional_w_limit(u, PowerPairCost(q), k, eps, x_mask, kappa=KAPPA)
            assert w.hex() == ref.hex(), (cells, k, q)
    for cells, k in itertools.product((2.7, 5.0), DIRECTIONS[dim]):
        got = directional_w_limit(u, SmoothRationalPairCost(), k, cells * h, x_mask, kappa=KAPPA)
        ref = reference_directional(u, cells * h, k, x_mask, lambda ss: ss / (1.0 + ss))
        assert got.hex() == ref.hex(), (cells, k)


PIN_CASES = [
    (dim, d, mask_kind, x_kind)
    for dim in (1, 2, 3)
    for d in ((1, 2) if dim < 3 else (1, 3))
    for mask_kind in ("full", "holed", "random")
    for x_kind in (None, "eroded", "random")
]


@pytest.mark.parametrize("dim, d, mask_kind, x_kind", PIN_CASES)
def test_directional_values_are_the_pair_sum_at_the_nearest_lattice_vector(dim, d, mask_kind, x_kind):
    # every shift, on the lattice or off it, is the pair sum at v = rint(eps
    # k / h) over |v| h, bit for bit; {0, 1} fields take that sum from the
    # count pass, so the two paths meet here too
    seed = 300 * dim + 10 * d + len(mask_kind)
    for value_kind in ("normal", "01"):
        u = _field(dim, d, mask_kind, value_kind, seed)
        try:
            x_mask = _x_mask(u, x_kind, seed)
        except EmptyMaskError:
            continue
        h = u.grid.spacing
        for cells, k, q in itertools.product((2.5, 2.7, 3.0, 4.4), DIRECTIONS[dim], (1.0, 2.0, 3.0)):
            eps = cells * h
            v = reference_shift_stencil(eps * np.asarray(k) / h)
            pair = pair_power_sums(u, np.array([v]), q, x_mask)[0]
            got = directional_value(u, q, eps, k, x_mask, kappa=KAPPA)
            assert got.hex() == (pair * h**dim / (np.linalg.norm(v) * h)).hex(), (value_kind, cells, k, q)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_shift_that_rounds_to_zero_is_a_regime_error(dim):
    # below about sqrt(N)/2 cells along the diagonal every axis rounds to 0;
    # only a float eps under a small kappa gets there
    u = _field(dim, 1, "full", "normal", dim)
    h = u.grid.spacing
    k = [dim**-0.5] * dim
    eps = 0.45 * math.sqrt(dim) * h
    with pytest.raises(RegimeError, match="zero lattice vector"):
        directional_value(u, 2.0, eps, k, kappa=0.1)
    with pytest.raises(RegimeError, match="zero lattice vector"):
        directional_w_limit(u, PowerPairCost(2.0), k, eps, kappa=0.1)
    # just past half a cell per axis the shift is the diagonal unit vector
    eps = 0.55 * math.sqrt(dim) * h
    one = pair_power_sums(u, np.ones((1, dim), dtype=int), 2.0)[0]
    assert directional_value(u, 2.0, eps, k, kappa=0.1) == one * h**dim / (math.sqrt(dim) * h)


# --------------------------------------------------------------------------
# Memory: one buffer per window pass; column blocks and a lag table per
# count pass.
# --------------------------------------------------------------------------


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, x_kind, bound", [
    (1, None, 1.5), (1, "eroded", 2.2), (1, "random", 2.0), (2, None, 3.5), (2, "eroded", 4.2),
])
def test_window_path_memory_is_one_buffer(d, x_kind, bound):
    g = Grid.for_box([0.0, 0.0], [1.2, 1.0], [384, 320])
    u = SampledField(DomainMask.full(g), np.random.default_rng(2).normal(size=g.extents + (d,)), d=d)
    x_mask = _x_mask(u, x_kind)
    offs, _ = lattice_offsets(2, 9)
    peak = _peak(lambda: pair_power_sums(u, offs, 3.0, x_mask)) / (8 * 384 * 320)
    # in grids of floats: the buffer holds d windows (one more, t, for
    # d >= 2), a masked window adds its boolean mask and its gather, and a
    # ufunc's own buffers take 0.13; 1.1, 2.0, 1.6, 3.1 and 3.9 here.  Fresh
    # temporaries per offset peaked at 3.0, 2.9, 3.0, 4.0 and 3.9: an eroded
    # full box at d = 2 keeps the one gather each window still allocates.
    assert peak < bound, peak


def test_indicator_check_holds_block_sized_temporaries():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    vals = (np.indices(g.extents).sum(axis=0) % 5 < 2).astype(float)
    for last, expect in ((1.0, True), (0.5, False)):  # a non-{0, 1} value in the last block
        vals[-1, -1] = last
        u = SampledField(DomainMask.full(g), vals)
        assert kernels._is_indicator(u) is expect
        # three boolean blocks of 2^14 cells; one full-size boolean grid is 256 KiB
        assert _peak(lambda: kernels._is_indicator(u)) < 64 * 1024


def test_count_path_memory_is_bounded_by_the_padded_grid():
    g = Grid.for_box([0.0, 0.0], [1.2, 1.0], [192, 160])
    mask = _mask(g, "disc")
    u = SampledField(mask, (np.indices(g.extents).sum(axis=0) % 7 < 3).astype(float)[..., None])
    pair_power_sums(u, lattice_offsets(2, 4)[0], 2.0)  # first-call imports and FFT set-up
    for x_mask in (mask.erode(2 * g.spacing), None):
        for m in (4, 8, 32):
            offs, _ = lattice_offsets(2, m * m)
            padded_bytes = 8 * (192 + m) * (160 + m)
            peak = _peak(lambda: pair_power_sums(u, offs, 2.0, x_mask))
            # one column block per side (the whole half spectrum at m = 4,
            # half of it at m = 8 and 32), one row block of cells and its
            # staged rfft: 1.69-2.39 padded grids with the x mask (two
            # sides), 1.17-1.59 without.  Two full half spectra took
            # 2.45-2.65, and a full-size float grid of the cells and its
            # boolean masks 3.3-3.5.
            assert peak < 2.9 * padded_bytes, (m, x_mask is None, peak / padded_bytes)


@pytest.mark.parametrize("mask_kind", ["full", "disc"])
def test_count_pass_memory_at_scale_is_blocks_and_a_lag_table(mask_kind):
    # on 512^2 a half spectrum is cut into 6 or 8 column blocks (12 or 16
    # with an x mask), so the pass holds about a quarter of a padded grid
    # with or without an x mask (one block, or both sides' blocks of half
    # the width, a row block with its staged rffts, and a table of the kept
    # lags: 0.24-0.28 here);
    # the bound is the largest of these plus 0.06.  A table of every
    # last-axis frequency took 0.34-0.35 and, with cross blocks as wide as
    # an autocorrelation's, 0.52-0.55; blocks twice as wide 0.53-0.56 and
    # 0.78-0.89, and two full padded half spectra 2.25
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    mask = DomainMask.full(g) if mask_kind == "full" else _mask(g, "disc")
    u = sample_analytic(make_field("half-plane-indicator"), mask)
    pair_power_sums(u, lattice_offsets(2, 4)[0], 2.0)  # first-call imports and FFT set-up
    for m in (18, 32):
        offs, _ = lattice_offsets(2, m * m)
        for x_mask in (None, mask.erode(m * g.spacing)):
            peak = _peak(lambda: pair_power_sums(u, offs, 2.0, x_mask)) / (8 * (512 + m) ** 2)
            assert peak < 0.34, (m, x_mask is None, peak)
