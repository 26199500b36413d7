"""Differential tests of the kernel sums against a naive pair-by-pair oracle.

The oracle walks every ordered pair (x, y) of inside cells, decides pair
inclusion on exact integer squared offsets, and ``math.fsum``s the weighted
terms.  The fast path sums each displacement with numpy's pairwise summation
before ``fsum`` combines the displacements, so the two agree to rounding, not
bit for bit: the comparison is at 1e-12 relative.

The cropped masked pair sums are compared bit for bit with the uncropped
per-offset loop instead, because cropping changes no operation on a kept
sample.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    SampledField,
    bbm_sweep,
    bbm_value,
    gagliardo_dominates_bbm,
)
from bvqlab.kernels import resolve_radius

REL = 1e-12
KAPPA = 2.0  # tiny grids need radii of a few cells


def _inside_points(u: SampledField, x_mask: DomainMask | None):
    ins = u.mask.inside
    pts = [idx for idx in np.ndindex(*u.grid.extents) if ins[idx]]
    vals = {idx: u.values[idx].tolist() for idx in pts}
    xs = pts if x_mask is None else [p for p in pts if x_mask.inside[p]]
    return xs, pts, vals


def _pair_terms(u, q, x_mask):
    """(|y-x|^2 in cells, h^{2N} |u(y)-u(x)|^q) for every ordered pair of distinct cells."""
    xs, ys, vals = _inside_points(u, x_mask)
    scale = u.grid.spacing ** (2 * u.grid.dim)
    terms = []
    for x in xs:
        ux = vals[x]
        for y in ys:
            r2 = sum((b - a) ** 2 for a, b in zip(x, y))
            if r2 == 0:
                continue
            diff2 = sum((b - a) ** 2 for a, b in zip(ux, vals[y]))
            terms.append((r2, scale * diff2 ** (0.5 * q)))
    return terms


def oracle_bbm(u, q, eps, x_mask=None):
    h = u.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    terms = [t * (1.0 / (h * math.sqrt(r2))) for r2, t in _pair_terms(u, q, x_mask) if r2 <= m2]
    return math.fsum(terms) / eps_len ** u.grid.dim


def oracle_gagliardo(u, q):
    h = u.grid.spacing
    n1 = u.grid.dim + 1
    return math.fsum(t * (1.0 / (h * math.sqrt(r2)) ** n1) for r2, t in _pair_terms(u, q, None))


def oracle_dominates(u, q, eps):
    """bbm <= gagliardo, decided pair by pair, not by two rounded totals.

    The verdict is the sign of the ``fsum`` over every pair of its term
    times (gagliardo weight - bbm weight), the bbm weight being 0 beyond
    eps.  Both weights are built from |y-x| and eps by the same
    multiplications, so each difference is >= 0 when |y-x| <= eps.
    """
    h = u.grid.spacing
    n = u.grid.dim
    m2, eps_len = resolve_radius(eps, h)
    eps_n = math.prod([eps_len] * n)
    out = []
    for r2, t in _pair_terms(u, q, None):
        dist = h * math.sqrt(r2)
        w_gag = 1.0 / (math.prod([dist] * n) * dist)
        w_bbm = 1.0 / (eps_n * dist) if r2 <= m2 else 0.0
        out.append(t * (w_gag - w_bbm))
    return math.fsum(out) >= 0.0


def _random_field(extents, d, seed, inside_p=0.8):
    rng = np.random.default_rng(seed)
    g = Grid.for_box([0.0] * len(extents), [e / 12.0 for e in extents], extents)
    inside = rng.random(g.extents) < inside_p
    inside.flat[0] = True  # never empty
    mask = DomainMask(g, inside)
    vals = rng.normal(size=g.extents + (d,))
    return SampledField(mask, np.where(inside[..., None], vals, 0.0), d=d)


def _x_mask(u, seed):
    rng = np.random.default_rng(seed + 1000)
    sub = u.mask.inside & (rng.random(u.grid.extents) < 0.6)
    sub.flat[np.flatnonzero(u.mask.inside)[0]] = True
    return DomainMask(u.grid, sub)


def _check(u, q, cells, x_mask):
    ladder = [GridRadius(m2) for m2 in cells]
    expect = [oracle_bbm(u, q, e, x_mask) for e in ladder]
    for e, ref in zip(ladder, expect):
        assert bbm_value(u, q, e, x_mask, kappa=KAPPA) == pytest.approx(ref, rel=REL, abs=0.0)
    sweep = bbm_sweep(u, q, ladder, "constant", x_mask, kappa=KAPPA)
    assert sweep.values == pytest.approx(expect, rel=REL, abs=0.0)
    gag = oracle_gagliardo(u, q)
    full = [oracle_bbm(u, q, e) for e in ladder]
    for (bbm, g_val, ok), ref in zip(gagliardo_dominates_bbm(u, q, ladder, kappa=KAPPA), full):
        assert bbm == pytest.approx(ref, rel=REL, abs=0.0)
        assert g_val == pytest.approx(gag, rel=REL, abs=0.0)
        assert ok
    # the oracle totals are rounded separately and can swap order by an ulp
    # where they tie in exact arithmetic, so the oracle decides pair by pair
    assert all(oracle_dominates(u, q, e) for e in ladder)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 12),
    d=st.sampled_from([1, 2]),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 10_000),
    use_x_mask=st.booleans(),
)
@example(n=4, d=1, q=1.5, seed=1, use_x_mask=False)  # bbm == gagliardo at 2 cells
@example(n=4, d=1, q=1.5, seed=2048, use_x_mask=False)  # a tie: the rounded oracle bbm is an ulp above gagliardo
def test_oracle_1d(n, d, q, seed, use_x_mask):
    u = _random_field([n], d, seed)
    x_mask = _x_mask(u, seed) if use_x_mask else None
    top = (n - 1) ** 2
    cells = sorted({top, max(4, top // 3), 4}, reverse=True)
    _check(u, q, cells, x_mask)


@settings(max_examples=15, deadline=None)
@given(
    extents=st.tuples(st.integers(4, 12), st.integers(4, 12)),
    d=st.sampled_from([1, 2]),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 10_000),
    use_x_mask=st.booleans(),
)
def test_oracle_2d(extents, d, q, seed, use_x_mask):
    u = _random_field(list(extents), d, seed)
    x_mask = _x_mask(u, seed) if use_x_mask else None
    cells = [26, 13, 8, 5, 4]  # non-squares take the discs between lattice rings
    _check(u, q, cells, x_mask)


@pytest.mark.parametrize("q, use_x_mask", list(itertools.product([1.0, 2.0, 3.0], [False, True])))
def test_oracle_3d(q, use_x_mask):
    u = _random_field([6, 5, 7], 2, seed=31)
    x_mask = _x_mask(u, 31) if use_x_mask else None
    _check(u, q, [27, 11, 6, 4], x_mask)


# --------------------------------------------------------------------------
# Cropping to the x_mask bounding box is exact: the same per-offset floats as
# the uncropped per-offset sums, bit for bit.
# --------------------------------------------------------------------------


def _x_mask_kind(u, kind):
    g = u.grid
    idx = np.indices(g.extents)
    c = [(e - 1) / 2.0 for e in g.extents]
    r2 = sum((i - ci) ** 2 for i, ci in zip(idx, c))
    rad2 = (min(g.extents) / 3.0) ** 2
    if kind == "disc":
        sub = r2 < rad2
    elif kind == "holed":
        rng = np.random.default_rng(7)
        sub = (r2 < 2.0 * rad2) & (r2 > 0.2 * rad2) & (rng.random(g.extents) > 0.2)
    elif kind == "rect":  # on a full field most cropped windows are all valid
        sub = np.zeros(g.extents, dtype=bool)
        sub[tuple(slice(e // 4, e - e // 4) for e in g.extents)] = True
    elif kind == "edge":  # a half-disc on the low face of axis 0
        sub = idx[0] ** 2 + sum((i - ci) ** 2 for i, ci in zip(idx[1:], c[1:])) < rad2
    else:  # a single cell
        sub = np.zeros(g.extents, dtype=bool)
        sub[tuple(e // 3 for e in g.extents)] = True
    sub &= u.mask.inside
    assert sub.any()
    return DomainMask(g, sub)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["rect", "disc", "holed", "edge", "cell"])
@pytest.mark.parametrize(
    "extents, m2, inside_p", [([23], 49, 1.0), ([14, 11], 26, 1.0), ([14, 11], 26, 0.8), ([7, 6, 8], 11, 0.9)]
)
def test_cropped_pair_sums_match_uncropped_bit_for_bit(extents, m2, inside_p, kind, q):
    from bvqlab.kernels import _pair_power_sum, lattice_offsets, pair_power_sums

    u = _random_field(extents, 2 if len(extents) == 2 else 1, seed=len(extents), inside_p=inside_p)
    if inside_p == 1.0:
        assert u.mask.all_inside
    x_mask = _x_mask_kind(u, kind)
    offs, _ = lattice_offsets(u.grid.dim, m2)
    cropped = pair_power_sums(u, offs, q, x_mask)
    uncropped = np.array([_pair_power_sum(u, x_mask.inside, o, q) for o in offs])
    assert cropped.tobytes() == uncropped.tobytes()
