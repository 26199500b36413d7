"""Differential tests of the kernel sums against a naive pair-by-pair oracle.

The oracle walks every ordered pair (x, y) of inside cells, decides pair
inclusion on exact integer squared offsets, and ``math.fsum``s the weighted
terms.  The fast path sums each displacement with numpy's pairwise summation
before ``fsum`` combines the displacements, so the two agree to rounding, not
bit for bit: the comparison is at 1e-12 relative.
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


def _pair_terms(u, q, x_mask, m2max, weight):
    """Every pair term h^{2N} |u(y)-u(x)|^q * weight(|y-x|^2 in cells)."""
    xs, ys, vals = _inside_points(u, x_mask)
    h = u.grid.spacing
    scale = h ** (2 * u.grid.dim)
    terms = []
    for x in xs:
        ux = vals[x]
        for y in ys:
            r2 = sum((b - a) ** 2 for a, b in zip(x, y))
            if r2 == 0 or (m2max is not None and r2 > m2max):
                continue
            diff2 = sum((b - a) ** 2 for a, b in zip(ux, vals[y]))
            terms.append(scale * diff2 ** (0.5 * q) * weight(r2, h))
    return terms


def oracle_bbm(u, q, eps, x_mask=None):
    m2, eps_len = resolve_radius(eps, u.grid.spacing)
    n = u.grid.dim
    terms = _pair_terms(u, q, x_mask, m2, lambda r2, h: 1.0 / (h * math.sqrt(r2)))
    return math.fsum(terms) / eps_len**n


def oracle_gagliardo(u, q):
    n = u.grid.dim
    terms = _pair_terms(u, q, None, None, lambda r2, h: 1.0 / (h * math.sqrt(r2)) ** (n + 1))
    return math.fsum(terms)


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
        assert ok and ref <= gag


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 12),
    d=st.sampled_from([1, 2]),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 10_000),
    use_x_mask=st.booleans(),
)
@example(n=4, d=1, q=1.5, seed=1, use_x_mask=False)  # bbm == gagliardo at 2 cells
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
