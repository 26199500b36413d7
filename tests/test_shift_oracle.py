"""Differential tests of the fractional shifts against a per-sample oracle.

``directional_value`` evaluates u(x + eps k) for a whole window at once: by
exact shifts when eps*k/h is a lattice vector, and by multilinear
interpolation of inside values otherwise, dropping a sample as soon as one
stencil corner leaves the grid or the mask.  The oracle below walks the
samples one by one, builds each stencil from floor(t) and frac(t) per axis,
and ``math.fsum``s the terms.  The corner weights are summed in another
order, so the comparison is at 1e-12 relative, not bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

from bvqlab import DomainMask, Grid, SampledField, directional_value

REL = 1e-12
KAPPA = 2.0  # tiny grids need shifts of a few cells


def oracle_directional(u, q, eps_len, k, x_mask=None):
    h = u.grid.spacing
    ext = u.grid.extents
    t = [eps_len * kk / h for kk in k]
    # per axis: (cell offset, weight) of each stencil corner
    if max(abs(ta - round(ta)) for ta in t) < 1e-9:
        legs = [[(round(ta), 1.0)] for ta in t]  # a lattice shift
    else:
        legs = []
        for ta in t:
            b = math.floor(ta)
            f = ta - b
            legs.append([(b, 1.0 - f), (b + 1, f)] if f > 0 else [(b, 1.0)])
    inside = u.mask.inside
    xs = (x_mask if x_mask is not None else u.mask).inside
    terms = []
    for x in np.ndindex(*ext):
        if not xs[x]:
            continue
        shifted = np.zeros(u.d)
        for corner in itertools.product(*legs):
            y = tuple(a + o for a, (o, _) in zip(x, corner))
            if any(not 0 <= c < e for c, e in zip(y, ext)) or not inside[y]:
                break
            shifted += math.prod(w for _, w in corner) * u.values[y]
        else:
            diff = shifted - u.values[x]
            terms.append(float(diff @ diff) ** (0.5 * q))
    return math.fsum(terms) * h ** u.grid.dim / eps_len


def _field(extents, d, mask_kind, seed):
    g = Grid.for_box([0.0] * len(extents), [e / 10.0 for e in extents], extents)
    if mask_kind == "full":
        inside = np.ones(g.extents, dtype=bool)
    else:
        c = np.array([e / 20.0 for e in extents])
        r2 = ((g.points() - c) ** 2).sum(axis=1).reshape(g.extents)
        inside = r2 < (min(extents) / 20.0) ** 2
    rng = np.random.default_rng(seed)
    vals = np.where(inside[..., None], rng.normal(size=g.extents + (d,)), 0.0)
    return SampledField(DomainMask(g, inside), vals, d=d)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


DIRECTIONS = {
    1: [[1.0], [-1.0]],
    2: [[1.0, 0.0], _unit([0.8, 0.3]), _unit([-0.35, 0.9]), _unit([-1.0, -1.0])],
    3: [_unit([1.0, 0.4, -0.25]), _unit([-0.2, 0.7, 0.6]), [0.0, 0.0, -1.0]],
}
CASES = [((37,), 5.3), ((21, 18), 4.7), ((11, 10, 12), 3.4)]


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mask_kind", ["full", "disc"])
@pytest.mark.parametrize("extents, cells", CASES)
def test_fractional_shifts_match_the_oracle(extents, cells, mask_kind, d, q):
    u = _field(extents, d, mask_kind, seed=len(extents) * 10 + d)
    h = u.grid.spacing
    eps = cells * h  # never a whole number of cells along any direction here
    for k in DIRECTIONS[u.grid.dim]:
        t = eps * np.asarray(k) / h
        assert np.max(np.abs(t - np.rint(t))) > 1e-3
        fast = directional_value(u, q, eps, k, kappa=KAPPA)
        slow = oracle_directional(u, q, eps, k)
        assert slow > 0.0
        assert fast == pytest.approx(slow, rel=REL, abs=0.0), k


@pytest.mark.parametrize("extents, cells", CASES)
def test_fractional_shifts_with_x_mask_match_the_oracle(extents, cells):
    u = _field(extents, 1, "full", seed=3)
    rng = np.random.default_rng(4)
    x_mask = DomainMask(u.grid, rng.random(u.grid.extents) < 0.5)
    eps = cells * u.grid.spacing
    for k in DIRECTIONS[u.grid.dim]:
        fast = directional_value(u, 2.0, eps, k, x_mask, kappa=KAPPA)
        slow = oracle_directional(u, 2.0, eps, k, x_mask)
        assert fast == pytest.approx(slow, rel=REL, abs=0.0), k
