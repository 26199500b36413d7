import math
from functools import partial

import numpy as np
import pytest

from bvqlab import DomainMask, Grid, RegimeError, SampledField, bbm_value, make_field, sample_analytic
from bvqlab.defaults import KAPPA
from bvqlab.kernels import (
    _offset_slices,
    _power_in_place,
    _x_inside,
    lattice_offsets,
    pair_power_sums,
    resolve_radius,
)


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


def translated(u: SampledField, offset_cells) -> SampledField:
    """``u`` with mask and values shifted by whole cells (for equivariance checks)."""
    vals = np.zeros_like(u.values)
    ins = np.zeros_like(u.mask.inside)
    src, dst = [], []
    for o, e in zip(offset_cells, u.grid.extents):
        assert abs(o) < e, "translation exceeds grid extents"
        src.append(slice(max(0, -o), e - max(0, o)))
        dst.append(slice(max(0, o), e - max(0, -o)))
    vals[tuple(dst)] = u.values[tuple(src)]
    ins[tuple(dst)] = u.mask.inside[tuple(src)]
    return SampledField(DomainMask(u.grid, ins), vals, u.d)


def sup_norm(u: SampledField) -> float:
    """L-infinity norm of |u| (Euclidean norm over components) inside."""
    ss = np.einsum("...k,...k->...", u.values, u.values)
    return float(np.sqrt(np.max(ss[u.mask.inside])))


class SmoothRationalPairCost:
    """W(a, b) = |a - b|^2 / (1 + |a - b|^2): bounded, symmetric, C^1."""

    def from_sq(self, ss: np.ndarray) -> np.ndarray:
        """W from squared differences ss = |a - b|^2; may overwrite ss."""
        return ss / (1.0 + ss)


# --------------------------------------------------------------------------
# The shifted-difference sums as plain numpy expressions, frozen: fresh
# temporaries per window, a boolean gather per masked window, no count path.
# The bit-for-bit reference for ``kernels`` (pair sums, directional shifts).
# --------------------------------------------------------------------------


def reference_power(ss, q):
    if q == 2.0:
        return ss
    if q == 1.0:
        return np.sqrt(ss)
    return ss ** (0.5 * q)


def reference_window_sum(u: SampledField, x_inside, off, cost, box=None):
    """sum over valid x of cost(|u(x + v) - u(x)|^2) for one integer offset
    v, or None when the x window (cropped to ``box``) is empty."""
    sx = []
    for a, (ext, o) in enumerate(zip(u.grid.extents, off)):
        lo = max(0, -o)
        hi = min(ext, ext - o)
        if box is not None:
            lo, hi = max(lo, box[a][0]), min(hi, box[a][1])
        if hi <= lo:
            return None
        sx.append(slice(lo, hi))
    sx = tuple(sx)
    sy = tuple(slice(s.start + o, s.stop + o) for s, o in zip(sx, off))
    values, inside = u.values, u.mask.inside
    dv = values[sy] - values[sx]
    t = cost(np.einsum("...k,...k->...", dv, dv))
    if x_inside is None and u.mask.all_inside:
        return float(t.sum())
    valid = (inside if x_inside is None else x_inside)[sx]
    if not u.mask.all_inside:
        valid = valid & inside[sy]
    return float(t[valid].sum())


def single_pair_sum(u: SampledField, x_inside, off, q: float) -> float:
    """One displacement's pair sum, summed on its own and uncropped."""
    cost = partial(reference_power, q=q)
    total = reference_window_sum(u, x_inside, np.asarray(off).tolist(), cost)
    return 0.0 if total is None else total


def reference_pair_power_sums(u: SampledField, offsets, q: float, x_mask=None) -> np.ndarray:
    """Per-offset window sums, each x window cropped to the bounding box of
    ``x_mask`` and the second half of a symmetric list filled by reversal."""
    x_inside = None if x_mask is None else x_mask.inside
    box = None
    if x_inside is not None:
        box = []
        for a in range(x_inside.ndim):
            hit = np.flatnonzero(x_inside.any(axis=tuple(b for b in range(x_inside.ndim) if b != a)))
            box.append((int(hit[0]), int(hit[-1]) + 1))
    n = len(offsets)
    half = (n + 1) // 2 if x_inside is None and np.array_equal(offsets[::-1], -offsets) else n
    cost = partial(reference_power, q=q)
    out = np.empty(n)
    for i, off in enumerate(offsets[:half]):
        total = reference_window_sum(u, x_inside, off.tolist(), cost, box)
        out[i] = 0.0 if total is None else total
    out[half:] = out[: n - half][::-1]
    return out


def reference_shift_stencil(t: np.ndarray) -> list[int]:
    """The lattice vector a shift t (in cells) is taken at: t rounded per
    axis, half to even, on numpy arrays."""
    return np.rint(t).astype(int).tolist()


def reference_directional(u: SampledField, eps_len: float, k, x_mask, cost) -> float:
    """h^N * sum_x cost(|u(x + v h) - u(x)|^2) / (|v| h) over valid x, v the
    lattice vector nearest eps k / h."""
    h = u.grid.spacing
    v = reference_shift_stencil(eps_len * np.asarray(k, dtype=float) / h)
    total = reference_window_sum(u, None if x_mask is None else x_mask.inside, v, cost)
    return total * h**u.grid.dim / (np.sqrt(np.dot(v, v)) * h)


# --------------------------------------------------------------------------
# Sampling as one evaluation at every cell centre, frozen: the bit-for-bit
# reference for the block sampling of ``grid._sample_rows``.
# --------------------------------------------------------------------------


def reference_points(grid: Grid) -> np.ndarray:
    """All cell centres as an (n, dim) array in C order, from one meshgrid."""
    axes = [grid.axis_centers(a) for a in range(grid.dim)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def reference_sample(spec, grid: Grid, gradient: bool = False) -> np.ndarray:
    """``spec``'s values (or exact gradient) at every cell centre, shaped
    extents + (components,), from one evaluation."""
    pts = reference_points(grid)
    out = spec.gradient(pts) if gradient else spec.evaluate(pts, h=grid.spacing)
    return np.asarray(out, dtype=np.float64).reshape(grid.extents + (-1,))


# --------------------------------------------------------------------------
# Mollification as a direct shift-and-add lattice sum, with psi_eps from
# the samples of psi: the tolerance reference for ``aviles.mollify``.
# --------------------------------------------------------------------------


def _shift_add(f, weights, offs):
    """out[x] = sum_v weights[v] * f[x + v], with f zero beyond the grid."""
    out = np.zeros(f.shape[:-1] + weights.shape[1:] + f.shape[-1:])
    for v, wv in zip(offs, weights):
        sx, sy = [], []
        for ext, o in zip(f.shape[:-1], v):
            sx.append(slice(max(0, -o), min(ext, ext - o)))
            sy.append(slice(max(0, o), min(ext, ext + o)))
        out[tuple(sx)] += wv[..., None] * f[tuple(sy)][..., None, :]
    return out


def _oracle(psi, grad, eta, eps):
    grid = psi.grid
    n, h = grid.dim, grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    offs = [(0,) * n] + [tuple(int(c) for c in v) for v in lattice_offsets(n, m2)[0]]
    z = np.asarray(offs, dtype=float) * (h / eps_len)
    w = eta.value(z)
    w = w / w.sum()
    gw = eta.gradient(z) * (h / eps_len) ** n
    outside = ~psi.mask.inside
    vals = np.array(psi.values)
    vals[outside] = 0.0
    g = np.array(grad.values)
    g[outside] = 0.0
    psi_eps = _shift_add(vals, w[:, None], offs)[..., 0, 0]
    grad = _shift_add(g, w[:, None], offs)[..., 0, :]
    hess = -_shift_add(g, gw, offs) / eps_len
    return psi_eps, grad, hess


# --------------------------------------------------------------------------
# Test oracles: the raw Gagliardo double sum and the exact sample-wise
# inequalities tied to the kernel algebra, checked on the package's pair
# sums and windows.
# --------------------------------------------------------------------------


def gagliardo_seminorm_pow(
    u: SampledField,
    q: float,
) -> float:
    """Discrete double sum of |u(x)-u(y)|^q / |x-y|^{N+1} over distinct pairs.

    For fields with jumps this diverges as h -> 0; the raw value is reported
    as is.  Every displacement up to the grid diameter is enumerated, so the
    cost grows with the full pair count; intended for 1D grids and small 2D
    grids.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = u.grid
    offs, r2 = lattice_offsets(g.dim, sum((e - 1) ** 2 for e in g.extents))
    dist = g.spacing * np.sqrt(r2)
    return math.fsum(pair_power_sums(u, offs, q) / dist ** (g.dim + 1)) * g.spacing ** (2 * g.dim)


def q_monotonicity_holds(
    u: SampledField,
    q1: float,
    q2: float,
    eps,
    *,
    kappa: float = KAPPA,
) -> tuple[float, float, bool]:
    """Check bbm(u, q2, eps) <= (2 sup|u|)^(q2-q1) * bbm(u, q1, eps).

    Holds pair by pair because |u(y) - u(x)| <= 2 sup|u|; returns the two
    sides and the verdict of the untoleranced comparison.
    """
    if not q2 > q1 >= 1:
        raise ValueError("need q2 > q1 >= 1")
    lhs = bbm_value(u, q2, eps, kappa=kappa)
    rhs = bbm_value(u, q1, eps, kappa=kappa)
    factor = (2.0 * sup_norm(u)) ** (q2 - q1)
    return lhs, factor * rhs, bool(lhs <= factor * rhs)


def splitting_inequality_holds(
    u: SampledField,
    q: float,
    off1,
    off2,
    x_mask: DomainMask | None = None,
) -> bool:
    """Sample-wise triangle/convexity splitting for a two-leg shift.

    For integer offsets v1, v2 checks, at every sample x where all three
    points are inside,

        |u(x+v1+v2) - u(x)|^q
            <= 2^(q-1) (|u(x+v1+v2) - u(x+v1)|^q + |u(x+v1) - u(x)|^q).

    Exact-equality samples (the two legs coincide) are accepted as equality.
    Both offsets must have the grid's dimension.
    """
    if any(np.size(o) != u.grid.dim for o in (off1, off2)):
        raise ValueError("splitting offsets must have the grid dimension")
    off1 = np.asarray(off1, dtype=int).tolist()
    off = (np.asarray(off2, dtype=int) + off1).tolist()
    sx, ys = _offset_slices(u.grid.extents, [off1, off])
    if sx is None:
        raise RegimeError("splitting offsets leave the grid entirely")
    s_mid, sy = ys
    u0 = u.values[sx]
    u1 = u.values[s_mid]
    u2 = u.values[sy]
    inside = u.mask.inside
    valid = inside[sx] & inside[s_mid] & inside[sy]
    x_inside = _x_inside(u, x_mask)
    if x_inside is not None:
        valid = valid & x_inside[sx]
    a = u2 - u1
    b = u1 - u0
    ssa = np.einsum("...k,...k->...", a, a)
    ssb = np.einsum("...k,...k->...", b, b)
    c = u2 - u0
    ssc = np.einsum("...k,...k->...", c, c)
    equal_legs = ssa == ssb  # before the powers overwrite the legs
    lhs = _power_in_place(ssc, q)
    rhs = 2.0 ** (q - 1.0) * (_power_in_place(ssa, q) + _power_in_place(ssb, q))
    ok = (lhs <= rhs) | equal_legs
    return bool(ok[valid].all())
